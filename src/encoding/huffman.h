// Canonical Huffman coding of 32-bit symbol streams.
//
// This is the entropy back end of the SZ-like and MGARD-like compressors
// (both emit quantization-code streams whose distribution is sharply peaked
// around the zero-error code, which is where most of the compression comes
// from). The header stores (symbol, code length) pairs for the symbols that
// actually occur, so sparse alphabets (the common case) stay cheap.
//
// Decoding is table-driven: an 11-bit canonical-code lookup table resolves
// most codes in a single probe, longer codes fall back to the canonical
// first_code ranges, and a run of the dominant (shortest-code, all-zero)
// symbol is taken whole from the trailing zeros of one peek. The
// bit-at-a-time reference decoder survives in huffman_internal for
// differential testing.
//
// A payload of at least 16 KiB decodes on the shared thread pool, in up to
// 64 equal bit ranges, with no change to the stream: range k owns the
// codewords whose first bit lies in it. Pass 1 decodes every range but the
// last from its first bit, counting codewords and recording where its
// first few hundred begin; a start inside a codeword falls back onto the
// true codeword boundaries within a few dozen codewords (a Huffman code
// resynchronizes). Pass 2, serial, walks each range from its true entry
// (the previous range's exit) to the first recorded boundary and corrects
// the count, or decodes the whole range again if it meets none. Pass 3
// decodes every range into its prefix-sum slot of the output. Any anomaly
// (an invalid or truncated code, counts beyond the symbol count, a last
// range that fails) drops to the one-range decode, so a corrupt stream
// gets exactly the Status a serial decode gives it.

#ifndef FXRZ_ENCODING_HUFFMAN_H_
#define FXRZ_ENCODING_HUFFMAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/overwrite.h"
#include "src/util/status.h"

namespace fxrz {

// Encodes `symbols` into a self-describing byte stream.
std::vector<uint8_t> HuffmanEncode(std::span<const uint32_t> symbols);

// Decodes a stream produced by HuffmanEncode. Fails with Corruption on a
// malformed or truncated stream, and then leaves *out empty.
Status HuffmanDecode(const uint8_t* data, size_t size,
                     std::vector<uint32_t>* out);

// The same decode into a buffer that is not zeroed first: the decode's own
// (parallel) pass is the first to touch its pages. Same contract.
Status HuffmanDecode(const uint8_t* data, size_t size,
                     OverwriteVector<uint32_t>* out);

namespace huffman_internal {

// Reference decoder: walks the canonical code ranges one bit at a time.
// Semantically identical to HuffmanDecode on well-formed streams; kept for
// differential tests of the table-driven fast path.
Status DecodeReference(const uint8_t* data, size_t size,
                       std::vector<uint32_t>* out);

// Decodes in exactly `ranges` ranges, of any width, with no fallback: a
// multi-range decode that meets an anomaly returns
// Internal("huffman: multi-range decode fell back"). One range is the
// serial decode on the calling thread, whose output and Status
// HuffmanDecode must return for every stream. *out is empty on any error.
Status DecodeInRanges(const uint8_t* data, size_t size, size_t ranges,
                      std::vector<uint32_t>* out);

// The number of ranges HuffmanDecode cuts the stream's payload into (1:
// one range on the calling thread), or 0 for a stream whose header or
// payload framing does not parse.
size_t DecodeRangeCount(const uint8_t* data, size_t size);

}  // namespace huffman_internal

}  // namespace fxrz

#endif  // FXRZ_ENCODING_HUFFMAN_H_
