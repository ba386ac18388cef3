// Canonical Huffman coding of 32-bit symbol streams.
//
// This is the entropy back end of the SZ-like and MGARD-like compressors
// (both emit quantization-code streams whose distribution is sharply peaked
// around the zero-error code, which is where most of the compression comes
// from). The header stores (symbol, code length) pairs for the symbols that
// actually occur, so sparse alphabets (the common case) stay cheap.
//
// A plain stream (HuffmanEncode) gives every symbol a codeword, so it
// costs at least one bit per symbol. A run-coded stream (HuffmanEncodeRuns,
// the code sections of sz, sz3 and mgard) gets below that floor the way
// bzip2 does: each run of its most frequent symbol, the dominant one, is
// written as the run's length in bijective base 2, least significant digit
// first, with two extra symbols of the alphabet as the digits (RUNA = 1,
// RUNB = 2; a run of 5 is RUNA RUNB). The header records the dominant
// symbol and the two digits' code lengths.
//
// Decoding is table-driven: an 11-bit canonical-code lookup table resolves
// most codes in a single probe, and longer codes fall back to the
// canonical first_code ranges. The bit-at-a-time reference decoder of
// plain streams survives in huffman_internal for differential testing.
//
// A payload of at least 16 KiB decodes on the shared thread pool, in up to
// 64 equal bit ranges, with no change to the stream: range k owns the
// codewords whose first bit lies in it, and a run whose first digit lies in
// it, whose later digits it reads past its own end. Pass 1 decodes every
// range but the last from its first bit, counting symbols and recording
// where its first few hundred symbol codewords begin; a start inside a
// codeword or a run falls back onto the true codeword boundaries within a
// few dozen codewords (a Huffman code resynchronizes). Pass 2, serial,
// walks each range from its true entry (the previous range's exit) to the
// first recorded boundary and corrects the count, or decodes the whole
// range again if it meets none. Pass 3 decodes every range into its
// prefix-sum slot of the output, writing each symbol once. Any anomaly (an
// invalid or truncated code, counts beyond the symbol count, a last range
// that fails) drops to the one-range decode, so a corrupt stream gets
// exactly the Status a serial decode gives it.

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

// Encodes `symbols` into a self-describing run-coded byte stream. The
// bytes depend only on `symbols`, not on the thread count.
std::vector<uint8_t> HuffmanEncodeRuns(std::span<const uint32_t> symbols);

// Decodes a stream produced by HuffmanEncodeRuns into a buffer that is not
// zeroed first. A stream that claims fewer than `min_symbols` or more than
// `max_symbols` symbols fails with Corruption before anything is
// allocated, and a run that reaches past the claimed count fails with
// Corruption too. *out is empty on any error.
Status HuffmanDecodeRuns(const uint8_t* data, size_t size,
                         uint64_t min_symbols, uint64_t max_symbols,
                         OverwriteVector<uint32_t>* out);

namespace huffman_internal {

// Reference decoder of plain streams: walks the canonical code ranges one
// bit at a time. Semantically identical to HuffmanDecode on well-formed
// streams; kept for differential tests of the table-driven decoder.
Status DecodeReference(const uint8_t* data, size_t size,
                       std::vector<uint32_t>* out);

// Decodes in exactly `ranges` ranges, of any width, with no fallback: a
// multi-range decode that meets an anomaly returns
// Internal("huffman: multi-range decode fell back"). One range is the
// serial decode on the calling thread, whose output and Status
// HuffmanDecode must return for every stream. *out is empty on any error.
Status DecodeInRanges(const uint8_t* data, size_t size, size_t ranges,
                      std::vector<uint32_t>* out);

// DecodeInRanges for a run-coded stream, with HuffmanDecodeRuns's bounds.
Status DecodeRunsInRanges(const uint8_t* data, size_t size,
                          uint64_t min_symbols, uint64_t max_symbols,
                          size_t ranges, std::vector<uint32_t>* out);

// The number of ranges HuffmanDecode cuts a plain stream's payload into
// (1: one range on the calling thread), or 0 for a stream whose header or
// payload framing does not parse.
size_t DecodeRangeCount(const uint8_t* data, size_t size);

}  // namespace huffman_internal

}  // namespace fxrz

#endif  // FXRZ_ENCODING_HUFFMAN_H_
