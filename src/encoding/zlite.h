// "zlite": a small LZSS-style byte compressor.
//
// Plays the role Zstd plays in the real SZ pipeline: a dictionary-coding
// pass over the entropy-coded stream that exploits repeated byte patterns
// (long zero runs, repeated Huffman table fragments). Format: u64 raw size,
// u64 payload bytes, then an LSB-first bit stream of tokens -- flag bit 0 =
// literal byte, flag bit 1 = match with a 16-bit backward offset and an
// 8-bit length (kMinMatch..kMinMatch+255).
//
// The compressor's greedy parse runs on the shared thread pool, in about
// one range per thread, with bytes that do not depend on the split: the
// match found at a position depends on the position alone, so two parses
// that meet at one position agree from there on. Each range parses from
// its first position; a serial pass re-anchors each range at its left
// neighbour's exit (parsing again from there up to the first position the
// range's own parse reached, when the exit is not one of them), and the
// ranges' tokens are spliced at prefix-sum bit offsets.

#ifndef FXRZ_ENCODING_ZLITE_H_
#define FXRZ_ENCODING_ZLITE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/overwrite.h"
#include "src/util/status.h"

namespace fxrz {

// Compresses `input` into a self-describing stream. Never fails; incompressible
// input grows by a small constant factor plus header.
std::vector<uint8_t> ZliteCompress(const std::vector<uint8_t>& input);

// Decompresses a ZliteCompress stream. On a failure *out holds the bytes
// decoded before it.
Status ZliteDecompress(const uint8_t* data, size_t size,
                       std::vector<uint8_t>* out);

// The same decode into a buffer that is not zeroed first, so the decode is
// the first to touch its pages. Same contract.
Status ZliteDecompress(const uint8_t* data, size_t size,
                       OverwriteVector<uint8_t>* out);

namespace zlite_internal {

struct RangedCompression {
  std::vector<uint8_t> bytes;
  size_t reparses = 0;  // ranges parsed again from their true entry on
};

// ZliteCompress's parse in exactly `ranges` ranges (at most one per input
// byte) of any width. Its bytes equal ZliteCompress's for every `ranges`.
RangedCompression CompressInRanges(const std::vector<uint8_t>& input,
                                   size_t ranges);

}  // namespace zlite_internal

}  // namespace fxrz

#endif  // FXRZ_ENCODING_ZLITE_H_
