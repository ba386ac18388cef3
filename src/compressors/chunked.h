// Chunked compression adapter for bounded-memory and random-access use.
//
// The paper's in-memory use case (Sec. III-B) compresses state that gets
// reconstructed piecewise during the run. This decorator splits a tensor
// into contiguous slabs along its first dimension, compresses each slab
// independently with the base compressor, and frames them with an index --
// so decompression can target a single slab without touching the rest, and
// peak memory stays bounded by one slab.
//
// Chunks are independent, so full-tensor Compress/Decompress run the
// per-chunk work in parallel: each chunk compresses into its own buffer
// (concatenated in chunk order -> archives are byte-identical to serial),
// and each chunk decompresses directly into its disjoint slab of the
// output tensor. The index is parsed once up front, not re-walked per
// chunk.
//
// Integrity (magic "CHK2"): the index records each chunk's payload size,
// row count, and CRC32C, and is itself covered by an index checksum -- so
// a flipped byte anywhere in the archive is detected before the affected
// chunk is entropy-decoded, and chunk independence turns detection into
// *containment*: DecompressDegraded salvages every intact chunk, fills the
// corrupt chunks' slabs with kLostValueSentinel, and reports exactly what
// was lost. The unchecksummed "CHK1" layout that
// preceded it is no longer read: it fails with "chunked: bad magic".

#ifndef FXRZ_COMPRESSORS_CHUNKED_H_
#define FXRZ_COMPRESSORS_CHUNKED_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/compressors/compressor.h"

namespace fxrz {

// What DecompressDegraded salvaged and what it lost. Only produced
// together with a fully-shaped output tensor.
struct DecodeReport {
  size_t total_chunks = 0;
  // Indices of chunks that failed their checksum (or, checksum passing,
  // failed to decode) and were replaced by the sentinel.
  std::vector<size_t> lost_chunks;
  // Affected regions of the decoded tensor, as [begin, end) byte ranges
  // (multiply element offsets by sizeof(float)); one per lost chunk.
  std::vector<std::pair<size_t, size_t>> lost_byte_ranges;
  // Total sentinel-filled values.
  size_t lost_values = 0;
  bool complete() const { return lost_chunks.empty(); }
};

class ChunkedCompressor : public Compressor {
 public:
  // Every value of a lost chunk's slab after DecompressDegraded. A quiet
  // NaN: admission (core/guard.h) rejects NaN inputs, so NaN regions in a
  // degraded decode unambiguously mark data loss rather than science data.
  static float LostValueSentinel();

  // Slabs are sized to at most `target_chunk_elems` elements (rounded to
  // whole rows of the first dimension; a slab holds at least one row).
  // Slabs compress and decode in parallel on SharedThreadPool(), and the
  // archive, the decoded tensor and every Status are the same however the
  // slabs are scheduled. The base compressor must be safe to call
  // concurrently (all built-in codecs are).
  explicit ChunkedCompressor(std::unique_ptr<Compressor> base,
                             size_t target_chunk_elems = size_t{1} << 18);

  std::string name() const override { return base_->name() + "-chunked"; }
  ConfigSpace config_space(double value_range) const override {
    return base_->config_space(value_range);
  }
  // Checksum-only integrity audit: validates the framing and index
  // checksum, then every per-chunk CRC32C -- without entropy-decoding
  // anything. This is what the guard's cheap verification tier runs.
  Status VerifyIntegrity(const uint8_t* data, size_t size) const override;

  // Degraded decode: verifies each chunk before entropy-decoding it,
  // isolates corrupt chunks, fills their slab with LostValueSentinel(), and
  // reports what was lost instead of failing the whole archive. Fails
  // outright only when the header/index itself is corrupt (nothing can be
  // placed).
  Status DecompressDegraded(const uint8_t* data, size_t size, Tensor* out,
                            DecodeReport* report) const;

  // Number of slabs in a compressed stream (0 on malformed input).
  size_t ChunkCount(const uint8_t* data, size_t size) const;

  // Decompresses only slab `index` (its own smaller tensor).
  Status DecompressChunk(const uint8_t* data, size_t size, size_t index,
                         Tensor* out) const;

 private:
  // Compresses every slab through base_->Compress; a failed slab fails
  // the archive with that slab's Status.
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;

  // Strict decode: any chunk whose checksum or payload is corrupt fails
  // the whole archive with Corruption (checksums are verified before
  // entropy-decoding each chunk).
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;

  std::unique_ptr<Compressor> base_;
  size_t target_chunk_elems_;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_CHUNKED_H_
