// Chunked compression adapter for bounded-memory use.
//
// The paper's in-memory use case (Sec. III-B) compresses state that gets
// reconstructed piecewise during the run. This decorator splits a tensor
// into contiguous slabs along its first dimension and compresses each slab
// independently with the base compressor, so peak codec memory stays
// bounded by one slab.
//
// Chunks are independent, so Compress/Decompress run the per-chunk work in
// parallel: each chunk compresses into its own buffer (concatenated in
// chunk order -> archives are byte-identical to serial), and each chunk
// decompresses into its own slab before the slabs are stitched in order.
// The index is parsed once up front, not re-walked per chunk.
//
// Integrity (magic "CHK2"): the index records each chunk's payload size,
// row count, and CRC32C, and is itself covered by an index checksum -- so
// a flipped byte anywhere in the archive is detected: VerifyIntegrity
// checks every CRC without decoding, and Decompress checks each chunk's
// CRC before its payload reaches the entropy decoder. The unchecksummed
// "CHK1" layout that preceded it is no longer read: it fails with
// "chunked: bad magic".

#ifndef FXRZ_COMPRESSORS_CHUNKED_H_
#define FXRZ_COMPRESSORS_CHUNKED_H_

#include <memory>
#include <vector>

#include "src/compressors/compressor.h"

namespace fxrz {

class ChunkedCompressor : public Compressor {
 public:
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

 private:
  // Compresses every slab through base_->Compress; a failed slab fails
  // the archive with that slab's Status.
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;

  // Any chunk whose checksum or payload is corrupt fails the whole
  // archive with Corruption (checksums are verified before entropy-decoding
  // each chunk).
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;

  std::unique_ptr<Compressor> base_;
  size_t target_chunk_elems_;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_CHUNKED_H_
