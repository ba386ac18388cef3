// Error-controlled lossy compressor interface.
//
// Every compressor exposes a single scalar control knob ("config"): an
// absolute error bound for SZ/ZFP/MGARD, an integer precision for FPZIP.
// The ConfigSpace descriptor tells FXRZ and FRaZ how to search/interpolate
// the knob (log vs linear scale, where its steps fall, and whether the
// compression ratio increases or decreases with the knob) -- this is what
// makes the framework genuinely compressor-agnostic.

#ifndef FXRZ_COMPRESSORS_COMPRESSOR_H_
#define FXRZ_COMPRESSORS_COMPRESSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/data/tensor.h"
#include "src/util/byte_reader.h"
#include "src/util/status.h"

namespace fxrz {

// How a compressor's control knob behaves.
struct ConfigSpace {
  double min = 0.0;          // smallest sensible knob value
  double max = 0.0;          // largest sensible knob value
  bool log_scale = true;     // search/interpolate in log10 of the knob
  bool integer = false;      // knob must be rounded to an integer
  bool ratio_increases = true;  // CR grows with the knob (false for FPZIP)
  bool power_of_two_steps = false;  // size depends on floor(log2(knob)) only
};

// Abstract error-controlled lossy compressor. Every codec run -- guard
// tiers, FRaZ probes, training, stores, decorators' base runs -- goes
// through the non-virtual Compress/Decompress (zfp's fixed-rate mode through
// the protected RunCompress that Compress is built on), which own the trace
// span, per-codec metrics and fault site (util/fault_injection.h) and report
// failures as Status; the codec bodies are private virtuals.
class Compressor {
 public:
  virtual ~Compressor() = default;

  // Short identifier: "sz", "zfp", "fpzip", "mgard".
  virtual std::string name() const = 0;

  // Sensible knob range for data whose max - min is `value_range` (see
  // ValueRange in data/statistics.h). The knob range depends only on the
  // value range; fpzip's on nothing.
  virtual ConfigSpace config_space(double value_range) const = 0;

  // Compresses `data` under knob value `config` into a self-describing
  // stream (shape is embedded). `config` must lie inside config_space;
  // callers clamp before invoking. An empty tensor fails as
  // InvalidArgument, an empty archive as Internal, an injected fault as
  // Unavailable.
  StatusOr<std::vector<uint8_t>> Compress(const Tensor& data,
                                          double config) const;

  // Reconstructs a tensor from a stream produced by Compress. On any error
  // *out is left untouched: a codec decodes into its own tensor (built
  // with Tensor::ForOverwrite) and moves it into *out only on success, so
  // a failed decode never hands out unwritten memory.
  Status Decompress(const uint8_t* data, size_t size, Tensor* out) const;

  // Cheap integrity audit of an archive without decoding it. Formats that
  // carry checksums (ChunkedCompressor's version-2 framing, container-
  // wrapped files) verify them here in one O(bytes) pass -- far below a
  // full entropy decode; plain codec streams have no integrity metadata,
  // so the base implementation only rejects archives too short to hold a
  // header. The guard's checksum-only verification tier (core/guard.h)
  // runs this before deciding whether to pay for a decode check.
  virtual Status VerifyIntegrity(const uint8_t* data, size_t size) const;

 protected:
  // The body of Compress around `run`: the trace span, per-codec metrics,
  // fault site and the empty-tensor and empty-archive checks. A codec's
  // other compression modes (ZfpCompressor::CompressFixedRate) run their
  // encoder through it too, so every codec run is counted the same way.
  StatusOr<std::vector<uint8_t>> RunCompress(
      const Tensor& data,
      const std::function<StatusOr<std::vector<uint8_t>>()>& run) const;

 private:
  virtual StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                                    double config) const = 0;
  virtual Status DoDecompress(const uint8_t* data, size_t size,
                              Tensor* out) const = 0;
};

// Creates a compressor by name; aborts on unknown names (use
// AllCompressorNames() to enumerate).
std::unique_ptr<Compressor> MakeCompressor(const std::string& name);

// As MakeCompressor, but returns null on unknown names. Use this when the
// name comes from untrusted bytes (e.g. a FieldStore archive).
std::unique_ptr<Compressor> MakeCompressorOrNull(const std::string& name);

// As MakeCompressorOrNull, additionally resolving the decorator names
// compressors report ("sz-chunked" -> ChunkedCompressor over sz). Used
// when decoding an archive whose "archive:<name>" container section named
// the codec that produced it.
std::unique_ptr<Compressor> MakeArchiveCompressorOrNull(
    const std::string& name);

// {"sz", "zfp", "fpzip", "mgard"} -- the paper's evaluation set.
std::vector<std::string> AllCompressorNames();

// The evaluation set plus "sz3" (interpolation-based SZ3-like design).
std::vector<std::string> ExtendedCompressorNames();

// Shared helpers: the error-bound knob space and stream headers.
namespace compressor_internal {

// The absolute-error-bound space of sz, sz3, zfp and mgard: log-scale,
// continuous, [1e-6, 0.3] x value_range (x 1 for a zero range).
ConfigSpace ErrorBoundSpace(double value_range);

// Appends magic (4 bytes) + rank + dims.
void AppendHeader(std::vector<uint8_t>* out, uint32_t magic,
                  const Tensor& data);

// Parses a header from `reader`, leaving it positioned at the first body
// byte. Validates magic, rank, and that the dims describe a plausible
// allocation; fails with Corruption otherwise.
Status ParseHeader(ByteReader* reader, uint32_t magic,
                   std::vector<size_t>* dims);

}  // namespace compressor_internal

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_COMPRESSOR_H_
