// FPZIP-like predictive lossy compressor.
//
// Reimplementation of the FPZIP scheme (Lindstrom & Isenburg):
//   1. optional precision reduction: only the top `p` bits of each float's
//      monotone sign-magnitude integer representation are kept (p in
//      [4, 32]; 32 is lossless) -- this is the compressor's control knob;
//   2. Lorenzo prediction in the ordered-integer domain, over the whole
//      truncated field;
//   3. residuals coded in two streams: the leading-bit position k of
//      |residual| and its sign through adaptive contexts of a binary
//      arithmetic coder, the k - 1 bits below the leading one raw into a
//      plain bit stream (they are uniform by construction, so a range-coder
//      step per bit bought nothing).
//
// The residual stream is cut at plane boundaries into segments (about one
// per 32768 elements, at most 64 and at most one per plane), each with its
// own context models, arithmetic stream and raw stream. The prediction
// stays global -- a segment's first plane still predicts from the plane
// before it -- so only the models' warm-up costs ratio. The prediction
// reads only the truncated input, so the segments encode in parallel on
// the shared pool; decoding entropy-decodes them in parallel and then runs
// the Lorenzo reconstruction in one serial pass in place. The segment
// count is a function of the shape alone, so the archive bytes are the
// same on any host at any thread count.
//
// Archive ("FPZ2"): the codec header, the precision byte, a u32 segment
// count, then per segment a length-prefixed class stream and a
// length-prefixed raw stream. Single-stream "FPZ1" archives are rejected
// with a Corruption that names them.
//
// Unlike SZ/ZFP/MGARD, the knob is an *integer precision* where compression
// ratio *decreases* as the knob grows -- this exercises FXRZ's support for
// inverted, integer config spaces.

#ifndef FXRZ_COMPRESSORS_FPZIP_H_
#define FXRZ_COMPRESSORS_FPZIP_H_

#include "src/compressors/compressor.h"

namespace fxrz {

class FpzipCompressor : public Compressor {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 32;

  std::string name() const override { return "fpzip"; }
  ConfigSpace config_space(double value_range) const override;

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_FPZIP_H_
