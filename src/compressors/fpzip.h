// FPZIP-like predictive lossy compressor.
//
// Reimplementation of the FPZIP scheme (Lindstrom & Isenburg):
//   1. optional precision reduction: only the top `p` bits of each float's
//      monotone sign-magnitude integer representation are kept (p in
//      [4, 32]; 32 is lossless) -- this is the compressor's control knob;
//   2. Lorenzo prediction in the ordered-integer domain;
//   3. residuals coded with a context-adaptive binary arithmetic coder:
//      the leading-bit position of |residual| is coded through adaptive
//      contexts, the trailing bits raw.
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
