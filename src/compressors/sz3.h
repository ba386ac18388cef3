// SZ3-like interpolation-based error-bounded lossy compressor.
//
// Reimplementation of the SZ3 design (Zhao, Di, Liang et al., cited as [21]
// by the paper): instead of Lorenzo/regression prediction, values are
// predicted by multi-level *spline interpolation* -- coarse grid points are
// coded first, then each finer level is predicted from already-
// reconstructed coarser points with a 4-point cubic (falling back to linear
// at boundaries), dimension by dimension. Because prediction uses
// reconstructed values, quantization errors do not accumulate across
// levels and the absolute error bound holds exactly per element.
//
// Registered as "sz3"; not part of the paper's 4-compressor evaluation but
// included to demonstrate FXRZ's compressor-agnosticism on a fifth design.

#ifndef FXRZ_COMPRESSORS_SZ3_H_
#define FXRZ_COMPRESSORS_SZ3_H_

#include "src/compressors/compressor.h"

namespace fxrz {

class Sz3Compressor : public Compressor {
 public:
  std::string name() const override { return "sz3"; }
  ConfigSpace config_space(double value_range) const override {
    return compressor_internal::ErrorBoundSpace(value_range);
  }

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_SZ3_H_
