// PSNR-targeted control adapter.
//
// The third control mode the paper lists (Sec. I; Tao et al. estimate CR
// from PSNR): the knob is a target peak signal-to-noise ratio in dB. The
// adapter maps it onto the base compressor's absolute error bound with the
// uniform-quantization noise model -- rmse ~ eb/sqrt(3), so
//   eb = sqrt(3) * value_range * 10^(-psnr/20).
// Higher PSNR means a smaller bound and hence a LOWER ratio, so this also
// exercises FXRZ's inverted, linear (dB is already logarithmic) config
// spaces on a continuous knob.

#ifndef FXRZ_COMPRESSORS_PSNR_H_
#define FXRZ_COMPRESSORS_PSNR_H_

#include <memory>

#include "src/compressors/compressor.h"

namespace fxrz {

class PsnrBoundCompressor : public Compressor {
 public:
  // `base` must use a continuous absolute error-bound knob.
  explicit PsnrBoundCompressor(std::unique_ptr<Compressor> base);

  std::string name() const override { return base_->name() + "-psnr"; }
  ConfigSpace config_space(double value_range) const override;

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;

  std::unique_ptr<Compressor> base_;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_PSNR_H_
