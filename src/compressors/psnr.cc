#include "src/compressors/psnr.h"

#include <algorithm>
#include <cmath>

#include "src/data/statistics.h"
#include "src/util/check.h"

namespace fxrz {

PsnrBoundCompressor::PsnrBoundCompressor(std::unique_ptr<Compressor> base)
    : base_(std::move(base)) {
  FXRZ_CHECK(base_ != nullptr);
}

ConfigSpace PsnrBoundCompressor::config_space(double value_range) const {
  const ConfigSpace base_space = base_->config_space(value_range);
  FXRZ_CHECK(!base_space.integer)
      << "PSNR adapter needs a continuous error-bound knob";
  ConfigSpace space;
  space.min = 20.0;   // dB
  space.max = 120.0;  // near-lossless for float32
  space.log_scale = false;
  space.integer = false;
  space.ratio_increases = false;  // higher fidelity => lower ratio
  return space;
}

StatusOr<std::vector<uint8_t>> PsnrBoundCompressor::DoCompress(
    const Tensor& data, double config) const {
  if (!(config >= 1.0 && config <= 200.0)) {
    return Status::InvalidArgument("psnr: target must lie in [1, 200] dB");
  }
  const double value_range = ValueRange(data);
  const double range = value_range > 0 ? value_range : 1.0;
  const ConfigSpace base_space = base_->config_space(value_range);
  const double eb = std::clamp(
      std::sqrt(3.0) * range * std::pow(10.0, -config / 20.0),
      base_space.min, base_space.max);
  return base_->Compress(data, eb);
}

Status PsnrBoundCompressor::DoDecompress(const uint8_t* data, size_t size,
                                         Tensor* out) const {
  return base_->Decompress(data, size, out);
}

}  // namespace fxrz
