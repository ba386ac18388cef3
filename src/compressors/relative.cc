#include "src/compressors/relative.h"

#include <algorithm>
#include <cmath>

#include "src/data/statistics.h"
#include "src/util/check.h"

namespace fxrz {

RelativeErrorCompressor::RelativeErrorCompressor(
    std::unique_ptr<Compressor> base)
    : base_(std::move(base)) {
  FXRZ_CHECK(base_ != nullptr);
}

ConfigSpace RelativeErrorCompressor::config_space(double value_range) const {
  const ConfigSpace base_space = base_->config_space(value_range);
  FXRZ_CHECK(!base_space.integer)
      << "relative adapter needs a continuous error-bound knob";
  ConfigSpace space;
  space.min = 1e-6;
  space.max = 0.3;
  space.log_scale = true;
  space.integer = false;
  space.ratio_increases = base_space.ratio_increases;
  return space;
}

StatusOr<std::vector<uint8_t>> RelativeErrorCompressor::DoCompress(
    const Tensor& data, double config) const {
  if (!std::isfinite(config) || config <= 0.0) {
    return Status::InvalidArgument(
        "relative: error bound must be finite and > 0");
  }
  const double value_range = ValueRange(data);
  const double range = value_range > 0 ? value_range : 1.0;
  const ConfigSpace base_space = base_->config_space(value_range);
  const double abs_eb =
      std::clamp(config * range, base_space.min, base_space.max);
  return base_->Compress(data, abs_eb);
}

Status RelativeErrorCompressor::DoDecompress(const uint8_t* data, size_t size,
                                             Tensor* out) const {
  return base_->Decompress(data, size, out);
}

}  // namespace fxrz
