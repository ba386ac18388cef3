#include "src/core/pipeline.h"

#include "src/util/check.h"
#include "src/util/timer.h"

namespace fxrz {

Fxrz::Fxrz(std::unique_ptr<Compressor> compressor, FxrzTrainingOptions options)
    : compressor_(std::move(compressor)), options_(options) {
  FXRZ_CHECK(compressor_ != nullptr);
}

TrainingBreakdown Fxrz::Train(const std::vector<const Tensor*>& datasets) {
  return model_.Train(*compressor_, datasets, options_);
}

Fxrz::Estimate Fxrz::EstimateConfig(const Tensor& data,
                                    double target_ratio) const {
  WallTimer timer;
  Estimate e;
  e.config = model_.EstimateConfig(data, target_ratio);
  e.analysis_seconds = timer.Seconds();
  return e;
}

StatusOr<Fxrz::FixedRatioResult> Fxrz::CompressToRatio(
    const Tensor& data, double target_ratio) const {
  const Estimate est = EstimateConfig(data, target_ratio);
  FixedRatioResult result;
  result.config = est.config;
  result.analysis_seconds = est.analysis_seconds;

  WallTimer timer;
  FXRZ_ASSIGN_OR_RETURN(result.compressed,
                        compressor_->Compress(data, est.config));
  result.compress_seconds = timer.Seconds();
  result.measured_ratio = static_cast<double>(data.size_bytes()) /
                          static_cast<double>(result.compressed.size());
  return result;
}

StatusOr<Fxrz::FixedRatioResult> Fxrz::CompressToRatioRefined(
    const Tensor& data, double target_ratio,
    const RefinementOptions& options) const {
  FXRZ_ASSIGN_OR_RETURN(FixedRatioResult result,
                        CompressToRatio(data, target_ratio));
  for (int extra = 0; extra < options.max_extra_compressions; ++extra) {
    if (EstimationError(target_ratio, result.measured_ratio) <=
        options.error_threshold) {
      break;
    }
    WallTimer analysis_timer;
    const double corrected = model_.RefineConfig(
        data, target_ratio, result.config, result.measured_ratio);
    result.analysis_seconds += analysis_timer.Seconds();
    if (corrected == result.config) break;  // clamped: no progress possible

    WallTimer timer;
    FXRZ_ASSIGN_OR_RETURN(std::vector<uint8_t> candidate,
                          compressor_->Compress(data, corrected));
    result.compress_seconds += timer.Seconds();
    ++result.compressions;
    const double candidate_ratio = static_cast<double>(data.size_bytes()) /
                                   static_cast<double>(candidate.size());
    // Keep the better of the two attempts.
    if (EstimationError(target_ratio, candidate_ratio) <
        EstimationError(target_ratio, result.measured_ratio)) {
      result.config = corrected;
      result.measured_ratio = candidate_ratio;
      result.compressed = std::move(candidate);
    } else {
      break;  // correction did not help; stop burning compressions
    }
  }
  return result;
}

}  // namespace fxrz
