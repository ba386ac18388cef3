#include "src/core/selector.h"

#include "src/util/check.h"

namespace fxrz {

CompressorSelector::CompressorSelector(
    std::vector<SelectorCandidate> candidates)
    : candidates_(std::move(candidates)) {
  FXRZ_CHECK(!candidates_.empty());
  for (const SelectorCandidate& c : candidates_) {
    FXRZ_CHECK(c.model != nullptr && c.model->trained()) << c.compressor_name;
    FXRZ_CHECK(c.model->has_quality_model())
        << c.compressor_name << ": selector needs train_quality_model";
  }
}

SelectionResult CompressorSelector::Select(const Tensor& data,
                                           double target_ratio) const {
  FXRZ_CHECK_GT(target_ratio, 0.0);
  SelectionResult result;
  result.candidate_psnrs.reserve(candidates_.size());

  double best_psnr = -1.0;
  size_t best = 0;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const FxrzModel& model = *candidates_[i].model;
    double psnr = model.EstimatePsnr(data, target_ratio);
    // A candidate whose trained curve tops out below the target cannot
    // deliver the ratio; its prediction (clamped to the reachable end)
    // would overstate the achievable quality. Penalize it.
    if (target_ratio > model.max_trained_ratio()) {
      psnr -= 20.0 * (target_ratio / model.max_trained_ratio());
    }
    result.candidate_psnrs.push_back(psnr);
    if (psnr > best_psnr) {
      best_psnr = psnr;
      best = i;
    }
  }

  result.compressor_name = candidates_[best].compressor_name;
  result.expected_psnr = result.candidate_psnrs[best];
  const FxrzModel& picked = *candidates_[best].model;
  result.config = picked.EstimateWithConfidence(data, target_ratio).config;
  return result;
}

}  // namespace fxrz
