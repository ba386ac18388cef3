#include "src/core/pipeline.h"

#include "src/util/check.h"

namespace fxrz {

Fxrz::Fxrz(std::unique_ptr<Compressor> compressor, FxrzTrainingOptions options)
    : compressor_(std::move(compressor)), options_(options) {
  FXRZ_CHECK(compressor_ != nullptr);
}

TrainingBreakdown Fxrz::Train(const std::vector<const Tensor*>& datasets) {
  return model_.Train(*compressor_, datasets, options_);
}

}  // namespace fxrz
