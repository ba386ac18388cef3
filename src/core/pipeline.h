// End-to-end FXRZ pipeline: the public entry point most users want.
//
//   auto fxrz = Fxrz(MakeCompressor("sz"));
//   fxrz.Train(training_tensors);
//   auto result = fxrz.GuardedCompressToRatio(new_snapshot, 100,
//                                             PaperPolicy());
//   if (result.ok()) Write(result.value().compressed);
//
// Inference never runs the compressor to *search* -- under PaperPolicy() it
// extracts features, adjusts the target ratio, queries the model, and
// compresses exactly once.

#ifndef FXRZ_CORE_PIPELINE_H_
#define FXRZ_CORE_PIPELINE_H_

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/guard.h"
#include "src/core/model.h"
#include "src/data/tensor.h"
#include "src/util/status.h"

namespace fxrz {

class Fxrz {
 public:
  explicit Fxrz(std::unique_ptr<Compressor> compressor,
                FxrzTrainingOptions options = {});

  // Trains the model; returns the time breakdown (paper Table VI).
  TrainingBreakdown Train(const std::vector<const Tensor*>& datasets);

  // The fixed-ratio entry point (implemented in core/guard.cc; see
  // core/guard.h for the admission rules, confidence gate, and escalation
  // ladder). Never aborts: every request either yields a valid archive
  // whose relative ratio error is within options.accept_error (constant
  // fields and GuardFallback::kServeBest excepted), or a non-OK Status whose
  // message identifies the tier that failed. With the default options it
  // works on an untrained model too (serves via the knob-search tier).
  StatusOr<GuardedResult> GuardedCompressToRatio(
      const Tensor& data, double target_ratio,
      const GuardOptions& options = {}) const;

  const Compressor& compressor() const { return *compressor_; }
  FxrzModel& model() { return model_; }
  const FxrzModel& model() const { return model_; }

 private:
  std::unique_ptr<Compressor> compressor_;
  FxrzTrainingOptions options_;
  FxrzModel model_;
};

// The paper's estimation-error metric (Formula 5): |TCR - MCR| / TCR.
// Guarded: a non-positive (or NaN) target cannot anchor a relative error,
// so it reports infinity instead of dividing by it.
inline double EstimationError(double target_ratio, double measured_ratio) {
  if (!(target_ratio > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::abs(target_ratio - measured_ratio) / target_ratio;
}

}  // namespace fxrz

#endif  // FXRZ_CORE_PIPELINE_H_
