// End-to-end FXRZ pipeline: the public entry point most users want.
//
//   auto fxrz = Fxrz(MakeCompressor("sz"));
//   fxrz.Train(training_tensors);
//   auto result = fxrz.CompressToRatio(new_snapshot, /*target_ratio=*/100);
//   if (result.ok()) Write(result.value().compressed);
//
// Inference never runs the compressor to *search* -- it extracts features,
// adjusts the target ratio, queries the model, and compresses exactly once.

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

  // Estimated config plus the analysis time it took (paper Table VIII's
  // "analysis time": features + block scan + model query).
  struct Estimate {
    double config = 0.0;
    double analysis_seconds = 0.0;
  };
  Estimate EstimateConfig(const Tensor& data, double target_ratio) const;

  // Full fixed-ratio compression: estimate, then compress once. Fails with
  // the codec's Status when that compression fails.
  struct FixedRatioResult {
    double config = 0.0;
    double measured_ratio = 0.0;
    double analysis_seconds = 0.0;
    double compress_seconds = 0.0;
    int compressions = 1;
    std::vector<uint8_t> compressed;
  };
  StatusOr<FixedRatioResult> CompressToRatio(const Tensor& data,
                                             double target_ratio) const;

  // EXTENSION (paper future work): hybrid mode. Compresses at the model
  // estimate; if the measured ratio misses the target by more than
  // `error_threshold`, corrects the knob via FxrzModel::RefineConfig and
  // recompresses (at most `max_extra_compressions` times, default 1).
  // Worst case cost: 1 + max_extra_compressions compressions -- still far
  // below FRaZ's iteration counts. A failed recompression fails the call.
  struct RefinementOptions {
    double error_threshold = 0.08;
    int max_extra_compressions = 1;
  };
  StatusOr<FixedRatioResult> CompressToRatioRefined(
      const Tensor& data, double target_ratio,
      const RefinementOptions& options) const;
  StatusOr<FixedRatioResult> CompressToRatioRefined(
      const Tensor& data, double target_ratio) const {
    return CompressToRatioRefined(data, target_ratio, RefinementOptions());
  }

  // Guarded serving entry point (implemented in core/guard.cc; see
  // core/guard.h for the admission rules, confidence gate, and escalation
  // ladder). Never aborts: every request either yields a valid archive
  // whose relative ratio error is within options.accept_error (constant
  // fields excepted -- they always over-achieve), or a non-OK Status whose
  // message identifies the tier that failed. Works on an untrained model
  // too (serves via the FRaZ fallback tier).
  StatusOr<GuardedResult> GuardedCompressToRatio(
      const Tensor& data, double target_ratio,
      const GuardOptions& options = {}) const;

  // Batched guard entry point for the serving layer's fused dispatch: the
  // per-member admission, memory reservation, escalation ladder, deadlines,
  // and result contract are identical to calling GuardedCompressToRatio
  // once per item -- byte-identical archives, same tiers/flags/Status codes
  // -- but the feature-analysis pass and the model inference run ONCE for
  // the whole batch. Memory admission reserves the SUM of member peak
  // estimates before any member compresses; a member the budget cannot
  // cover resolves ResourceExhausted alone without failing the batch.
  // Result i corresponds to items[i].
  std::vector<StatusOr<GuardedResult>> GuardedCompressBatchToRatio(
      const std::vector<GuardedBatchItem>& items) const;

  const Compressor& compressor() const { return *compressor_; }
  FxrzModel& model() { return model_; }
  const FxrzModel& model() const { return model_; }

 private:
  // Escalation-ladder body shared by the single and batched guard entry
  // points: runs after admission/memory reservation, optionally seeded with
  // a batch-fused model estimate (nullptr = query the model inline).
  StatusOr<GuardedResult> GuardedServeLadder(
      const Tensor& data, double target_ratio, const GuardOptions& options,
      const AdmissionReport& admission, MemReservation memory,
      const FxrzModel::ConfidentEstimate* pre_estimate) const;

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
