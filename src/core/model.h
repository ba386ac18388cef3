// FXRZ training and inference engine (paper Sec. IV-A, IV-D).
//
// Training rows are built per dataset from (a) the five adopted features,
// (b) interpolation-augmented (ratio -> config) samples from the stationary
// point curve, and (c) the Compressibility-Adjusted ratio ACR = ratio * R.
// The regressor maps [features..., log10(ACR)] -> knob, where the knob is
// log10(config) for log-scale config spaces (SZ/ZFP/MGARD error bounds) and
// the raw config otherwise (FPZIP precision).

#ifndef FXRZ_CORE_MODEL_H_
#define FXRZ_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/analysis.h"
#include "src/core/augmentation.h"
#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/data/tensor.h"
#include "src/ml/regressor.h"
#include "src/util/status.h"

namespace fxrz {

// Candidate regressors of the paper's Table III study.
enum class ModelType { kRandomForest, kAdaBoost, kSvr };

std::string ModelTypeName(ModelType type);

struct FxrzTrainingOptions {
  AugmentationOptions augmentation;   // ~25 stationary points
  FeatureOptions features;            // stride-4 sampling
  CaOptions ca;                       // 4^d blocks, lambda = 0.15
  bool use_ca = true;                 // Compressibility Adjustment on/off
  int samples_per_dataset = 100;      // augmented rows per training dataset
  // Bitmask over the five adopted features (bit i keeps feature i in the
  // order range/mean/MND/MLD/MSD). 0x1F = all. Used by ablation studies.
  uint32_t feature_mask = 0x1F;
  // EXTENSION: also learn a (features, target ratio) -> PSNR model so users
  // can preview the reconstruction quality a ratio implies before
  // committing (the paper's "preserving best data quality" use cases).
  // Roughly doubles stationary-point collection cost.
  bool train_quality_model = false;
  ModelType model_type = ModelType::kRandomForest;
  bool tune_hyperparameters = false;  // k-fold CV grid search
  int cv_folds = 4;
  // Threads for per-dataset stationary-point collection (the dominant
  // training cost); 1 = serial, 0 = hardware concurrency.
  int training_threads = 1;
  uint64_t seed = 101;
};

// Wall-clock breakdown of one Train() call (paper Table VI).
struct TrainingBreakdown {
  double stationary_seconds = 0.0;  // compressor runs
  double augment_seconds = 0.0;     // feature extraction + interpolation
  double fit_seconds = 0.0;         // regressor training (incl. CV)
  size_t compressor_runs = 0;
  size_t training_rows = 0;
  double total_seconds() const {
    return stationary_seconds + augment_seconds + fit_seconds;
  }
};

// A trained fixed-ratio model for one compressor.
class FxrzModel {
 public:
  FxrzModel() = default;

  // Trains on the given datasets. Every dataset is compressed only at the
  // stationary points; all other training rows come from interpolation.
  TrainingBreakdown Train(const Compressor& compressor,
                          const std::vector<const Tensor*>& datasets,
                          const FxrzTrainingOptions& options = {});

  // Estimates the config expected to reach `target_ratio` on `data`.
  // Runtime cost is feature extraction + block scan + one model query; the
  // compressor is never invoked.
  double EstimateConfig(const Tensor& data, double target_ratio) const;

  // EstimateConfig plus the confidence signals the guarded serving layer
  // (core/guard.h) gates on: the per-tree knob spread of ensemble models
  // and the query's position relative to the training feature envelope.
  // This is the instrumented "model query" fault site
  // (util/fault_injection.h): an injected fault forces a deliberate
  // mis-estimate at the far edge of the trained knob range.
  struct ConfidentEstimate {
    double config = 0.0;
    // Population stddev of the per-tree knob predictions; 0 and
    // has_spread=false when the regressor cannot report one.
    double knob_spread = 0.0;
    bool has_spread = false;
    // Per-input overshoot beyond the training envelope, normalized by
    // max(column range, 0.5) (inputs are log10-compressed, so 0.5 is about
    // a 3x factor in raw units). 0 when every input lies inside.
    double envelope_excess = 0.0;
    bool in_envelope = true;
  };
  ConfidentEstimate EstimateWithConfidence(const Tensor& data,
                                           double target_ratio) const;

  // True once Train/Load captured a per-input envelope.
  bool has_envelope() const { return !input_min_.empty(); }

  bool trained() const { return model_ != nullptr; }
  const FxrzTrainingOptions& options() const { return options_; }

  // Compression-ratio range observed across the training curves -- the
  // paper's per-dataset/compressor "valid compression ratio range"
  // (Sec. V-C/Fig. 11). Targets outside this range are unreachable for the
  // underlying compressor, so no estimator can match them.
  double min_trained_ratio() const { return ratio_min_; }
  double max_trained_ratio() const { return ratio_max_; }

  // `n` target ratios uniformly spanning the trained range, shrunk by
  // `margin` (fraction of the log-range trimmed at each end).
  std::vector<double> ValidTargetRatios(int n, double margin = 0.1) const;

  // EXTENSION: expected reconstruction PSNR (dB) of compressing `data` at
  // `target_ratio`. Requires train_quality_model at training time.
  bool has_quality_model() const { return quality_model_ != nullptr; }
  double EstimatePsnr(const Tensor& data, double target_ratio) const;

  // EXTENSION (paper Sec. VI future work): one-measurement correction.
  // After compressing once at `tried_config` (a compression the caller had
  // to perform anyway) and measuring `measured_ratio`, returns a corrected
  // config for `target_ratio` under the assumption that the dataset's true
  // ratio-vs-knob curve is the model's curve shifted in knob space:
  //   corrected = K(target) + (K(target) - K(measured)),
  // where K is the model's knob mapping for this dataset. Costs two model
  // queries and no compressor runs.
  double RefineConfig(const Tensor& data, double target_ratio,
                      double tried_config, double measured_ratio) const;

  // Persistence (Random Forest models only).
  Status SaveToBytes(std::vector<uint8_t>* out) const;
  Status LoadFromBytes(const uint8_t* data, size_t size);
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  // Per-tensor analysis cache hit/miss counters (test/diagnostic hook).
  uint64_t analysis_cache_hits() const { return analysis_cache_.hits(); }
  uint64_t analysis_cache_misses() const { return analysis_cache_.misses(); }

 private:
  std::vector<double> BuildInputs(const Tensor& data,
                                  double target_ratio) const;
  // Cached features + constant-block scan under the trained options.
  TensorAnalysis Analyze(const Tensor& data) const;
  double ToKnob(double config) const;
  double FromKnob(double knob) const;

  FxrzTrainingOptions options_;
  std::unique_ptr<Regressor> model_;
  std::unique_ptr<Regressor> quality_model_;  // optional PSNR preview
  // Memoized per-tensor analysis: one feature extraction + one CA scan per
  // tensor, shared by EstimateConfig / RefineConfig / EstimatePsnr.
  mutable AnalysisCache analysis_cache_;
  // Config-space shape captured at training time.
  bool log_scale_ = true;
  bool integer_ = false;
  double knob_min_ = 0.0;  // clamp range for predictions
  double knob_max_ = 0.0;
  double ratio_min_ = 0.0;  // trained compression-ratio range
  double ratio_max_ = 0.0;
  // Per-model-input [min, max] observed across all training rows (the five
  // masked features plus the log-ACR column) -- the envelope the confidence
  // gate compares queries against.
  std::vector<double> input_min_;
  std::vector<double> input_max_;
};

}  // namespace fxrz

#endif  // FXRZ_CORE_MODEL_H_
