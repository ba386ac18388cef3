#include "src/core/model.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/encoding/bit_stream.h"
#include "src/ml/adaboost.h"
#include "src/store/container.h"
#include "src/ml/cross_validation.h"
#include "src/ml/random_forest.h"
#include "src/ml/svr.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/util/trace.h"

namespace fxrz {

namespace {

struct ModelMetrics {
  metrics::Counter& estimates = metrics::GetCounter(
      "fxrz_model_estimates_total",
      "Model config estimates (EstimateConfig/EstimateWithConfidence)");
  metrics::Counter& refines = metrics::GetCounter(
      "fxrz_model_refines_total",
      "One-measurement RefineConfig corrections");
  metrics::Counter& trainings = metrics::GetCounter(
      "fxrz_model_trainings_total", "FxrzModel::Train invocations");
  metrics::Gauge& training_rows = metrics::GetGauge(
      "fxrz_model_training_rows",
      "Training rows used by the most recent Train");
};

ModelMetrics& MMetrics() {
  static ModelMetrics* m = new ModelMetrics();  // never destroyed
  return *m;
}

constexpr uint32_t kModelMagic = 0x46585A4D;  // "FXZM"

std::unique_ptr<Regressor> MakeModel(ModelType type, uint64_t seed) {
  switch (type) {
    case ModelType::kRandomForest: {
      RandomForestParams p;
      p.seed = seed;
      return std::make_unique<RandomForestRegressor>(p);
    }
    case ModelType::kAdaBoost: {
      AdaBoostParams p;
      p.seed = seed;
      return std::make_unique<AdaBoostRegressor>(p);
    }
    case ModelType::kSvr: {
      SvrParams p;
      p.seed = seed;
      return std::make_unique<SvrRegressor>(p);
    }
  }
  FXRZ_CHECK(false) << "bad model type";
  return nullptr;
}

// Small hyperparameter grids for the CV search (paper Sec. IV-D).
std::vector<RegressorFactory> MakeGrid(ModelType type, uint64_t seed) {
  std::vector<RegressorFactory> grid;
  switch (type) {
    case ModelType::kRandomForest:
      for (int trees : {40, 80}) {
        for (int depth : {10, 16}) {
          grid.push_back([trees, depth, seed] {
            RandomForestParams p;
            p.num_trees = trees;
            p.max_depth = depth;
            p.seed = seed;
            return std::make_unique<RandomForestRegressor>(p);
          });
        }
      }
      break;
    case ModelType::kAdaBoost:
      for (int estimators : {30, 60}) {
        for (int depth : {3, 5}) {
          grid.push_back([estimators, depth, seed] {
            AdaBoostParams p;
            p.num_estimators = estimators;
            p.max_depth = depth;
            p.seed = seed;
            return std::make_unique<AdaBoostRegressor>(p);
          });
        }
      }
      break;
    case ModelType::kSvr:
      for (double c : {1.0, 10.0}) {
        for (double gamma : {0.25, 1.0}) {
          grid.push_back([c, gamma, seed] {
            SvrParams p;
            p.c = c;
            p.gamma = gamma;
            p.seed = seed;
            return std::make_unique<SvrRegressor>(p);
          });
        }
      }
      break;
  }
  return grid;
}

}  // namespace

namespace {

// Applies the training option's feature bitmask.
std::vector<double> MaskFeatures(std::vector<double> inputs, uint32_t mask) {
  std::vector<double> out;
  out.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (mask & (1u << i)) out.push_back(inputs[i]);
  }
  return out;
}

}  // namespace

std::string ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kRandomForest: return "RFR";
    case ModelType::kAdaBoost: return "AdaBoost";
    case ModelType::kSvr: return "SVR";
  }
  return "?";
}

double FxrzModel::ToKnob(double config) const {
  return log_scale_ ? std::log10(config) : config;
}

double FxrzModel::FromKnob(double knob) const {
  double config = log_scale_ ? std::pow(10.0, knob) : knob;
  if (integer_) config = std::round(config);
  return config;
}

TrainingBreakdown FxrzModel::Train(const Compressor& compressor,
                                   const std::vector<const Tensor*>& datasets,
                                   const FxrzTrainingOptions& options) {
  FXRZ_TRACE_SPAN("model.train");
  MMetrics().trainings.Increment();
  FXRZ_CHECK(!datasets.empty());
  options_ = options;
  analysis_cache_.Clear();  // keys depend on the (possibly new) options
  TrainingBreakdown breakdown;

  FeatureMatrix x;
  std::vector<double> y;
  std::vector<double> quality_y;  // PSNR targets (when enabled)

  AugmentationOptions augmentation = options.augmentation;
  augmentation.measure_quality = options.train_quality_model;

  // (1) Stationary points: the only compressor runs in training. Datasets
  // are independent, so collection parallelizes across them.
  std::vector<std::vector<StationaryPoint>> all_points(datasets.size());
  {
    WallTimer stationary_timer;
    if (options.training_threads == 1 || datasets.size() == 1) {
      for (size_t i = 0; i < datasets.size(); ++i) {
        FXRZ_CHECK(datasets[i] != nullptr && !datasets[i]->empty());
        all_points[i] =
            CollectStationaryPoints(compressor, *datasets[i], augmentation);
      }
    } else {
      const size_t threads =
          options.training_threads > 0
              ? static_cast<size_t>(options.training_threads)
              : std::thread::hardware_concurrency();
      ThreadPool pool(threads);
      ParallelFor(&pool, 0, datasets.size(), [&](size_t i) {
        FXRZ_CHECK(datasets[i] != nullptr && !datasets[i]->empty());
        all_points[i] =
            CollectStationaryPoints(compressor, *datasets[i], augmentation);
      });
    }
    breakdown.stationary_seconds = stationary_timer.Seconds();
  }

  bool space_shape_set = false;
  for (size_t dataset_index = 0; dataset_index < datasets.size();
       ++dataset_index) {
    const Tensor* data = datasets[dataset_index];
    const ConfigSpace space = compressor.config_space(*data);
    if (!space_shape_set) {
      log_scale_ = space.log_scale;
      integer_ = space.integer;
      space_shape_set = true;
    } else {
      FXRZ_CHECK(log_scale_ == space.log_scale && integer_ == space.integer)
          << "config-space shape must be consistent across datasets";
    }

    const std::vector<StationaryPoint>& points = all_points[dataset_index];
    breakdown.compressor_runs += points.size();

    // Ratio -> PSNR interpolation support for the quality model.
    std::vector<std::pair<double, double>> psnr_curve;  // (ratio, psnr)
    if (options.train_quality_model) {
      for (const StationaryPoint& p : points) {
        psnr_curve.emplace_back(p.ratio, p.psnr);
      }
      std::sort(psnr_curve.begin(), psnr_curve.end());
    }
    auto psnr_at_ratio = [&psnr_curve](double ratio) {
      if (psnr_curve.empty()) return 0.0;
      if (ratio <= psnr_curve.front().first) return psnr_curve.front().second;
      if (ratio >= psnr_curve.back().first) return psnr_curve.back().second;
      for (size_t i = 1; i < psnr_curve.size(); ++i) {
        if (ratio <= psnr_curve[i].first) {
          const auto& [r0, p0] = psnr_curve[i - 1];
          const auto& [r1, p1] = psnr_curve[i];
          const double t = r1 > r0 ? (ratio - r0) / (r1 - r0) : 0.0;
          return p0 + t * (p1 - p0);
        }
      }
      return psnr_curve.back().second;
    };

    // (2) Features + CA + interpolation augmentation.
    WallTimer augment_timer;
    const TensorAnalysis analysis = Analyze(*data);
    const std::vector<double> feature_inputs =
        MaskFeatures(FeatureModelInputs(analysis.features),
                     options.feature_mask);
    const double r =
        analysis.has_ca ? analysis.ca.non_constant_ratio : 1.0;

    const RatioConfigCurve curve(points, space);
    if (breakdown.training_rows == 0) {
      ratio_min_ = curve.min_ratio();
      ratio_max_ = curve.max_ratio();
    } else {
      ratio_min_ = std::min(ratio_min_, curve.min_ratio());
      ratio_max_ = std::max(ratio_max_, curve.max_ratio());
    }
    for (const StationaryPoint& sample :
         curve.SampleUniformRatios(options.samples_per_dataset)) {
      std::vector<double> row = feature_inputs;
      const double acr = AdjustTargetRatio(sample.ratio, r);
      row.push_back(std::log10(std::max(acr, 1e-3)));
      x.push_back(std::move(row));
      const double knob = ToKnob(sample.config);
      y.push_back(knob);
      if (options.train_quality_model) {
        quality_y.push_back(psnr_at_ratio(sample.ratio));
      }
      if (breakdown.training_rows == 0) {
        knob_min_ = knob_max_ = knob;
      } else {
        knob_min_ = std::min(knob_min_, knob);
        knob_max_ = std::max(knob_max_, knob);
      }
      ++breakdown.training_rows;
    }
    breakdown.augment_seconds += augment_timer.Seconds();
  }

  // Training feature envelope: per-input [min, max] across every row. The
  // confidence gate flags queries outside it as out-of-distribution.
  input_min_.clear();
  input_max_.clear();
  if (!x.empty()) {
    input_min_ = x[0];
    input_max_ = x[0];
    for (const std::vector<double>& row : x) {
      for (size_t i = 0; i < row.size(); ++i) {
        input_min_[i] = std::min(input_min_[i], row[i]);
        input_max_[i] = std::max(input_max_[i], row[i]);
      }
    }
  }

  // (3) Fit the regressor (optionally CV-tuned).
  WallTimer fit_timer;
  if (options.tune_hyperparameters &&
      x.size() >= static_cast<size_t>(2 * options.cv_folds)) {
    const std::vector<RegressorFactory> grid =
        MakeGrid(options.model_type, options.seed);
    const size_t best =
        GridSearchBest(grid, x, y, options.cv_folds, options.seed);
    model_ = grid[best]();
  } else {
    model_ = MakeModel(options.model_type, options.seed);
  }
  model_->Fit(x, y);
  if (options.train_quality_model) {
    quality_model_ = MakeModel(options.model_type, options.seed + 1);
    quality_model_->Fit(x, quality_y);
  } else {
    quality_model_.reset();
  }
  breakdown.fit_seconds = fit_timer.Seconds();
  MMetrics().training_rows.Set(static_cast<double>(breakdown.training_rows));
  return breakdown;
}

double FxrzModel::EstimatePsnr(const Tensor& data,
                               double target_ratio) const {
  FXRZ_CHECK(has_quality_model())
      << "EstimatePsnr needs train_quality_model at training time";
  FXRZ_CHECK_GT(target_ratio, 0.0);
  return quality_model_->Predict(BuildInputs(data, target_ratio));
}

std::vector<double> FxrzModel::ValidTargetRatios(int n, double margin) const {
  FXRZ_CHECK(trained());
  FXRZ_CHECK_GE(n, 1);
  const double lo = std::log10(std::max(ratio_min_, 1.01));
  const double hi = std::log10(std::max(ratio_max_, 1.02));
  const double trimmed_lo = lo + margin * (hi - lo);
  const double trimmed_hi = hi - margin * (hi - lo);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double f = n == 1 ? 0.5 : static_cast<double>(i) / (n - 1);
    out.push_back(std::pow(10.0, trimmed_lo + f * (trimmed_hi - trimmed_lo)));
  }
  return out;
}

TensorAnalysis FxrzModel::Analyze(const Tensor& data) const {
  return analysis_cache_.Get(data, options_.features, options_.use_ca,
                             options_.ca);
}

std::vector<double> FxrzModel::BuildInputs(const Tensor& data,
                                           double target_ratio) const {
  const TensorAnalysis analysis = Analyze(data);
  std::vector<double> inputs =
      MaskFeatures(FeatureModelInputs(analysis.features),
                   options_.feature_mask);
  const double r = analysis.has_ca ? analysis.ca.non_constant_ratio : 1.0;
  const double acr = AdjustTargetRatio(target_ratio, r);
  inputs.push_back(std::log10(std::max(acr, 1e-3)));
  return inputs;
}

double FxrzModel::EstimateConfig(const Tensor& data,
                                 double target_ratio) const {
  FXRZ_TRACE_SPAN("model.estimate");
  MMetrics().estimates.Increment();
  FXRZ_CHECK(trained()) << "EstimateConfig before Train/Load";
  FXRZ_CHECK_GT(target_ratio, 0.0);
  const std::vector<double> inputs = BuildInputs(data, target_ratio);
  double knob = model_->Predict(inputs);
  knob = std::clamp(knob, knob_min_, knob_max_);
  return FromKnob(knob);
}

FxrzModel::ConfidentEstimate FxrzModel::EstimateWithConfidence(
    const Tensor& data, double target_ratio) const {
  FXRZ_TRACE_SPAN("model.estimate");
  MMetrics().estimates.Increment();
  FXRZ_CHECK(trained()) << "EstimateWithConfidence before Train/Load";
  FXRZ_CHECK_GT(target_ratio, 0.0);
  const std::vector<double> inputs = BuildInputs(data, target_ratio);
  ConfidentEstimate est;
  PredictionStats stats;
  double knob;
  if (model_->PredictWithStats(inputs, &stats)) {
    knob = stats.mean;
    est.has_spread = true;
    est.knob_spread = stats.stddev;
  } else {
    knob = model_->Predict(inputs);
  }
  if (input_min_.size() == inputs.size()) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const double scale = std::max(input_max_[i] - input_min_[i], 0.5);
      double excess = 0.0;
      if (inputs[i] < input_min_[i]) excess = input_min_[i] - inputs[i];
      if (inputs[i] > input_max_[i]) excess = inputs[i] - input_max_[i];
      est.envelope_excess = std::max(est.envelope_excess, excess / scale);
    }
    est.in_envelope = est.envelope_excess == 0.0;
  }
  if (fault::Hit(fault::Site::kModelQuery)) {
    // Simulated mis-estimate: push the prediction to whichever edge of the
    // trained knob range is farther from it.
    knob = (knob - knob_min_ < knob_max_ - knob) ? knob_max_ : knob_min_;
  }
  knob = std::clamp(knob, knob_min_, knob_max_);
  est.config = FromKnob(knob);
  return est;
}

double FxrzModel::RefineConfig(const Tensor& data, double target_ratio,
                               double tried_config,
                               double measured_ratio) const {
  FXRZ_TRACE_SPAN("model.refine");
  MMetrics().refines.Increment();
  FXRZ_CHECK(trained());
  FXRZ_CHECK_GT(target_ratio, 0.0);
  FXRZ_CHECK_GT(measured_ratio, 0.0);
  // Knob the model assigns to the ratio we actually observed.
  const double knob_for_measured =
      ToKnob(EstimateConfig(data, measured_ratio));
  const double knob_tried = ToKnob(tried_config);
  const double knob_for_target = ToKnob(EstimateConfig(data, target_ratio));
  // Shift hypothesis: the real curve is the model curve displaced by
  // (knob_tried - knob_for_measured) in knob space.
  double corrected =
      knob_for_target + (knob_tried - knob_for_measured);
  corrected = std::clamp(corrected, knob_min_ - 0.5, knob_max_ + 0.5);
  return FromKnob(corrected);
}

Status FxrzModel::SaveToBytes(std::vector<uint8_t>* out) const {
  FXRZ_CHECK(out != nullptr);
  if (!trained()) return Status::InvalidArgument("model not trained");
  const auto* rfr = dynamic_cast<const RandomForestRegressor*>(model_.get());
  if (rfr == nullptr) {
    return Status::InvalidArgument("only RandomForest models are persistable");
  }
  AppendUint32(out, kModelMagic);
  out->push_back(log_scale_ ? 1 : 0);
  out->push_back(integer_ ? 1 : 0);
  out->push_back(options_.use_ca ? 1 : 0);
  AppendUint32(out, static_cast<uint32_t>(options_.features.stride));
  AppendDouble(out, options_.ca.lambda);
  AppendDouble(out, knob_min_);
  AppendDouble(out, knob_max_);
  AppendDouble(out, ratio_min_);
  AppendDouble(out, ratio_max_);
  AppendUint32(out, options_.feature_mask);
  AppendUint32(out, static_cast<uint32_t>(input_min_.size()));
  for (size_t i = 0; i < input_min_.size(); ++i) {
    AppendDouble(out, input_min_[i]);
    AppendDouble(out, input_max_[i]);
  }
  rfr->Serialize(out);
  return Status::Ok();
}

Status FxrzModel::LoadFromBytes(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint32_t magic = 0;
  if (!reader.ReadU32(&magic) || magic != kModelMagic) {
    return Status::Corruption("fxrz model: bad magic");
  }
  uint8_t log_scale = 0, integer = 0, use_ca = 0;
  uint32_t stride = 0;
  if (!reader.ReadU8(&log_scale) || !reader.ReadU8(&integer) ||
      !reader.ReadU8(&use_ca) || !reader.ReadU32(&stride)) {
    return Status::Corruption("fxrz model: short stream");
  }
  if (stride == 0 || stride > 64) {
    return Status::Corruption("fxrz model: bad stride");
  }
  log_scale_ = log_scale != 0;
  integer_ = integer != 0;
  options_ = FxrzTrainingOptions();
  analysis_cache_.Clear();
  options_.use_ca = use_ca != 0;
  options_.features.stride = stride;
  if (!reader.ReadF64(&options_.ca.lambda) || !reader.ReadF64(&knob_min_) ||
      !reader.ReadF64(&knob_max_) || !reader.ReadF64(&ratio_min_) ||
      !reader.ReadF64(&ratio_max_) ||
      !reader.ReadU32(&options_.feature_mask)) {
    return Status::Corruption("fxrz model: short stream");
  }
  uint32_t envelope_size = 0;
  if (!reader.ReadU32(&envelope_size)) {
    return Status::Corruption("fxrz model: short stream");
  }
  if (envelope_size > 64) {
    return Status::Corruption("fxrz model: implausible envelope size");
  }
  input_min_.assign(envelope_size, 0.0);
  input_max_.assign(envelope_size, 0.0);
  for (uint32_t i = 0; i < envelope_size; ++i) {
    if (!reader.ReadF64(&input_min_[i]) || !reader.ReadF64(&input_max_[i])) {
      return Status::Corruption("fxrz model: short envelope");
    }
    if (input_min_[i] > input_max_[i]) {
      return Status::Corruption("fxrz model: inverted envelope");
    }
  }
  auto rfr = std::make_unique<RandomForestRegressor>();
  size_t consumed = 0;
  FXRZ_RETURN_IF_ERROR(
      rfr->Deserialize(reader.cursor(), reader.remaining(), &consumed));
  model_ = std::move(rfr);
  return Status::Ok();
}

Status FxrzModel::SaveToFile(const std::string& path) const {
  // Checksummed container + atomic persistence (see store/container.h):
  // model files are verified at load and a crash mid-save never leaves a
  // half-written model that parses.
  std::vector<uint8_t> bytes;
  FXRZ_RETURN_IF_ERROR(SaveToBytes(&bytes));
  return WriteContainerFile(path, kSectionModel, std::move(bytes));
}

Status FxrzModel::LoadFromFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  FXRZ_RETURN_IF_ERROR(ReadContainerFile(path, kSectionModel, &bytes));
  return LoadFromBytes(bytes.data(), bytes.size());
}

}  // namespace fxrz
