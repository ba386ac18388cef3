#include "src/core/augmentation.h"

#include <algorithm>
#include <cmath>

#include "src/data/statistics.h"
#include "src/util/check.h"

namespace fxrz {

std::vector<StationaryPoint> CollectStationaryPoints(
    const Compressor& compressor, const Tensor& data,
    const AugmentationOptions& options) {
  FXRZ_CHECK_GE(options.num_stationary_points, 2);
  const ConfigSpace space = compressor.config_space(ValueRange(data));

  std::vector<StationaryPoint> points;
  points.reserve(options.num_stationary_points);
  const int n = options.num_stationary_points;
  double prev_config = 0.0;
  bool have_prev = false;
  for (int i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / (n - 1);
    double config;
    if (space.log_scale) {
      config = std::pow(10.0, std::log10(space.min) +
                                  f * (std::log10(space.max) -
                                       std::log10(space.min)));
    } else {
      config = space.min + f * (space.max - space.min);
    }
    if (space.integer) config = std::round(config);
    if (have_prev && config == prev_config) continue;  // integer collisions
    prev_config = config;
    have_prev = true;
    StationaryPoint point;
    point.config = config;
    // Training has no Status to return: a failed codec run aborts it.
    const std::vector<uint8_t> bytes =
        compressor.Compress(data, config).value();
    point.ratio = static_cast<double>(data.size_bytes()) /
                  static_cast<double>(bytes.size());
    if (options.measure_quality) {
      Tensor rec;
      const Status st = compressor.Decompress(bytes.data(), bytes.size(), &rec);
      FXRZ_CHECK(st.ok()) << st.ToString();
      point.psnr = ComputeDistortion(data, rec).psnr;
    }
    points.push_back(point);
  }
  return points;
}

std::vector<double> ProbeValidTargetRatios(const Compressor& compressor,
                                           const Tensor& data, int n,
                                           double margin, int probes) {
  FXRZ_CHECK_GE(n, 1);
  AugmentationOptions opts;
  opts.num_stationary_points = std::max(probes, 2);
  const auto points = CollectStationaryPoints(compressor, data, opts);
  double lo = points.front().ratio, hi = points.front().ratio;
  for (const auto& p : points) {
    lo = std::min(lo, p.ratio);
    hi = std::max(hi, p.ratio);
  }
  const double log_lo = std::log10(std::max(lo, 1.01));
  const double log_hi = std::log10(std::max(hi, 1.02));
  const double a = log_lo + margin * (log_hi - log_lo);
  const double b = log_hi - margin * (log_hi - log_lo);
  std::vector<double> targets;
  targets.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double f = n == 1 ? 0.5 : static_cast<double>(i) / (n - 1);
    targets.push_back(std::pow(10.0, a + f * (b - a)));
  }
  return targets;
}

RatioConfigCurve::RatioConfigCurve(std::vector<StationaryPoint> points,
                                   ConfigSpace space)
    : space_(space) {
  FXRZ_CHECK_GE(points.size(), 2u);
  std::sort(points.begin(), points.end(),
            [](const StationaryPoint& a, const StationaryPoint& b) {
              return a.config < b.config;
            });

  // Enforce ratio monotonicity along the config axis: running max when the
  // ratio increases with the knob, running min otherwise. Measured ratios
  // are noisy at the bin level; flattening keeps the inverse well-defined.
  for (size_t i = 1; i < points.size(); ++i) {
    if (space_.ratio_increases) {
      points[i].ratio = std::max(points[i].ratio, points[i - 1].ratio);
    } else {
      points[i].ratio = std::min(points[i].ratio, points[i - 1].ratio);
    }
  }

  // Store sorted by ratio ascending.
  if (!space_.ratio_increases) {
    std::reverse(points.begin(), points.end());
  }
  ratios_.reserve(points.size());
  knobs_.reserve(points.size());
  for (const StationaryPoint& p : points) {
    // Deduplicate flat ratio runs, keeping the first (cheapest error bound
    // direction is immaterial: any config on the flat achieves the ratio).
    if (!ratios_.empty() && p.ratio <= ratios_.back()) continue;
    ratios_.push_back(p.ratio);
    knobs_.push_back(ToKnob(p.config));
  }
  if (ratios_.empty()) {
    // Fully flat curve: keep the extremes so lookups return something sane.
    ratios_.push_back(points.front().ratio);
    knobs_.push_back(ToKnob(points.front().config));
  }
  if (ratios_.size() == 1) {
    ratios_.push_back(ratios_[0] + 1e-9);
    knobs_.push_back(knobs_[0]);
  }
  min_ratio_ = ratios_.front();
  max_ratio_ = ratios_.back();
}

double RatioConfigCurve::FromKnob(double knob) const {
  double config = space_.log_scale ? std::pow(10.0, knob) : knob;
  config = std::clamp(config, space_.min, space_.max);
  if (space_.integer) config = std::round(config);
  return config;
}

double RatioConfigCurve::ToKnob(double config) const {
  return space_.log_scale ? std::log10(config) : config;
}

double RatioConfigCurve::ConfigForRatio(double ratio) const {
  const double r = std::clamp(ratio, min_ratio_, max_ratio_);
  const auto it = std::lower_bound(ratios_.begin(), ratios_.end(), r);
  if (it == ratios_.begin()) return FromKnob(knobs_.front());
  if (it == ratios_.end()) return FromKnob(knobs_.back());
  const size_t hi = static_cast<size_t>(it - ratios_.begin());
  const size_t lo = hi - 1;
  const double t = (r - ratios_[lo]) / (ratios_[hi] - ratios_[lo]);
  return FromKnob(knobs_[lo] + t * (knobs_[hi] - knobs_[lo]));
}

double RatioConfigCurve::RatioForConfig(double config) const {
  const double knob = ToKnob(std::clamp(config, space_.min, space_.max));
  // knobs_ is monotone in the same direction as ratios_ iff ratio_increases;
  // handle both directions with a linear scan (tiny arrays).
  const bool ascending = knobs_.back() >= knobs_.front();
  size_t lo = 0;
  for (size_t i = 0; i + 1 < knobs_.size(); ++i) {
    const double a = knobs_[i], b = knobs_[i + 1];
    if ((ascending && knob >= a && knob <= b) ||
        (!ascending && knob <= a && knob >= b)) {
      lo = i;
      const double denom = b - a;
      const double t = denom == 0.0 ? 0.0 : (knob - a) / denom;
      return ratios_[lo] + t * (ratios_[lo + 1] - ratios_[lo]);
    }
  }
  // Out of range: clamp.
  if ((ascending && knob < knobs_.front()) ||
      (!ascending && knob > knobs_.front())) {
    return ratios_.front();
  }
  return ratios_.back();
}

std::vector<StationaryPoint> RatioConfigCurve::SampleUniformRatios(
    int n) const {
  FXRZ_CHECK_GE(n, 1);
  std::vector<StationaryPoint> samples;
  samples.reserve(n);
  // Compression ratios span orders of magnitude; users ask for targets at
  // the low end as often as the high end. Half the samples are spaced
  // uniformly in log-ratio (resolution at low ratios), half linearly
  // (coverage at high ratios).
  const int n_log = n / 2;
  const int n_lin = n - n_log;
  const double lo = std::max(min_ratio_, 1e-3);
  const double log_lo = std::log10(lo);
  const double log_hi = std::log10(std::max(max_ratio_, lo * (1 + 1e-9)));
  for (int i = 0; i < n_log; ++i) {
    const double f = n_log == 1 ? 0.5 : static_cast<double>(i) / (n_log - 1);
    const double r = std::pow(10.0, log_lo + f * (log_hi - log_lo));
    samples.push_back({ConfigForRatio(r), r});
  }
  for (int i = 0; i < n_lin; ++i) {
    const double f = n_lin == 1 ? 0.5 : static_cast<double>(i) / (n_lin - 1);
    const double r = min_ratio_ + f * (max_ratio_ - min_ratio_);
    samples.push_back({ConfigForRatio(r), r});
  }
  return samples;
}

}  // namespace fxrz
