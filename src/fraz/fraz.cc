#include "src/fraz/fraz.h"

#include <algorithm>
#include <cmath>

#include "src/data/statistics.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace fxrz {

FrazResult FrazSearch(const Compressor& compressor, const Tensor& data,
                      double target_ratio, const FrazOptions& options) {
  FXRZ_CHECK_GT(target_ratio, 0.0);
  FXRZ_CHECK_GE(options.num_bins, 1);
  FXRZ_CHECK_GE(options.total_max_iterations, options.num_bins);

  const ConfigSpace space = compressor.config_space(ValueRange(data));
  const double knob_lo = space.log_scale ? std::log10(space.min) : space.min;
  const double knob_hi = space.log_scale ? std::log10(space.max) : space.max;

  FrazResult result;
  WallTimer timer;
  double best_err = -1.0;

  auto finish = [&] {
    result.search_seconds = timer.Seconds();
    return std::move(result);
  };

  // One compressor run at `knob`; *err receives its relative ratio error.
  // Returns false when the search must end: a failed run (its Status lands
  // in result.status), or a best probe already within tolerance.
  auto probe = [&](double knob, double* err) -> bool {
    double config = space.log_scale ? std::pow(10.0, knob) : knob;
    config = std::clamp(config, space.min, space.max);
    if (space.integer) config = std::round(config);
    StatusOr<std::vector<uint8_t>> archive = compressor.Compress(data, config);
    if (!archive.ok()) {
      result.status = archive.status();
      return false;
    }
    ++result.compressor_runs;
    const double ratio = static_cast<double>(data.size_bytes()) /
                         static_cast<double>(archive.value().size());
    *err = std::fabs(ratio - target_ratio) / target_ratio;
    if (best_err < 0 || *err < best_err) {
      best_err = *err;
      result.config = config;
      result.achieved_ratio = ratio;
    }
    return best_err > options.tolerance;
  };

  const int iters_per_bin =
      std::max(1, options.total_max_iterations / options.num_bins);
  const double bin_width = (knob_hi - knob_lo) / options.num_bins;

  // FRaZ treats the compressor as a black box (it is generic over any
  // error-control knob), so the per-bin search may not exploit the
  // monotonicity of ratio-vs-knob. Like FRaZ's dlib-based optimizer, each
  // bin spends part of its budget exploring (uniform probes) and the rest
  // exploiting (pattern search around the best probe).
  for (int bin = 0; bin < options.num_bins; ++bin) {
    const double lo = knob_lo + bin * bin_width;
    const double hi = lo + bin_width;
    const int explore = std::max(1, (iters_per_bin + 1) / 2);
    double bin_best_knob = lo;
    double bin_best_err = -1.0;
    for (int i = 0; i < explore; ++i) {
      const double f =
          explore == 1 ? 0.5 : static_cast<double>(i) / (explore - 1);
      const double knob = lo + (0.25 + 0.5 * f) * (hi - lo);
      double err = 0.0;
      if (!probe(knob, &err)) return finish();
      if (bin_best_err < 0 || err < bin_best_err) {
        bin_best_err = err;
        bin_best_knob = knob;
      }
    }
    // Exploitation: probe alternating sides of the best knob with a
    // halving step.
    double step = (hi - lo) / (2.0 * explore);
    int sign = 1;
    for (int it = explore; it < iters_per_bin; ++it) {
      const double knob =
          std::clamp(bin_best_knob + sign * step, knob_lo, knob_hi);
      double err = 0.0;
      if (!probe(knob, &err)) return finish();
      if (err < bin_best_err) {
        bin_best_err = err;
        bin_best_knob = knob;
      } else {
        // Try the other side next, then shrink.
        if (sign < 0) step *= 0.5;
        sign = -sign;
      }
    }
  }
  return finish();
}

}  // namespace fxrz
