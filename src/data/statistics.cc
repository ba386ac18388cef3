#include "src/data/statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "src/util/check.h"

namespace fxrz {

SummaryStats ComputeSummary(const Tensor& t) {
  FXRZ_CHECK(!t.empty());
  SummaryStats s;
  double sum = 0.0;
  double lo = t[0], hi = t[0];
  for (size_t i = 0; i < t.size(); ++i) {
    const double v = t[i];
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  s.min = lo;
  s.max = hi;
  s.mean = sum / static_cast<double>(t.size());
  s.value_range = hi - lo;
  double var = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    const double d = t[i] - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(t.size()));
  return s;
}

double ValueRange(const Tensor& t) {
  FXRZ_CHECK(!t.empty());
  double lo = t[0], hi = t[0];
  for (size_t i = 0; i < t.size(); ++i) {
    const double v = t[i];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  FXRZ_CHECK_EQ(x.size(), y.size());
  FXRZ_CHECK(!x.empty());
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

DistortionStats ComputeDistortion(const Tensor& original,
                                  const Tensor& reconstructed) {
  FXRZ_CHECK(original.dims() == reconstructed.dims());
  FXRZ_CHECK(!original.empty());
  DistortionStats d;
  double sse = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  size_t finite_pairs = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    const double o = original[i];
    const double r = reconstructed[i];
    // Non-finite policy (see statistics.h): skip pairs either side of
    // which is NaN/Inf instead of poisoning the sums.
    if (!std::isfinite(o) || !std::isfinite(r)) {
      ++d.nonfinite_skipped;
      continue;
    }
    const double err = o - r;
    d.max_abs_error = std::max(d.max_abs_error, std::fabs(err));
    sse += err * err;
    lo = std::min(lo, o);
    hi = std::max(hi, o);
    ++finite_pairs;
  }
  if (finite_pairs == 0) {
    d.psnr = 999.0;
    return d;
  }
  d.mse = sse / static_cast<double>(finite_pairs);
  d.rmse = std::sqrt(d.mse);
  const double range = hi - lo;
  d.nrmse = range > 0 ? d.rmse / range : 0.0;
  if (d.rmse <= 0 || range <= 0) {
    d.psnr = 999.0;
  } else {
    d.psnr = std::min(999.0, 20.0 * std::log10(range / d.rmse));
  }
  return d;
}

std::vector<size_t> Histogram(const Tensor& t, size_t bins) {
  FXRZ_CHECK(!t.empty());
  FXRZ_CHECK_GT(bins, 0u);
  const SummaryStats s = ComputeSummary(t);
  std::vector<size_t> counts(bins, 0);
  const double range = s.value_range > 0 ? s.value_range : 1.0;
  for (size_t i = 0; i < t.size(); ++i) {
    double pos = (t[i] - s.min) / range * static_cast<double>(bins);
    size_t b = static_cast<size_t>(std::min<double>(
        std::max(pos, 0.0), static_cast<double>(bins - 1)));
    ++counts[b];
  }
  return counts;
}

std::vector<size_t> FindLocalMaxima3D(const Tensor& t, float threshold) {
  FXRZ_CHECK_EQ(t.rank(), 3u);
  const size_t nz = t.dim(0), ny = t.dim(1), nx = t.dim(2);
  std::vector<size_t> maxima;
  for (size_t z = 1; z + 1 < nz; ++z) {
    for (size_t y = 1; y + 1 < ny; ++y) {
      for (size_t x = 1; x + 1 < nx; ++x) {
        const size_t off = (z * ny + y) * nx + x;
        const float v = t[off];
        if (v <= threshold) continue;
        if (v > t[off - 1] && v > t[off + 1] && v > t[off - nx] &&
            v > t[off + nx] && v > t[off - nx * ny] && v > t[off + nx * ny]) {
          maxima.push_back(off);
        }
      }
    }
  }
  return maxima;
}

double MaximaDisplacementFraction(const Tensor& original,
                                  const Tensor& reconstructed,
                                  float threshold) {
  FXRZ_CHECK(original.dims() == reconstructed.dims());
  const std::vector<size_t> orig = FindLocalMaxima3D(original, threshold);
  if (orig.empty()) return 0.0;
  const std::vector<size_t> rec = FindLocalMaxima3D(reconstructed, threshold);
  std::unordered_set<size_t> rec_set(rec.begin(), rec.end());
  size_t preserved = 0;
  for (size_t off : orig) {
    if (rec_set.count(off)) ++preserved;
  }
  return 1.0 - static_cast<double>(preserved) / static_cast<double>(orig.size());
}

}  // namespace fxrz
