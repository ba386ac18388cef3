#include "src/core/features.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/data/sampling.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

// lock-free: relaxed monotonic call counter (test observability only).
std::atomic<uint64_t> g_extract_count{0};

// Signed log compression for features that may be negative (mean value).
double SignedLog(double v) {
  return v >= 0 ? std::log10(1.0 + v) : -std::log10(1.0 - v);
}

double Log(double v) { return std::log10(v + 1e-12); }

// Iterates a tensor with a multi-index odometer, calling fn(idx, linear).
// Only used by the legacy reference extractor below.
template <typename Fn>
void ForEachIndex(const Tensor& t, Fn&& fn) {
  std::vector<size_t> idx(t.rank(), 0);
  for (size_t lin = 0; lin < t.size(); ++lin) {
    fn(idx, lin);
    for (size_t d = t.rank(); d-- > 0;) {
      if (++idx[d] < t.dim(d)) break;
      idx[d] = 0;
    }
  }
}

// Partial sums of every fused feature over one slab. Slabs are fixed-size
// blocks of the outer dimension chosen from the shape alone, and partials
// are merged in slab order, so the final result does not depend on how the
// slabs were scheduled across threads.
struct FeatureAccum {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  double mnd = 0.0, mld = 0.0, msd = 0.0, grad = 0.0;
  double grad_min = std::numeric_limits<double>::infinity();
  double grad_max = 0.0;
  size_t finite_n = 0;  // samples contributing to range/mean
  size_t mnd_n = 0, mld_n = 0, msd_n = 0, grad_n = 0;

  void Merge(const FeatureAccum& o) {
    lo = std::min(lo, o.lo);
    hi = std::max(hi, o.hi);
    sum += o.sum;
    mnd += o.mnd;
    mld += o.mld;
    msd += o.msd;
    grad += o.grad;
    finite_n += o.finite_n;
    mnd_n += o.mnd_n;
    mld_n += o.mld_n;
    msd_n += o.msd_n;
    grad_n += o.grad_n;
    grad_min = std::min(grad_min, o.grad_min);
    grad_max = std::max(grad_max, o.grad_max);
  }
};

// Fused sweep over the rows whose outer index lies in [i0_lo, i0_hi); for
// rank-1 tensors the range restricts the single dimension instead. All
// feature stencils read the full tensor (neighbor reads may cross slab
// borders); only `a` is written.
void AccumulateSlab(const Tensor& s, size_t i0_lo, size_t i0_hi,
                    FeatureAccum* a) {
  const size_t rank = s.rank();
  const float* p = s.data();
  size_t dim[Tensor::kMaxRank] = {1, 1, 1, 1};
  size_t st[Tensor::kMaxRank] = {0, 0, 0, 0};
  {
    const std::vector<size_t> strides = s.Strides();
    for (size_t d = 0; d < rank; ++d) {
      dim[d] = s.dim(d);
      st[d] = strides[d];
    }
  }
  const size_t nx = dim[rank - 1];
  const size_t nd = std::min<size_t>(rank, 3);  // Lorenzo dimensionality
  const size_t lead = rank - nd;
  const ptrdiff_t sy = rank >= 2 ? static_cast<ptrdiff_t>(st[rank - 2]) : 0;
  const ptrdiff_t sz = rank >= 3 ? static_cast<ptrdiff_t>(st[rank - 3]) : 0;

  size_t idx[Tensor::kMaxRank] = {i0_lo, 0, 0, 0};
  const bool rank1 = rank == 1;
  const size_t x_begin = rank1 ? i0_lo : 0;
  const size_t x_end = rank1 ? i0_hi : nx;

  while (rank1 || idx[0] < i0_hi) {
    // Per-row setup: flat base offset plus the row-invariant parts of each
    // stencil (which neighbors exist along the non-last dimensions).
    size_t base = 0;
    for (size_t d = 0; d + 1 < rank; ++d) base += idx[d] * st[d];

    // MND neighbor offsets along non-last dimensions, in dimension order.
    ptrdiff_t noff[2 * (Tensor::kMaxRank - 1)];
    int nn = 0;
    for (size_t d = 0; d + 1 < rank; ++d) {
      if (idx[d] > 0) noff[nn++] = -static_cast<ptrdiff_t>(st[d]);
      if (idx[d] + 1 < dim[d]) noff[nn++] = static_cast<ptrdiff_t>(st[d]);
    }

    // Lorenzo: all its dimensions except the last must be interior here;
    // the last dimension is checked per element (x >= 1).
    bool lorenzo_row = true;
    for (size_t d = lead; d + 1 < rank; ++d) {
      if (idx[d] == 0) {
        lorenzo_row = false;
        break;
      }
    }

    // Spline strides for the non-last dimensions where the +-3 stencil
    // fits, in dimension order (the last dimension is appended per element).
    ptrdiff_t spl[Tensor::kMaxRank - 1];
    int nspl = 0;
    for (size_t d = 0; d + 1 < rank; ++d) {
      if (idx[d] >= 3 && idx[d] + 3 < dim[d]) {
        spl[nspl++] = static_cast<ptrdiff_t>(st[d]);
      }
    }

    const float* row = p + base;
    for (size_t x = x_begin; x < x_end; ++x) {
      const float* e = row + x;
      const double v = *e;

      // Non-finite policy (see features.h): skip NaN/Inf samples and any
      // stencil whose contribution is poisoned by one.
      if (std::isfinite(v)) {
        a->lo = std::min(a->lo, v);
        a->hi = std::max(a->hi, v);
        a->sum += v;
        ++a->finite_n;
      }

      // MND: |v - mean(adjacent neighbors along every dimension)|.
      {
        double nsum = 0.0;
        int n = nn;
        for (int k = 0; k < nn; ++k) nsum += e[noff[k]];
        if (x > 0) {
          nsum += e[-1];
          ++n;
        }
        if (x + 1 < nx) {
          nsum += e[1];
          ++n;
        }
        if (n > 0) {
          const double contrib = std::fabs(v - nsum / static_cast<double>(n));
          if (std::isfinite(contrib)) {
            a->mnd += contrib;
            ++a->mnd_n;
          }
        }
      }

      // MLD: |v - Lorenzo prediction| over the last min(3, rank) dims
      // (paper Eq. 1 and 2). Only fully interior points participate.
      if (lorenzo_row && x >= 1) {
        double pred;
        switch (nd) {
          case 1:
            pred = e[-1];
            break;
          case 2:
            pred = static_cast<double>(e[-1]) + e[-sy] - e[-sy - 1];
            break;
          default:
            pred = static_cast<double>(e[-1]) + e[-sy] + e[-sz] -
                   e[-sy - 1] - e[-sz - 1] - e[-sz - sy] + e[-sz - sy - 1];
            break;
        }
        const double contrib = std::fabs(v - pred);
        if (std::isfinite(contrib)) {
          a->mld += contrib;
          ++a->mld_n;
        }
      }

      // MSD: 4-point cubic-spline fit -1/16, 9/16, 9/16, -1/16 at offsets
      // -3, -1, +1, +3 along each dimension where the stencil fits (paper
      // Eq. 3), averaged across those dimensions.
      {
        double fit_sum = 0.0;
        int dims_used = nspl;
        for (int k = 0; k < nspl; ++k) {
          const ptrdiff_t sd = spl[k];
          const double fit = -1.0 / 16.0 * e[-3 * sd] +
                             9.0 / 16.0 * e[-sd] + 9.0 / 16.0 * e[sd] -
                             1.0 / 16.0 * e[3 * sd];
          fit_sum += fit;
        }
        if (x >= 3 && x + 3 < nx) {
          const double fit = -1.0 / 16.0 * e[-3] + 9.0 / 16.0 * e[-1] +
                             9.0 / 16.0 * e[1] - 1.0 / 16.0 * e[3];
          fit_sum += fit;
          ++dims_used;
        }
        if (dims_used > 0) {
          const double contrib =
              std::fabs(v - fit_sum / static_cast<double>(dims_used));
          if (std::isfinite(contrib)) {
            a->msd += contrib;
            ++a->msd_n;
          }
        }
      }

      // Gradient: |v - previous value| along the fastest dimension.
      if (x > 0) {
        const double g = std::fabs(e[0] - e[-1]);
        if (std::isfinite(g)) {
          a->grad += g;
          a->grad_min = std::min(a->grad_min, g);
          a->grad_max = std::max(a->grad_max, g);
          ++a->grad_n;
        }
      }
    }

    if (rank1) break;
    // Advance the prefix odometer (dims [0, rank-1), last prefix fastest).
    size_t d = rank - 1;
    for (;;) {
      --d;
      ++idx[d];
      if (d == 0 || idx[d] < dim[d]) break;
      idx[d] = 0;
    }
  }
}

FeatureVector Finalize(const FeatureAccum& t) {
  FeatureVector f;
  // No finite samples at all: report all-zero features rather than the
  // -inf range the empty extrema would produce.
  f.value_range = t.finite_n ? t.hi - t.lo : 0.0;
  f.mean_value = t.finite_n ? t.sum / static_cast<double>(t.finite_n) : 0.0;
  f.mnd = t.mnd_n ? t.mnd / static_cast<double>(t.mnd_n) : 0.0;
  f.mld = t.mld_n ? t.mld / static_cast<double>(t.mld_n) : 0.0;
  f.msd = t.msd_n ? t.msd / static_cast<double>(t.msd_n) : 0.0;
  f.mean_gradient = t.grad_n ? t.grad / static_cast<double>(t.grad_n) : 0.0;
  f.min_gradient = t.grad_n ? t.grad_min : 0.0;
  f.max_gradient = t.grad_max;
  return f;
}

}  // namespace

uint64_t FeatureExtractionCount() {
  return g_extract_count.load(std::memory_order_relaxed);
}

FeatureVector ExtractFeatures(const Tensor& data,
                              const FeatureOptions& options) {
  FXRZ_CHECK(!data.empty());
  FXRZ_CHECK_GT(options.stride, 0u);
  g_extract_count.fetch_add(1, std::memory_order_relaxed);
  const Tensor s = StrideSample(data, options.stride);

  // Fixed-size slab decomposition of the outer dimension. The slab size
  // depends only on the shape, never on the thread count, so the ordered
  // merge below is bit-identical for serial and parallel runs.
  constexpr size_t kMinSlabElems = 4096;
  const size_t d0 = s.dim(0);
  const size_t inner = s.size() / d0;
  const size_t slab_rows =
      std::max<size_t>(1, (kMinSlabElems + inner - 1) / inner);
  const size_t num_slabs = (d0 + slab_rows - 1) / slab_rows;

  std::vector<FeatureAccum> partials(num_slabs);
  auto run_slab = [&](size_t i) {
    const size_t lo = i * slab_rows;
    const size_t hi = std::min(d0, lo + slab_rows);
    AccumulateSlab(s, lo, hi, &partials[i]);
  };
  ParallelFor(SharedThreadPool(), 0, num_slabs, run_slab, /*grain=*/1);

  FeatureAccum total;
  for (const FeatureAccum& p : partials) total.Merge(p);
  return Finalize(total);
}

FeatureVector ExtractFeaturesReference(const Tensor& data,
                                       const FeatureOptions& options) {
  FXRZ_CHECK(!data.empty());
  FXRZ_CHECK_GT(options.stride, 0u);
  const Tensor s = StrideSample(data, options.stride);
  const std::vector<size_t> strides = s.Strides();
  const size_t rank = s.rank();

  FeatureVector f;

  // Range and mean (finite samples only; see the non-finite policy in
  // features.h).
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  size_t finite_n = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const double v = s[i];
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
    ++finite_n;
  }
  f.value_range = finite_n ? hi - lo : 0.0;
  f.mean_value = finite_n ? sum / static_cast<double>(finite_n) : 0.0;

  // MND: |v - mean(adjacent neighbors along every dimension)|.
  {
    double acc = 0.0;
    size_t count = 0;
    ForEachIndex(s, [&](const std::vector<size_t>& idx, size_t lin) {
      double nsum = 0.0;
      size_t n = 0;
      for (size_t d = 0; d < rank; ++d) {
        if (idx[d] > 0) {
          nsum += s[lin - strides[d]];
          ++n;
        }
        if (idx[d] + 1 < s.dim(d)) {
          nsum += s[lin + strides[d]];
          ++n;
        }
      }
      if (n > 0) {
        const double contrib =
            std::fabs(s[lin] - nsum / static_cast<double>(n));
        if (std::isfinite(contrib)) {
          acc += contrib;
          ++count;
        }
      }
    });
    f.mnd = count ? acc / static_cast<double>(count) : 0.0;
  }

  // MLD: |v - Lorenzo prediction| over the last min(3, rank) dims
  // (paper Eq. 1 and 2). Only fully interior points participate.
  {
    const size_t nd = std::min<size_t>(rank, 3);
    const size_t lead = rank - nd;
    double acc = 0.0;
    size_t count = 0;
    ForEachIndex(s, [&](const std::vector<size_t>& idx, size_t lin) {
      for (size_t d = lead; d < rank; ++d) {
        if (idx[d] == 0) return;
      }
      auto v = [&](size_t b0, size_t b1, size_t b2) -> double {
        const size_t backs[3] = {b0, b1, b2};
        size_t l = lin;
        for (size_t k = 0; k < nd; ++k) {
          l -= backs[3 - nd + k] * strides[lead + k];
        }
        return s[l];
      };
      double pred;
      switch (nd) {
        case 1:
          pred = v(0, 0, 1);
          break;
        case 2:
          pred = v(0, 0, 1) + v(0, 1, 0) - v(0, 1, 1);
          break;
        default:
          pred = v(0, 0, 1) + v(0, 1, 0) + v(1, 0, 0) - v(0, 1, 1) -
                 v(1, 0, 1) - v(1, 1, 0) + v(1, 1, 1);
          break;
      }
      const double contrib = std::fabs(s[lin] - pred);
      if (std::isfinite(contrib)) {
        acc += contrib;
        ++count;
      }
    });
    f.mld = count ? acc / static_cast<double>(count) : 0.0;
  }

  // MSD: 4-point cubic-spline fit -1/16, 9/16, 9/16, -1/16 at offsets
  // -3, -1, +1, +3 along each dimension (paper Eq. 3), averaged across the
  // dimensions where the stencil fits.
  {
    double acc = 0.0;
    size_t count = 0;
    ForEachIndex(s, [&](const std::vector<size_t>& idx, size_t lin) {
      double fit_sum = 0.0;
      size_t dims_used = 0;
      for (size_t d = 0; d < rank; ++d) {
        if (idx[d] < 3 || idx[d] + 3 >= s.dim(d)) continue;
        const double fit = -1.0 / 16.0 * s[lin - 3 * strides[d]] +
                           9.0 / 16.0 * s[lin - strides[d]] +
                           9.0 / 16.0 * s[lin + strides[d]] -
                           1.0 / 16.0 * s[lin + 3 * strides[d]];
        fit_sum += fit;
        ++dims_used;
      }
      if (dims_used > 0) {
        const double contrib =
            std::fabs(s[lin] - fit_sum / static_cast<double>(dims_used));
        if (std::isfinite(contrib)) {
          acc += contrib;
          ++count;
        }
      }
    });
    f.msd = count ? acc / static_cast<double>(count) : 0.0;
  }

  // Gradient features: |v - previous value| along the fastest dimension.
  {
    double acc = 0.0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = 0.0;
    size_t count = 0;
    const size_t last = rank - 1;
    ForEachIndex(s, [&](const std::vector<size_t>& idx, size_t lin) {
      if (idx[last] == 0) return;
      const double g = std::fabs(s[lin] - s[lin - 1]);
      if (!std::isfinite(g)) return;
      acc += g;
      mn = std::min(mn, g);
      mx = std::max(mx, g);
      ++count;
    });
    f.mean_gradient = count ? acc / static_cast<double>(count) : 0.0;
    f.min_gradient = count ? mn : 0.0;
    f.max_gradient = mx;
  }

  return f;
}

std::vector<double> FeatureModelInputs(const FeatureVector& f) {
  return {Log(f.value_range), SignedLog(f.mean_value), Log(f.mnd), Log(f.mld),
          Log(f.msd)};
}

double FeatureByName(const FeatureVector& f, const std::string& name) {
  if (name == "value_range") return f.value_range;
  if (name == "mean_value") return f.mean_value;
  if (name == "mnd") return f.mnd;
  if (name == "mld") return f.mld;
  if (name == "msd") return f.msd;
  if (name == "mean_gradient") return f.mean_gradient;
  if (name == "min_gradient") return f.min_gradient;
  if (name == "max_gradient") return f.max_gradient;
  FXRZ_CHECK(false) << "unknown feature: " << name;
  return 0.0;
}

std::vector<std::string> AllFeatureNames() {
  return {"value_range",  "mean_value",   "mnd", "mld", "msd",
          "mean_gradient", "min_gradient", "max_gradient"};
}

}  // namespace fxrz
