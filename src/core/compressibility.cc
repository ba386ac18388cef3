#include "src/core/compressibility.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "src/data/statistics.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

// lock-free: relaxed monotonic call counter (test observability only).
std::atomic<uint64_t> g_scan_count{0};

// Tiling geometry shared by the fused and reference scans: the last <=3
// dimensions are tiled, leading dimensions iterate as slices.
struct ScanGeometry {
  size_t num_slices = 1;
  size_t nz = 1, ny = 1, nx = 1;
  size_t nbz = 1, nby = 1, nbx = 1;
  size_t slice_elems = 1;
  size_t blocks_per_slice = 1;
};

ScanGeometry MakeGeometry(const Tensor& data, size_t b) {
  const size_t rank = data.rank();
  const size_t nd = std::min<size_t>(rank, 3);
  const size_t lead = rank - nd;
  ScanGeometry g;
  for (size_t i = 0; i < lead; ++i) g.num_slices *= data.dim(i);
  size_t dims[3] = {1, 1, 1};
  for (size_t i = 0; i < nd; ++i) dims[3 - nd + i] = data.dim(lead + i);
  g.nz = dims[0];
  g.ny = dims[1];
  g.nx = dims[2];
  g.nbz = (g.nz + b - 1) / b;
  g.nby = (g.ny + b - 1) / b;
  g.nbx = (g.nx + b - 1) / b;
  g.slice_elems = g.nz * g.ny * g.nx;
  g.blocks_per_slice = g.nbz * g.nby * g.nbx;
  return g;
}

}  // namespace

uint64_t ConstantBlockScanCount() {
  return g_scan_count.load(std::memory_order_relaxed);
}

BlockScanResult ScanConstantBlocks(const Tensor& data,
                                   const CaOptions& options) {
  FXRZ_CHECK(!data.empty());
  FXRZ_CHECK_GT(options.block, 0u);
  g_scan_count.fetch_add(1, std::memory_order_relaxed);

  const size_t b = options.block;
  const ScanGeometry g = MakeGeometry(data, b);

  // One fused memory-order pass gathers the global value sum and per-block
  // min/max. A unit is one (slice, z-block-row) pair: units own disjoint
  // blocks and disjoint contiguous element ranges, and their partial sums
  // merge in unit order, so the mean -- and hence the classification -- is
  // identical at any thread count.
  const size_t units = g.num_slices * g.nbz;
  std::vector<double> unit_sums(units, 0.0);
  const size_t total_blocks = g.num_slices * g.blocks_per_slice;
  std::vector<float> block_lo(total_blocks);
  std::vector<float> block_hi(total_blocks);

  auto scan_unit = [&](size_t u) {
    const size_t s = u / g.nbz;
    const size_t zb = u % g.nbz;
    const float* slice = data.data() + s * g.slice_elems;
    const size_t z0 = zb * b;
    const size_t z1 = std::min(z0 + b, g.nz);
    float* ulo = block_lo.data() + s * g.blocks_per_slice + zb * g.nby * g.nbx;
    float* uhi = block_hi.data() + s * g.blocks_per_slice + zb * g.nby * g.nbx;
    const size_t unit_blocks = g.nby * g.nbx;
    for (size_t i = 0; i < unit_blocks; ++i) {
      ulo[i] = std::numeric_limits<float>::infinity();
      uhi[i] = -std::numeric_limits<float>::infinity();
    }
    double sum = 0.0;
    for (size_t z = z0; z < z1; ++z) {
      for (size_t y = 0; y < g.ny; ++y) {
        float* wlo = ulo + (y / b) * g.nbx;
        float* whi = uhi + (y / b) * g.nbx;
        const float* p = slice + (z * g.ny + y) * g.nx;
        // Row sum with four independent accumulators: breaks the serial
        // add chain so the loop vectorizes. The lane grouping depends only
        // on the row length, never on the thread count.
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        size_t x = 0;
        for (; x + 4 <= g.nx; x += 4) {
          s0 += p[x];
          s1 += p[x + 1];
          s2 += p[x + 2];
          s3 += p[x + 3];
        }
        for (; x < g.nx; ++x) s0 += p[x];
        sum += (s0 + s1) + (s2 + s3);
        // Separate min/max sweep per x-block segment. Full segments get a
        // fixed-trip-count loop (b is 4 in the default geometry, so this
        // unrolls to a short reduction tree); only the ragged tail pays
        // the variable bound.
        const size_t full = g.nx / b;
        for (size_t bx = 0; bx < full; ++bx) {
          const float* q = p + bx * b;
          float lo = wlo[bx], hi = whi[bx];
          for (size_t k = 0; k < b; ++k) {
            lo = std::min(lo, q[k]);
            hi = std::max(hi, q[k]);
          }
          wlo[bx] = lo;
          whi[bx] = hi;
        }
        if (full * b < g.nx) {
          float lo = wlo[full], hi = whi[full];
          for (size_t xx = full * b; xx < g.nx; ++xx) {
            const float v = p[xx];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          wlo[full] = lo;
          whi[full] = hi;
        }
      }
    }
    unit_sums[u] = sum;
  };
  ParallelFor(SharedThreadPool(), 0, units, scan_unit, /*grain=*/1);

  double sum = 0.0;
  for (const double s : unit_sums) sum += s;
  const double mean = sum / static_cast<double>(data.size());
  const double threshold = options.lambda * std::fabs(mean);

  BlockScanResult result;
  result.total_blocks = total_blocks;
  for (size_t i = 0; i < total_blocks; ++i) {
    if (static_cast<double>(block_hi[i]) - block_lo[i] < threshold) {
      ++result.constant_blocks;
    }
  }
  const size_t non_constant = result.total_blocks - result.constant_blocks;
  // Guard: a fully constant dataset still needs a usable (nonzero) R.
  result.non_constant_ratio =
      std::max(1e-3, static_cast<double>(non_constant) /
                         static_cast<double>(result.total_blocks));
  return result;
}

BlockScanResult ScanConstantBlocksReference(const Tensor& data,
                                            const CaOptions& options) {
  FXRZ_CHECK(!data.empty());
  FXRZ_CHECK_GT(options.block, 0u);
  const SummaryStats stats = ComputeSummary(data);
  const double threshold = options.lambda * std::fabs(stats.mean);

  const size_t b = options.block;
  const ScanGeometry g = MakeGeometry(data, b);
  const size_t nz = g.nz, ny = g.ny, nx = g.nx;

  BlockScanResult result;
  for (size_t s = 0; s < g.num_slices; ++s) {
    const float* slice = data.data() + s * g.slice_elems;
    for (size_t z0 = 0; z0 < nz; z0 += b) {
      for (size_t y0 = 0; y0 < ny; y0 += b) {
        for (size_t x0 = 0; x0 < nx; x0 += b) {
          float lo = slice[(z0 * ny + y0) * nx + x0];
          float hi = lo;
          const size_t z1 = std::min(z0 + b, nz);
          const size_t y1 = std::min(y0 + b, ny);
          const size_t x1 = std::min(x0 + b, nx);
          for (size_t z = z0; z < z1; ++z) {
            for (size_t y = y0; y < y1; ++y) {
              for (size_t x = x0; x < x1; ++x) {
                const float v = slice[(z * ny + y) * nx + x];
                lo = std::min(lo, v);
                hi = std::max(hi, v);
              }
            }
          }
          ++result.total_blocks;
          if (static_cast<double>(hi) - lo < threshold) {
            ++result.constant_blocks;
          }
        }
      }
    }
  }
  const size_t non_constant = result.total_blocks - result.constant_blocks;
  result.non_constant_ratio =
      std::max(1e-3, static_cast<double>(non_constant) /
                         static_cast<double>(result.total_blocks));
  return result;
}

double AdjustTargetRatio(double target_ratio, double non_constant_ratio) {
  FXRZ_CHECK_GT(target_ratio, 0.0);
  FXRZ_CHECK_GT(non_constant_ratio, 0.0);
  return target_ratio * non_constant_ratio;
}

}  // namespace fxrz
