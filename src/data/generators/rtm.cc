#include "src/data/generators/rtm.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/random.h"

namespace fxrz {

RtmConfig RtmSmallScaleConfig() {
  // The paper's small/big pair (449^2x235 vs 849^2x235) differ ~2x in area
  // with a tiny absorbing-boundary fraction in both. At laptop scale the
  // sponge (6 cells/face) is proportionally larger, so the grids are kept
  // close enough that the boundary fraction does not dominate the
  // compressibility shift between scales.
  RtmConfig c;
  c.nz = 60;
  c.ny = 60;
  c.nx = 28;
  return c;
}

RtmConfig RtmBigScaleConfig() {
  RtmConfig c;
  c.nz = 80;
  c.ny = 80;
  c.nx = 32;
  c.v_bottom = 4200.0;
  c.num_layers = 6;
  c.heterogeneity = 0.06;
  c.source_frequency = 11.0;
  c.seed = 4409;
  return c;
}

namespace {

// Builds the squared Courant factor field (v*dt/dx)^2 for a layered model
// with mild random heterogeneity.
std::vector<double> BuildVelocityModel(const RtmConfig& c) {
  Rng rng(c.seed);
  std::vector<double> courant2(c.nz * c.ny * c.nx);
  // Per-layer base velocity, linearly increasing with depth plus jitter.
  std::vector<double> layer_v(c.num_layers);
  for (int l = 0; l < c.num_layers; ++l) {
    const double f = c.num_layers > 1
                         ? static_cast<double>(l) / (c.num_layers - 1)
                         : 0.0;
    layer_v[l] = c.v_top + f * (c.v_bottom - c.v_top) +
                 rng.Uniform(-0.03, 0.03) * c.v_top;
  }
  for (size_t z = 0; z < c.nz; ++z) {
    const int layer = std::min<int>(
        c.num_layers - 1,
        static_cast<int>(static_cast<double>(z) / c.nz * c.num_layers));
    for (size_t y = 0; y < c.ny; ++y) {
      for (size_t x = 0; x < c.nx; ++x) {
        const double v =
            layer_v[layer] * (1.0 + c.heterogeneity * rng.NextGaussian() * 0.3);
        const double cf = v * c.dt / c.dx;
        courant2[(z * c.ny + y) * c.nx + x] = cf * cf;
      }
    }
  }
  return courant2;
}

// Ricker wavelet value at time step `it`.
double Ricker(const RtmConfig& c, int it) {
  const double t0 = 1.2 / c.source_frequency;
  const double t = it * c.dt - t0;
  const double a = M_PI * c.source_frequency * t;
  const double a2 = a * a;
  return (1.0 - 2.0 * a2) * std::exp(-a2);
}

}  // namespace

std::vector<Tensor> SimulateRtmSnapshots(const RtmConfig& c,
                                         const std::vector<int>& time_steps) {
  FXRZ_CHECK(!time_steps.empty());
  FXRZ_CHECK(std::is_sorted(time_steps.begin(), time_steps.end()));
  FXRZ_CHECK_GE(time_steps.front(), 0);
  // Stability (CFL): v*dt/dx must stay below 1/sqrt(3) for the 3D stencil.
  FXRZ_CHECK_LT(c.v_bottom * c.dt / c.dx, 1.0 / std::sqrt(3.0))
      << "unstable RTM configuration";

  const size_t nz = c.nz, ny = c.ny, nx = c.nx;
  const size_t n = nz * ny * nx;
  const std::vector<double> courant2 = BuildVelocityModel(c);

  std::vector<float> prev(n, 0.0f), curr(n, 0.0f), next(n, 0.0f);
  const size_t sz = nz / 4, sy = ny / 2, sx = nx / 2;  // source location
  const size_t source_off = (sz * ny + sy) * nx + sx;

  // Sponge boundary: exponential damping within `sponge` cells of any face.
  // Scales down on small grids so the absorbing layer never dominates the
  // domain (keeps small/big-scale runs comparable, like the paper's pair).
  const size_t sponge =
      std::max<size_t>(3, std::min<size_t>(6, std::min({nz, ny, nx}) / 6));
  auto damping = [&](size_t z, size_t y, size_t x) -> float {
    size_t d = sponge;
    d = std::min({d, z, nz - 1 - z, y, ny - 1 - y, x, nx - 1 - x});
    if (d >= sponge) return 1.0f;
    const double u = static_cast<double>(sponge - d) / sponge;
    return static_cast<float>(std::exp(-0.015 * u * u * sponge * sponge));
  };

  std::vector<Tensor> snapshots;
  snapshots.reserve(time_steps.size());
  size_t next_snap = 0;

  const int last_step = time_steps.back();
  for (int it = 0; it <= last_step; ++it) {
    // Interior update: standard 7-point Laplacian leapfrog.
    for (size_t z = 1; z + 1 < nz; ++z) {
      for (size_t y = 1; y + 1 < ny; ++y) {
        const size_t row = (z * ny + y) * nx;
        for (size_t x = 1; x + 1 < nx; ++x) {
          const size_t off = row + x;
          const float lap = curr[off - 1] + curr[off + 1] + curr[off - nx] +
                            curr[off + nx] + curr[off - nx * ny] +
                            curr[off + nx * ny] - 6.0f * curr[off];
          next[off] = 2.0f * curr[off] - prev[off] +
                      static_cast<float>(courant2[off]) * lap;
        }
      }
    }
    next[source_off] += static_cast<float>(Ricker(c, it));

    // Apply sponge damping everywhere near the boundary.
    for (size_t z = 0; z < nz; ++z) {
      for (size_t y = 0; y < ny; ++y) {
        for (size_t x = 0; x < nx; ++x) {
          const bool near_boundary = z < sponge || z >= nz - sponge ||
                                     y < sponge || y >= ny - sponge ||
                                     x < sponge || x >= nx - sponge;
          if (!near_boundary) continue;
          const size_t off = (z * ny + y) * nx + x;
          const float g = damping(z, y, x);
          next[off] *= g;
          curr[off] *= g;
        }
      }
    }

    std::swap(prev, curr);
    std::swap(curr, next);

    while (next_snap < time_steps.size() && time_steps[next_snap] == it) {
      Tensor snapshot = Tensor::ForOverwrite({nz, ny, nx});
      std::copy(curr.begin(), curr.end(), snapshot.data());
      snapshots.push_back(std::move(snapshot));
      ++next_snap;
    }
  }
  FXRZ_CHECK_EQ(next_snap, time_steps.size());
  return snapshots;
}

Tensor SimulateRtmSnapshot(const RtmConfig& config, int time_step) {
  return SimulateRtmSnapshots(config, {time_step}).front();
}

}  // namespace fxrz
