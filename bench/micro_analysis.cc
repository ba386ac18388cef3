// Micro-benchmark: fused single-pass analysis kernels vs the legacy
// multi-pass reference implementations.
//
// Covers the two kernels behind the model query's analysis cost: feature
// extraction (stride-4 sampled, paper Sec. IV-B) and the constant-block
// scan of the Compressibility Adjustment (full tensor, Sec. IV-C). The
// fused kernels walk memory once with flat-index arithmetic; the reference
// kernels are the original odometer/multi-pass versions kept for
// cross-checking; they run on the calling thread, while the fused kernels
// run on SharedThreadPool() as every caller runs them. Results
// (fastest-of-N wall times plus speedups) are printed and written to
// BENCH_analysis.json.

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/data/tensor.h"
#include "src/util/timer.h"

namespace {

using namespace fxrz;

// Cheap analytic field with smooth large-scale structure plus a ripple --
// enough variation that no branch in the kernels is degenerate.
Tensor MakeField(size_t n) {
  Tensor field = Tensor::ForOverwrite({n, n, n});
  float* values = field.data();
  const double inv = 1.0 / static_cast<double>(n);
  size_t i = 0;
  for (size_t z = 0; z < n; ++z) {
    const double fz = std::sin(6.28318 * z * inv);
    for (size_t y = 0; y < n; ++y) {
      const double fy = std::cos(3.14159 * y * inv);
      for (size_t x = 0; x < n; ++x, ++i) {
        const double fx = static_cast<double>(x) * inv;
        values[i] = static_cast<float>(fz * fy + 0.25 * fx * fx +
                                       0.01 * std::sin(40.0 * fx));
      }
    }
  }
  return field;
}

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

}  // namespace

int main() {
  constexpr size_t kN = 256;
  constexpr int kReps = 5;
  std::printf("fused vs reference analysis kernels, %zu^3 floats\n", kN);
  const Tensor field = MakeField(kN);

  FeatureOptions features;
  features.stride = 4;
  const CaOptions ca;

  double checksum = 0.0;  // defeat dead-code elimination
  const double feat_ref = BestOf(kReps, [&] {
    checksum += ExtractFeaturesReference(field, features).value_range;
  });
  const double feat_fused = BestOf(kReps, [&] {
    checksum += ExtractFeatures(field, features).value_range;
  });
  const double scan_ref = BestOf(kReps, [&] {
    checksum += ScanConstantBlocksReference(field, ca).non_constant_ratio;
  });
  const double scan_fused = BestOf(kReps, [&] {
    checksum += ScanConstantBlocks(field, ca).non_constant_ratio;
  });

  // The model query's analysis = features + scan; the end-to-end speedup is
  // what the acceptance criterion cares about.
  const double analysis_ref = feat_ref + scan_ref;
  const double analysis_fused = feat_fused + scan_fused;

  std::printf("%-22s %10s %10s %8s\n", "kernel", "ref (ms)", "fused (ms)",
              "speedup");
  std::printf("%-22s %9.2f %10.2f %7.2fx\n", "features stride-4",
              feat_ref * 1e3, feat_fused * 1e3, feat_ref / feat_fused);
  std::printf("%-22s %9.2f %10.2f %7.2fx\n", "constant-block scan",
              scan_ref * 1e3, scan_fused * 1e3, scan_ref / scan_fused);
  std::printf("%-22s %9.2f %10.2f %7.2fx\n", "analysis",
              analysis_ref * 1e3, analysis_fused * 1e3,
              analysis_ref / analysis_fused);

  std::FILE* f = std::fopen("BENCH_analysis.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"tensor\": [%zu, %zu, %zu],\n", kN, kN, kN);
    std::fprintf(f, "  \"features_ref_ms\": %.4f,\n", feat_ref * 1e3);
    std::fprintf(f, "  \"features_fused_ms\": %.4f,\n", feat_fused * 1e3);
    std::fprintf(f, "  \"scan_ref_ms\": %.4f,\n", scan_ref * 1e3);
    std::fprintf(f, "  \"scan_fused_ms\": %.4f,\n", scan_fused * 1e3);
    std::fprintf(f, "  \"analysis_speedup\": %.3f\n",
                 analysis_ref / analysis_fused);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_analysis.json\n");
  }
  return checksum == 12345.678 ? 1 : 0;
}
