// Fig. 2: stationary-point curves and the accuracy of interpolation-based
// augmentation.
//
// Prints the measured (error bound, compression ratio) stationary points
// for SZ and ZFP on the Nyx baryon-density field (the paper's two example
// curves -- note ZFP's stairwise shape), then validates the augmentation:
// for target ratios halfway between adjacent stationary points, the
// interpolated config is executed and the achieved ratio compared with the
// requested one. The paper reports 3.04% / 3.96% / 5.48% / 4.34% average
// interpolation error for SZ / ZFP / FPZIP / MGARD+.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/data/generators/nyx.h"
#include "src/data/statistics.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Stationary points & interpolated error-bound curves",
              "Fig. 2 and Sec. IV-B");

  NyxConfig config = NyxConfig1();
  const double s = BenchScale();
  config.nz = config.ny = config.nx =
      std::max<size_t>(16, static_cast<size_t>(64 * s) / 16 * 16);
  const Tensor baryon = GenerateNyxField(config, "baryon_density", 3);

  // Part 1: the two example curves.
  for (const char* name : {"sz", "zfp"}) {
    const auto comp = MakeCompressor(name);
    AugmentationOptions opts;
    opts.num_stationary_points = 25;
    const auto points = CollectStationaryPoints(*comp, baryon, opts);
    std::printf("\n%s on Nyx baryon density (%s): %zu stationary points\n",
                name, baryon.ShapeString().c_str(), points.size());
    std::printf("%14s %12s\n", "error bound", "ratio");
    for (const auto& p : points) {
      std::printf("%14.6g %12.2f\n", p.config, p.ratio);
    }
  }

  // Part 2: interpolation validation at midpoints, all four compressors.
  std::printf("\nInterpolation error at midpoint target ratios\n");
  std::printf("%-8s %22s %22s\n", "comp", "avg interp error",
              "paper reported");
  const char* paper[] = {"3.04%", "3.96%", "5.48%", "4.34%"};
  int pi = 0;
  for (const std::string& name : AllCompressorNames()) {
    const auto comp = MakeCompressor(name);
    AugmentationOptions opts;
    opts.num_stationary_points = 25;
    const auto points = CollectStationaryPoints(*comp, baryon, opts);
    const RatioConfigCurve curve(points,
                                 comp->config_space(ValueRange(baryon)));

    double total = 0.0;
    int count = 0;
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      const double target = 0.5 * (points[i].ratio + points[i + 1].ratio);
      if (target <= curve.min_ratio() || target >= curve.max_ratio()) continue;
      const double cfg = curve.ConfigForRatio(target);
      const double measured = MeasuredRatio(*comp, baryon, cfg);
      total += std::fabs(measured - target) / target;
      ++count;
    }
    std::printf("%-8s %21.2f%% %22s\n", name.c_str(),
                count ? 100.0 * total / count : 0.0, paper[pi++]);
  }
  std::printf(
      "\nShape check: ZFP's curve is stairwise (bitplane truncation), SZ's\n"
      "is smooth; interpolation error stays in the single digits.\n");
  return 0;
}
