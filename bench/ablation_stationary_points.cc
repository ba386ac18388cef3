// Ablation: number of stationary points per training dataset (Sec. IV-B).
//
// Stationary points are the only compressor runs FXRZ's training performs;
// the interpolation-based augmentation fills in the rest. This sweep shows
// the accuracy/training-cost trade-off and why the paper's ~25 points are a
// sweet spot.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Ablation: stationary points per dataset", "Sec. IV-B");

  const TrainTestBundle bundle =
      MakeNyxBundle("baryon_density", BenchCatalogOptions());
  const Tensor& test = bundle.test[0].data;
  const auto probe = MakeCompressor("sz");
  const auto targets = ProbeValidTargetRatios(*probe, test, 8);

  std::printf("%-10s %14s %14s %14s\n", "points", "train time", "runs",
              "est. error");
  for (int points : {5, 10, 25, 40}) {
    FxrzTrainingOptions opts;
    opts.augmentation.num_stationary_points = points;
    Fxrz fxrz(MakeCompressor("sz"), opts);
    const TrainingBreakdown b = fxrz.Train(Pointers(bundle.train));

    double err = 0.0;
    for (double tcr : targets) {
      const auto r =
          fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
      err += EstimationError(tcr, r.measured_ratio);
    }
    std::printf("%-10d %13.2fs %14zu %13.1f%%\n", points, b.total_seconds(),
                b.compressor_runs, 100.0 * err / targets.size());
  }
  std::printf(
      "\nShape check: error falls steeply up to ~25 points, then training\n"
      "cost keeps growing with little accuracy gain.\n");
  return 0;
}
