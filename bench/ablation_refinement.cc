// Ablation: the hybrid one-run refinement extension (paper Sec. VI future
// work: "explore other optimization strategies").
//
// FXRZ+refine verifies the estimate with the compression the dump needs
// anyway and corrects the knob once if the measured ratio misses the
// target. Worst case 2 compressions -- still an order of magnitude cheaper
// than FRaZ-15 -- but it removes most of the residual estimation error.

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/fraz/fraz.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Ablation: hybrid one-run refinement", "Sec. VI future work");

  const CatalogOptions copts = BenchCatalogOptions();
  std::vector<TrainTestBundle> bundles;
  bundles.push_back(MakeNyxBundle("baryon_density", copts));
  bundles.push_back(MakeRtmBundle(copts));
  bundles.push_back(MakeHurricaneBundle("QCLOUD", copts));

  std::printf("%-10s %-22s %10s %12s %12s %10s\n", "comp", "dataset", "FXRZ",
              "FXRZ+refine", "refine#comp", "FRaZ-15");
  for (const std::string& comp_name : {std::string("sz"), std::string("zfp")}) {
    for (const auto& bundle : bundles) {
      Fxrz fxrz(MakeCompressor(comp_name));
      fxrz.Train(Pointers(bundle.train));
      const Tensor& test = bundle.test[0].data;
      const auto comp = MakeCompressor(comp_name);

      double err_plain = 0, err_refined = 0, err_fraz = 0;
      double compressions = 0;
      const auto targets = ProbeValidTargetRatios(*comp, test, 6);
      for (double tcr : targets) {
        const auto plain =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        const auto refined =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy(1)).value();
        FrazOptions o15;
        o15.total_max_iterations = 15;
        const FrazResult fraz = FrazSearch(*comp, test, tcr, o15);
        err_plain += EstimationError(tcr, plain.measured_ratio);
        err_refined += EstimationError(tcr, refined.measured_ratio);
        err_fraz += EstimationError(tcr, fraz.achieved_ratio);
        compressions += refined.compressions;
      }
      const double n = static_cast<double>(targets.size());
      std::printf("%-10s %-22s %9.1f%% %11.1f%% %12.1f %9.1f%%\n",
                  comp_name.c_str(), bundle.test[0].name.c_str(),
                  100 * err_plain / n, 100 * err_refined / n,
                  compressions / n, 100 * err_fraz / n);
    }
  }
  std::printf(
      "\nShape check: refinement closes most of the gap to FRaZ-15 at <=2\n"
      "compressions per decision instead of 15.\n");
  return 0;
}
