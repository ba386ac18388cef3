// Fig. 12 & 13: the paper's headline accuracy study.
//
// For every (application bundle, compressor) pair: train FXRZ on the
// bundle's training snapshots/configurations and compare, on the held-out
// test dataset, the measured compression ratio against the target for
//   - FXRZ (one model query),
//   - FRaZ with 6 total iterations,
//   - FRaZ with 15 total iterations.
// Paper averages across four compressors: FXRZ 8.24%, FRaZ-15 19.37%,
// FRaZ-6 34.48%. The shape to reproduce: FXRZ < FRaZ-15 < FRaZ-6, with ZFP
// the hardest compressor for everyone (stairwise curve).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/fraz/fraz.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Fixed-ratio accuracy: FXRZ vs FRaZ(6) vs FRaZ(15)",
              "Fig. 12 and Fig. 13");

  const std::vector<TrainTestBundle> bundles =
      MakeAllBundles(BenchCatalogOptions());
  const std::vector<std::string> compressors = AllCompressorNames();

  double grand_fxrz = 0, grand_fraz6 = 0, grand_fraz15 = 0;
  int grand_n = 0;

  std::printf("\nFig. 13-style table: average estimation error per bundle\n");
  std::printf("%-10s %-24s %10s %10s %10s\n", "comp", "test dataset", "FXRZ",
              "FRaZ-6", "FRaZ-15");

  for (const std::string& comp_name : compressors) {
    for (const TrainTestBundle& bundle : bundles) {
      Fxrz fxrz(MakeCompressor(comp_name));
      fxrz.Train(Pointers(bundle.train));
      const Tensor& test = bundle.test[0].data;
      const auto comp = MakeCompressor(comp_name);

      // Targets are chosen from the test dataset's achievable ratio range
      // (paper Sec. V-F: TCRs are "reasonable/applicable" per dataset).
      const std::vector<double> targets =
          ProbeValidTargetRatios(*comp, test, 8);
      const bool print_series =
          (bundle.application == "nyx" && bundle.field == "baryon_density" &&
           (comp_name == "sz" || comp_name == "zfp"));
      if (print_series) {
        std::printf("\nFig. 12-style series: %s on %s\n", comp_name.c_str(),
                    bundle.test[0].name.c_str());
        std::printf("%12s %12s %12s %12s\n", "ground truth", "FXRZ",
                    "FRaZ-6", "FRaZ-15");
      }

      double err_fx = 0, err_f6 = 0, err_f15 = 0;
      for (double tcr : targets) {
        const auto fx =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        FrazOptions o6;
        o6.total_max_iterations = 6;
        FrazOptions o15;
        o15.total_max_iterations = 15;
        const FrazResult f6 = FrazSearch(*comp, test, tcr, o6);
        const FrazResult f15 = FrazSearch(*comp, test, tcr, o15);
        err_fx += EstimationError(tcr, fx.measured_ratio);
        err_f6 += EstimationError(tcr, f6.achieved_ratio);
        err_f15 += EstimationError(tcr, f15.achieved_ratio);
        if (print_series) {
          std::printf("%12.1f %12.1f %12.1f %12.1f\n", tcr,
                      fx.measured_ratio, f6.achieved_ratio,
                      f15.achieved_ratio);
        }
      }
      const double n = static_cast<double>(targets.size());
      if (print_series) std::printf("\n");
      std::printf("%-10s %-24s %9.1f%% %9.1f%% %9.1f%%\n", comp_name.c_str(),
                  bundle.test[0].name.c_str(), 100 * err_fx / n,
                  100 * err_f6 / n, 100 * err_f15 / n);
      grand_fxrz += err_fx / n;
      grand_fraz6 += err_f6 / n;
      grand_fraz15 += err_f15 / n;
      ++grand_n;
    }
  }

  std::printf("\n%-35s %9.1f%% %9.1f%% %9.1f%%\n", "AVERAGE (all bundles, all comps)",
              100 * grand_fxrz / grand_n, 100 * grand_fraz6 / grand_n,
              100 * grand_fraz15 / grand_n);
  std::printf("(paper: FXRZ 8.24%%, FRaZ-6 34.48%%, FRaZ-15 19.37%%)\n");
  return 0;
}
