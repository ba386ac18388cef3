// Fig. 14: robustness across application scopes.
//
// FXRZ is trained on a *mixed* pool (Nyx + QMCPack + Hurricane + RTM-small)
// and tested on RTM-big -- training data from unrelated domains must not
// destroy accuracy. Paper: FXRZ 11.49/6.76/13.66/19.81% vs FRaZ
// 17.85/35.51/14.31/10.11% for SZ/ZFP/MGARD+/FPZIP.

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
  PrintHeader("Cross-application-scope training", "Fig. 14");

  const CatalogOptions copts = BenchCatalogOptions();

  // Mixed training pool.
  std::vector<TrainTestBundle> sources;
  sources.push_back(MakeNyxBundle("baryon_density", copts));
  sources.push_back(MakeQmcpackBundle(0, copts));
  sources.push_back(MakeHurricaneBundle("TC", copts));
  const TrainTestBundle rtm = MakeRtmBundle(copts);

  std::vector<const Tensor*> train;
  for (const auto& s : sources) {
    for (const auto& d : s.train) train.push_back(&d.data);
  }
  for (const auto& d : rtm.train) train.push_back(&d.data);
  const Tensor& test = rtm.test[0].data;  // RTM big-scale

  std::printf("training pool: %zu datasets from 4 applications\n", train.size());
  std::printf("test: %s (%s)\n\n", rtm.test[0].name.c_str(),
              test.ShapeString().c_str());
  std::printf("%-10s %12s %12s\n", "comp", "FXRZ", "FRaZ-15");

  for (const std::string& comp_name : AllCompressorNames()) {
    Fxrz fxrz(MakeCompressor(comp_name));
    fxrz.Train(train);
    const auto comp = MakeCompressor(comp_name);

    double err_fx = 0, err_fraz = 0;
    int n = 0;
    for (double tcr : ProbeValidTargetRatios(*comp, test, 8)) {
      const auto fx =
          fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
      FrazOptions o15;
      o15.total_max_iterations = 15;
      const FrazResult fr = FrazSearch(*comp, test, tcr, o15);
      err_fx += EstimationError(tcr, fx.measured_ratio);
      err_fraz += EstimationError(tcr, fr.achieved_ratio);
      ++n;
    }
    std::printf("%-10s %11.1f%% %11.1f%%\n", comp_name.c_str(),
                100 * err_fx / n, 100 * err_fraz / n);
  }
  std::printf(
      "\nShape check: FXRZ stays accurate even with out-of-domain training\n"
      "data in the pool (paper Fig. 14).\n");
  return 0;
}
