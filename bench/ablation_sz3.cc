// Ablation: a fifth compressor ("sz3", interpolation-based) through the
// unchanged FXRZ pipeline -- compressor-agnosticism beyond the paper's
// four evaluation compressors.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/data/statistics.h"
#include "src/util/timer.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Ablation: SZ (Lorenzo+regression) vs SZ3 (interpolation)",
              "compressor-agnosticism extension");

  const CatalogOptions copts = BenchCatalogOptions();
  std::vector<TrainTestBundle> bundles;
  bundles.push_back(MakeNyxBundle("baryon_density", copts));
  bundles.push_back(MakeRtmBundle(copts));
  bundles.push_back(MakeHurricaneBundle("TC", copts));

  std::printf("%-8s %-24s %14s %14s %12s\n", "comp", "test dataset",
              "mid-eb ratio", "FXRZ err", "analysis");
  for (const std::string& comp_name : {std::string("sz"), std::string("sz3")}) {
    for (const auto& bundle : bundles) {
      Fxrz fxrz(MakeCompressor(comp_name));
      fxrz.Train(Pointers(bundle.train));
      const Tensor& test = bundle.test[0].data;
      const auto comp = MakeCompressor(comp_name);
      const ConfigSpace space = comp->config_space(ValueRange(test));
      const double mid = std::sqrt(space.min * space.max);
      const double mid_ratio = MeasuredRatio(*comp, test, mid);

      double err = 0.0, analysis = 0.0;
      const auto targets = ProbeValidTargetRatios(*comp, test, 6);
      for (double tcr : targets) {
        // Analysis time is timed before the request, which then reuses
        // the cached analysis.
        WallTimer analysis_timer;
        (void)fxrz.model().EstimateWithConfidence(test, tcr);
        analysis += analysis_timer.Seconds();
        const auto r =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        err += EstimationError(tcr, r.measured_ratio);
      }
      std::printf("%-8s %-24s %13.1fx %13.1f%% %10.2fms\n", comp_name.c_str(),
                  bundle.test[0].name.c_str(), mid_ratio,
                  100.0 * err / targets.size(),
                  1e3 * analysis / targets.size());
    }
  }
  std::printf(
      "\nShape check: FXRZ handles the fifth compressor with no code\n"
      "changes and comparable estimation accuracy.\n");
  return 0;
}
