// Ablation: which of the five adopted features earn their place
// (complements Table II's correlation study with an end-to-end measure).
//
// Trains FXRZ with all five features, with each feature dropped in turn,
// and with no features at all (ratio-only input), and reports the average
// estimation error across two capability-level-2 bundles.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Ablation: feature subsets", "Table II, end-to-end view");

  const CatalogOptions copts = BenchCatalogOptions();
  std::vector<TrainTestBundle> bundles;
  bundles.push_back(MakeNyxBundle("baryon_density", copts));
  bundles.push_back(MakeQmcpackBundle(0, copts));

  struct Variant {
    const char* label;
    uint32_t mask;
  };
  const Variant variants[] = {
      {"all five", 0x1F},       {"-value_range", 0x1F & ~0x01u},
      {"-mean_value", 0x1F & ~0x02u}, {"-MND", 0x1F & ~0x04u},
      {"-MLD", 0x1F & ~0x08u},  {"-MSD", 0x1F & ~0x10u},
      {"ratio only", 0x00},
  };

  std::printf("%-14s %16s %16s %12s\n", "features", "Nyx err",
              "QMCPack err", "average");
  for (const Variant& v : variants) {
    double errs[2] = {0, 0};
    int idx = 0;
    for (const auto& bundle : bundles) {
      FxrzTrainingOptions opts;
      opts.feature_mask = v.mask;
      Fxrz fxrz(MakeCompressor("sz"), opts);
      fxrz.Train(Pointers(bundle.train));
      const Tensor& test = bundle.test[0].data;
      const auto probe = MakeCompressor("sz");
      const auto targets = ProbeValidTargetRatios(*probe, test, 6);
      for (double tcr : targets) {
        const auto r =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        errs[idx] += EstimationError(tcr, r.measured_ratio);
      }
      errs[idx] /= targets.size();
      ++idx;
    }
    std::printf("%-14s %15.1f%% %15.1f%% %11.1f%%\n", v.label,
                100 * errs[0], 100 * errs[1],
                100 * (errs[0] + errs[1]) / 2.0);
  }
  // Within a single bundle the features barely vary between training
  // snapshots, so masking them moves little. Their real value shows in
  // cross-application training (Fig. 14's setting), where the model must
  // tell datasets apart to route each to its own ratio->knob curve.
  std::printf("\nCross-application-scope training (mixed pool, test RTM-big)\n");
  {
    std::vector<TrainTestBundle> sources;
    sources.push_back(MakeNyxBundle("baryon_density", copts));
    sources.push_back(MakeHurricaneBundle("TC", copts));
    const TrainTestBundle rtm = MakeRtmBundle(copts);
    std::vector<const Tensor*> train;
    for (const auto& s : sources) {
      for (const auto& d : s.train) train.push_back(&d.data);
    }
    for (const auto& d : rtm.train) train.push_back(&d.data);
    const Tensor& test = rtm.test[0].data;

    std::printf("%-14s %16s\n", "features", "RTM-big err");
    for (uint32_t mask : {0x1Fu, 0x0u}) {
      FxrzTrainingOptions opts;
      opts.feature_mask = mask;
      Fxrz fxrz(MakeCompressor("sz"), opts);
      fxrz.Train(train);
      const auto probe = MakeCompressor("sz");
      double err = 0.0;
      const auto targets = ProbeValidTargetRatios(*probe, test, 6);
      for (double tcr : targets) {
        const auto r =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        err += EstimationError(tcr, r.measured_ratio);
      }
      std::printf("%-14s %15.1f%%\n", mask ? "all five" : "ratio only",
                  100 * err / targets.size());
    }
  }
  std::printf(
      "\nShape check: with mixed-application training data, removing the\n"
      "features collapses the model onto one average curve and the error\n"
      "explodes -- the end-to-end counterpart of Table II.\n");
  return 0;
}
