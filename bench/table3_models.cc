// Table III: average estimation error of the three candidate regressors
// (Random Forest, AdaBoost.R2, SVR) on representative bundles with SZ and
// ZFP. Expected shape: RFR lowest, SVR worst (paper Sec. IV-D).

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
  PrintHeader("Model selection: estimation error by regressor", "Table III");

  const CatalogOptions copts = BenchCatalogOptions();
  struct Bundle {
    const char* label;
    TrainTestBundle bundle;
  };
  std::vector<Bundle> bundles;
  bundles.push_back({"Nyx Baryon", MakeNyxBundle("baryon_density", copts)});
  bundles.push_back({"QMCPack spin0", MakeQmcpackBundle(0, copts)});
  bundles.push_back({"RTM", MakeRtmBundle(copts)});

  const ModelType types[] = {ModelType::kRandomForest, ModelType::kAdaBoost,
                             ModelType::kSvr};

  for (const char* comp_name : {"sz", "zfp"}) {
    std::printf("\n--- %s ---\n%-16s", comp_name, "model");
    for (const auto& b : bundles) std::printf(" %14s", b.label);
    std::printf("\n");
    for (ModelType type : types) {
      std::printf("%-16s", ModelTypeName(type).c_str());
      for (const auto& b : bundles) {
        FxrzTrainingOptions opts;
        opts.model_type = type;
        opts.tune_hyperparameters = true;
        Fxrz fxrz(MakeCompressor(comp_name), opts);
        fxrz.Train(Pointers(b.bundle.train));
        const auto probe = MakeCompressor(comp_name);

        double total = 0.0;
        int n = 0;
        for (double tcr :
             ProbeValidTargetRatios(*probe, b.bundle.test[0].data, 8)) {
          const auto result = fxrz.GuardedCompressToRatio(
              b.bundle.test[0].data, tcr, PaperPolicy()).value();
          total += EstimationError(tcr, result.measured_ratio);
          ++n;
        }
        std::printf(" %13.1f%%", 100.0 * total / n);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nShape check: RFR should post the lowest errors overall, matching\n"
      "the paper's choice of Random Forest for FXRZ.\n");
  return 0;
}
