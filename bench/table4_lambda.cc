// Table IV: sweep of the constant-block threshold coefficient lambda
// (0.05 / 0.10 / 0.15 of |mean|) used by the Compressibility Adjustment.
// The paper finds lambda = 0.15 optimal.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Constant-block threshold (lambda) sweep", "Table IV");

  const CatalogOptions copts = BenchCatalogOptions();
  struct Entry {
    const char* label;
    TrainTestBundle bundle;
  };
  std::vector<Entry> entries;
  entries.push_back({"Nyx Baryon", MakeNyxBundle("baryon_density", copts)});
  entries.push_back({"QMCPack spin0", MakeQmcpackBundle(0, copts)});
  entries.push_back({"RTM", MakeRtmBundle(copts)});

  const double lambdas[] = {0.05, 0.10, 0.15};

  for (const char* comp_name : {"sz", "zfp"}) {
    std::printf("\n--- %s ---\n%-14s", comp_name, "lambda");
    for (const auto& e : entries) std::printf(" %14s", e.label);
    std::printf("\n");
    for (double lambda : lambdas) {
      std::printf("%-14.2f", lambda);
      for (const auto& e : entries) {
        FxrzTrainingOptions opts;
        opts.ca.lambda = lambda;
        Fxrz fxrz(MakeCompressor(comp_name), opts);
        fxrz.Train(Pointers(e.bundle.train));
        const auto probe = MakeCompressor(comp_name);

        double total = 0.0;
        int n = 0;
        for (double tcr :
             ProbeValidTargetRatios(*probe, e.bundle.test[0].data, 8)) {
          const auto result = fxrz.GuardedCompressToRatio(
              e.bundle.test[0].data, tcr, PaperPolicy()).value();
          total += EstimationError(tcr, result.measured_ratio);
          ++n;
        }
        std::printf(" %13.1f%%", 100.0 * total / n);
      }
      std::printf("\n");
    }
  }
  return 0;
}
