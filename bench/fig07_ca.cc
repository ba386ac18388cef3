// Fig. 7: effectiveness of the Compressibility Adjustment (CA).
//
// Trains FXRZ twice (CA on / CA off) on a dataset with significant
// constant-block regions (Hurricane QCLOUD is mostly zero; Nyx baryon also
// shown as in the paper) and prints TCR vs MCR for both, plus the ground
// truth. Expected shape: the CA series hugs the ground-truth line.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/compressibility.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Compressibility Adjustment on/off", "Fig. 7 and Sec. IV-E2");

  const CatalogOptions copts = BenchCatalogOptions();
  struct Entry {
    const char* label;
    TrainTestBundle bundle;
  };
  std::vector<Entry> entries;
  entries.push_back({"Nyx Baryon", MakeNyxBundle("baryon_density", copts)});
  entries.push_back({"Hurricane QCLOUD", MakeHurricaneBundle("QCLOUD", copts)});

  for (const auto& entry : entries) {
    const Tensor& test = entry.bundle.test[0].data;
    const BlockScanResult scan = ScanConstantBlocks(test);
    std::printf("\n%s: %zu/%zu constant blocks, R = %.3f\n", entry.label,
                scan.constant_blocks, scan.total_blocks,
                scan.non_constant_ratio);

    for (const char* comp_name : {"sz", "zfp"}) {
      FxrzTrainingOptions with_ca;
      with_ca.use_ca = true;
      FxrzTrainingOptions without_ca;
      without_ca.use_ca = false;

      Fxrz fxrz_ca(MakeCompressor(comp_name), with_ca);
      fxrz_ca.Train(Pointers(entry.bundle.train));
      Fxrz fxrz_nca(MakeCompressor(comp_name), without_ca);
      fxrz_nca.Train(Pointers(entry.bundle.train));

      std::printf("  [%s] %10s %12s %12s %10s %10s\n", comp_name, "target",
                  "MCR w/ CA", "MCR w/o CA", "err CA", "err noCA");
      const auto probe = MakeCompressor(comp_name);
      double err_ca = 0, err_nca = 0;
      int n = 0;
      for (double tcr : ProbeValidTargetRatios(*probe, test, 6)) {
        const auto a =
            fxrz_ca.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        const auto b =
            fxrz_nca.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
        std::printf("  %15.1f %12.1f %12.1f %9.1f%% %9.1f%%\n", tcr,
                    a.measured_ratio, b.measured_ratio,
                    100 * EstimationError(tcr, a.measured_ratio),
                    100 * EstimationError(tcr, b.measured_ratio));
        err_ca += EstimationError(tcr, a.measured_ratio);
        err_nca += EstimationError(tcr, b.measured_ratio);
        ++n;
      }
      std::printf("  [%s] average: %.1f%% with CA vs %.1f%% without\n",
                  comp_name, 100 * err_ca / n, 100 * err_nca / n);
    }
  }
  return 0;
}
