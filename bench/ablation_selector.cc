// Ablation: quality-aware multi-compressor selection.
//
// Trains quality-enabled FXRZ models for SZ and ZFP on a mixed pool, then,
// per test dataset and target ratio, asks the selector which compressor
// preserves more quality -- and verifies against the measured PSNR of both.
// (The Related-Work hybrid of Liang et al. does this inside one compressor;
// the quality model makes it possible across whole compressors, still
// without running any of them at decision time.)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/augmentation.h"
#include "src/core/pipeline.h"
#include "src/core/selector.h"
#include "src/data/generators/catalog.h"
#include "src/data/statistics.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Quality-aware compressor selection", "extension (cf. Liang et al.)");

  const CatalogOptions copts = BenchCatalogOptions();
  std::vector<TrainTestBundle> bundles;
  bundles.push_back(MakeNyxBundle("baryon_density", copts));
  bundles.push_back(MakeRtmBundle(copts));
  bundles.push_back(MakeHurricaneBundle("TC", copts));

  // Mixed training pool (all bundles' training data).
  std::vector<const Tensor*> train;
  for (const auto& b : bundles) {
    for (const auto& d : b.train) train.push_back(&d.data);
  }

  FxrzTrainingOptions opts;
  opts.train_quality_model = true;
  opts.training_threads = 0;
  std::vector<std::string> names = {"sz", "zfp"};
  std::vector<std::unique_ptr<Fxrz>> pipelines;
  std::vector<SelectorCandidate> candidates;
  for (const std::string& name : names) {
    pipelines.push_back(std::make_unique<Fxrz>(MakeCompressor(name), opts));
    pipelines.back()->Train(train);
    candidates.push_back({name, &pipelines.back()->model()});
  }
  CompressorSelector selector(candidates);

  std::printf("%-24s %8s %10s %14s %14s %8s\n", "test dataset", "target",
              "pick", "SZ PSNR", "ZFP PSNR", "best?");
  int correct = 0, total = 0;
  for (const auto& bundle : bundles) {
    const Tensor& test = bundle.test[0].data;
    const auto probe = MakeCompressor("zfp");  // targets both can reach
    for (double tcr : ProbeValidTargetRatios(*probe, test, 3)) {
      const SelectionResult sel = selector.Select(test, tcr);
      double measured[2];
      for (size_t i = 0; i < names.size(); ++i) {
        // Quality of the archive the paper's policy serves.
        const Fxrz& fxrz = *pipelines[i];
        const StatusOr<GuardedResult> served =
            fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy(0));
        Tensor restored;
        const Status st =
            served.ok() ? fxrz.compressor().Decompress(
                              served.value().compressed.data(),
                              served.value().compressed.size(), &restored)
                        : served.status();
        if (!st.ok()) {
          std::fprintf(stderr, "%s: %s\n", names[i].c_str(),
                       st.ToString().c_str());
          return 1;
        }
        measured[i] = ComputeDistortion(test, restored).psnr;
      }
      const size_t picked = sel.compressor_name == names[0] ? 0 : 1;
      const bool best = measured[picked] >= measured[1 - picked] - 1.0;
      correct += best;
      ++total;
      std::printf("%-24s %7.1fx %10s %13.1fdB %13.1fdB %8s\n",
                  bundle.test[0].name.c_str(), tcr,
                  sel.compressor_name.c_str(), measured[0], measured[1],
                  best ? "yes" : "NO");
    }
  }
  std::printf("\nselector picked the (near-)best compressor in %d/%d cases\n",
              correct, total);
  return 0;
}
