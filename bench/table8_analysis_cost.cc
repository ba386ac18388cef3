// Table VIII: analysis-time cost relative to compression time.
//
// "Analysis" is the time to decide the error configuration for one target
// ratio: for FXRZ, feature extraction + block scan + model query; for FRaZ,
// the iterative search (which runs the compressor). The paper reports FXRZ
// at ~0.14x the compression time vs FRaZ's ~15x -- a ~108x gap. This bench
// also reproduces the Sec. V-F1 sampling ablation (stride-4 ~1.5% sampling
// vs 100% scanning).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/compressors/compressor.h"
#include "src/core/augmentation.h"
#include "src/core/features.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/data/sampling.h"
#include "src/fraz/fraz.h"
#include "src/util/timer.h"

int main() {
  using namespace fxrz;
  using namespace fxrz_bench;
  PrintHeader("Analysis-time cost relative to compression time",
              "Table VIII and Sec. V-F1");

  const CatalogOptions copts = BenchCatalogOptions();
  struct Entry {
    const char* label;
    TrainTestBundle bundle;
  };
  std::vector<Entry> entries;
  entries.push_back({"Nyx Baryon", MakeNyxBundle("baryon_density", copts)});
  entries.push_back({"QMCPack spin0", MakeQmcpackBundle(0, copts)});
  entries.push_back({"RTM", MakeRtmBundle(copts)});
  entries.push_back({"Hurricane TC", MakeHurricaneBundle("TC", copts)});

  std::printf("%-8s %-16s %14s %14s %12s\n", "comp", "dataset",
              "FXRZ cost", "FRaZ-15 cost", "FRaZ/FXRZ");
  double total_speedup = 0.0;
  int combos = 0;
  for (const std::string& comp_name : AllCompressorNames()) {
    for (const auto& e : entries) {
      Fxrz fxrz(MakeCompressor(comp_name));
      fxrz.Train(Pointers(e.bundle.train));
      const Tensor& test = e.bundle.test[0].data;
      const auto comp = MakeCompressor(comp_name);

      // Reference compression time: one run at the config the paper's
      // policy picks for the mid-range target.
      const auto targets = ProbeValidTargetRatios(*comp, test, 5);
      const double mid_config =
          fxrz.GuardedCompressToRatio(test, targets[2], PaperPolicy())
              .value()
              .config;
      WallTimer compress_timer;
      (void)fxrz.compressor().Compress(test, mid_config).value();
      const double compress_seconds = compress_timer.Seconds();

      double fxrz_analysis = 0.0, fraz_analysis = 0.0;
      for (double tcr : targets) {
        WallTimer analysis_timer;
        (void)fxrz.model().EstimateWithConfidence(test, tcr);
        fxrz_analysis += analysis_timer.Seconds();
        FrazOptions o15;
        o15.total_max_iterations = 15;
        fraz_analysis += FrazSearch(*comp, test, tcr, o15).search_seconds;
      }
      fxrz_analysis /= targets.size();
      fraz_analysis /= targets.size();

      const double fx_cost = fxrz_analysis / compress_seconds;
      const double fr_cost = fraz_analysis / compress_seconds;
      std::printf("%-8s %-16s %13.3fx %13.2fx %11.0fx\n", comp_name.c_str(),
                  e.label, fx_cost, fr_cost, fraz_analysis / fxrz_analysis);
      total_speedup += fraz_analysis / fxrz_analysis;
      ++combos;
    }
  }
  std::printf("\naverage FRaZ/FXRZ analysis-time ratio: %.0fx (paper: 108x)\n",
              total_speedup / combos);

  // Sec. V-F1: stride sampling ablation on feature extraction.
  std::printf("\nSampling ablation (feature extraction)\n");
  std::printf("%-16s %12s %14s %14s\n", "dataset", "sampled %",
              "stride-4 time", "full-scan time");
  for (const auto& e : entries) {
    const Tensor& test = e.bundle.test[0].data;
    FeatureOptions full;
    full.stride = 1;
    FeatureOptions strided;
    strided.stride = 4;
    WallTimer t1;
    (void)ExtractFeatures(test, strided);
    const double strided_s = t1.Seconds();
    WallTimer t2;
    (void)ExtractFeatures(test, full);
    const double full_s = t2.Seconds();
    std::printf("%-16s %11.2f%% %12.2fms %12.2fms\n", e.label,
                100.0 * StrideSampleFraction(test, 4), strided_s * 1e3,
                full_s * 1e3);
  }
  std::printf("(paper: 1.5%% sampling is ~20x faster at near-equal accuracy)\n");
  return 0;
}
