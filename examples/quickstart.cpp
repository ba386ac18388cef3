// Quickstart: fixed-ratio compression in four steps.
//
//   1. Generate (or load) training snapshots of your field.
//   2. Train an Fxrz pipeline for your compressor of choice.
//   3. Ask for a target compression ratio on a NEW snapshot.
//   4. Verify: the measured ratio lands near the target, and the
//      analysis never ran the compressor.
//
// Run: ./example_quickstart

#include <cstdio>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/nyx.h"
#include "src/util/timer.h"

int main() {
  using namespace fxrz;

  // 1. Training snapshots: six time steps of a Nyx-like baryon density.
  std::printf("Generating training snapshots...\n");
  const NyxConfig config = NyxConfig1();
  std::vector<Tensor> snapshots;
  for (int t = 0; t < 6; ++t) {
    snapshots.push_back(GenerateNyxField(config, "baryon_density", t));
  }
  std::vector<const Tensor*> train;
  for (const Tensor& s : snapshots) train.push_back(&s);

  // 2. Train FXRZ for SZ. Training runs the compressor only at ~25
  //    "stationary points" per snapshot; everything else is interpolated.
  //    The quality model additionally learns (ratio -> expected PSNR).
  FxrzTrainingOptions options;
  options.train_quality_model = true;
  options.training_threads = 0;  // parallelize across snapshots
  Fxrz fxrz(MakeCompressor("sz"), options);
  const TrainingBreakdown breakdown = fxrz.Train(train);
  std::printf(
      "Trained on %zu snapshots: %zu compressor runs, %zu training rows, "
      "%.2fs total (%.2fs compressing, %.2fs augmenting, %.2fs fitting)\n",
      train.size(), breakdown.compressor_runs, breakdown.training_rows,
      breakdown.total_seconds(), breakdown.stationary_seconds,
      breakdown.augment_seconds, breakdown.fit_seconds);

  // 3. A NEW snapshot arrives (later time step, never seen in training).
  const Tensor snapshot = GenerateNyxField(config, "baryon_density", 12);

  std::printf("\n%8s %14s %14s %10s %12s %14s\n", "target", "error bound",
              "measured", "err", "analysis", "PSNR preview");
  for (double target : {20.0, 50.0, 100.0, 200.0}) {
    // 4. One model query + one compression; no trial-and-error. The PSNR
    //    preview tells the user what quality the ratio will cost *before*
    //    anything is compressed.
    const double preview = fxrz.model().EstimatePsnr(snapshot, target);
    WallTimer analysis_timer;
    (void)fxrz.model().EstimateWithConfidence(snapshot, target);
    const double analysis_seconds = analysis_timer.Seconds();
    const auto compressed =
        fxrz.GuardedCompressToRatio(snapshot, target, PaperPolicy());
    if (!compressed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   compressed.status().ToString().c_str());
      return 1;
    }
    const GuardedResult& result = compressed.value();
    std::printf("%8.0f %14.6g %14.2f %9.1f%% %10.2fms %12.1fdB\n", target,
                result.config, result.measured_ratio,
                100.0 * EstimationError(target, result.measured_ratio),
                analysis_seconds * 1e3, preview);
  }
  std::printf(
      "\nThe 'analysis' column is the entire cost of deciding the error\n"
      "bound -- compare with FRaZ, which must run the compressor itself\n"
      "several times per decision (see example_in_situ_dump).\n");
  return 0;
}
