// Parallel data-dumping experiment (paper Sec. V-H).
//
// Simulates N MPI-like ranks, each holding one field block, dumping under a
// fixed-ratio policy. Per-rank analysis and compression costs are measured
// on real threads for a set of representative rank datasets (ranks cycle
// through the variants); the shared-bandwidth I/O model combines them into
// the end-to-end dump time. Compares FXRZ (model query) against FRaZ
// (iterative search) -- the paper reports 1.18-8.71x gains for FXRZ.

#ifndef FXRZ_PARALLEL_DUMP_H_
#define FXRZ_PARALLEL_DUMP_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/fraz/fraz.h"
#include "src/parallel/io_model.h"
#include "src/util/status.h"

namespace fxrz {

struct DumpExperimentOptions {
  int num_ranks = 256;
  double target_ratio = 50.0;
  IoModelOptions io;
  // Threads used to measure per-variant costs concurrently; 0 = hardware.
  int measure_threads = 0;
  // Use the event-driven processor-sharing I/O simulation (event_io.h)
  // instead of the two-phase model.
  bool event_driven_io = false;
};

struct DumpMethodResult {
  DumpTiming timing;
  double mean_analysis_seconds = 0.0;
  double mean_compress_seconds = 0.0;
  double mean_achieved_ratio = 0.0;
};

// Runs one experiment for a compressor over representative rank datasets.
class ParallelDumpExperiment {
 public:
  ParallelDumpExperiment(const Compressor* compressor,
                         DumpExperimentOptions options);

  // FXRZ policy: each rank serves its block through
  // fxrz.GuardedCompressToRatio under PaperPolicy(0) -- one model query and
  // one compression. Analysis time is the model query (features + scan +
  // query); compression time is the ladder call, admission scan included.
  // A non-OK ladder Status in any rank fails the experiment with that
  // Status; an untrained model is InvalidArgument.
  StatusOr<DumpMethodResult> RunFxrz(
      const Fxrz& fxrz, const std::vector<const Tensor*>& rank_variants);

  // FRaZ policy: per-rank cost = iterative search + final compression.
  // A failed search or codec run fails the experiment with its Status.
  StatusOr<DumpMethodResult> RunFraz(
      const FrazOptions& fraz_options,
      const std::vector<const Tensor*>& rank_variants);

 private:
  // Measures one rank's timing and achieved ratio, or returns why it failed.
  using RankFn =
      std::function<Status(const Tensor& data, RankTiming*, double* ratio)>;
  // Runs `rank` on every variant concurrently (measure_threads); the first
  // failed rank's Status, in rank order, fails the experiment.
  StatusOr<DumpMethodResult> Measure(
      const std::vector<const Tensor*>& rank_variants, const RankFn& rank);
  DumpMethodResult Combine(const std::vector<RankTiming>& variant_timings,
                           const std::vector<double>& ratios);

  const Compressor* compressor_;
  DumpExperimentOptions options_;
};

}  // namespace fxrz

#endif  // FXRZ_PARALLEL_DUMP_H_
