// In-situ parallel data dumping: FXRZ vs FRaZ under I/O contention --
// the paper's Sec. V-H experiment at laptop scale.
//
// Simulated MPI ranks each hold one block of a Hurricane-like field and
// must dump it at a fixed ratio. FXRZ decides the error bound with one
// model query; FRaZ runs the compressor iteratively per rank. Compute is
// measured on real threads; the shared 2 GB/s filesystem is modeled.
//
// Run: ./example_in_situ_dump

#include <cstdio>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/hurricane.h"
#include "src/parallel/dump.h"

int main() {
  using namespace fxrz;

  // Rank variants: nearby time steps of the TC field stand in for the
  // different blocks ranks would hold.
  const HurricaneConfig config = HurricaneDefaultConfig();
  std::vector<Tensor> train_fields, rank_fields;
  for (int t : {5, 10, 15, 20, 25, 30}) {
    train_fields.push_back(GenerateHurricaneField(config, "TC", t));
  }
  for (int t : {40, 44, 48}) {
    rank_fields.push_back(GenerateHurricaneField(config, "TC", t));
  }
  std::vector<const Tensor*> train, ranks;
  for (const Tensor& f : train_fields) train.push_back(&f);
  for (const Tensor& f : rank_fields) ranks.push_back(&f);

  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train(train);
  const double target = fxrz.model().ValidTargetRatios(1)[0];

  std::printf("target ratio %.1f, field %s\n\n", target,
              rank_fields[0].ShapeString().c_str());
  std::printf("%8s %14s %14s %14s %10s\n", "ranks", "FXRZ dump(s)",
              "FRaZ dump(s)", "speedup", "ratio");

  for (int num_ranks : {64, 256, 1024, 4096}) {
    DumpExperimentOptions opts;
    opts.num_ranks = num_ranks;
    opts.target_ratio = target;
    ParallelDumpExperiment experiment(&fxrz.compressor(), opts);

    const StatusOr<DumpMethodResult> fxrz_dump =
        experiment.RunFxrz(fxrz, ranks);
    FrazOptions fraz;
    fraz.total_max_iterations = 15;
    const StatusOr<DumpMethodResult> fraz_dump =
        experiment.RunFraz(fraz, ranks);
    for (const Status& st : {fxrz_dump.status(), fraz_dump.status()}) {
      if (!st.ok()) {
        std::fprintf(stderr, "dump error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    const DumpMethodResult& fx = fxrz_dump.value();
    const DumpMethodResult& fr = fraz_dump.value();

    std::printf("%8d %14.3f %14.3f %13.2fx %9.1fx\n", num_ranks,
                fx.timing.total_seconds, fr.timing.total_seconds,
                fr.timing.total_seconds / fx.timing.total_seconds,
                fx.mean_achieved_ratio);
  }

  std::printf(
      "\nFXRZ's advantage comes from the analysis term: a model query costs\n"
      "milliseconds, while FRaZ's search costs several full compressions.\n");
  return 0;
}
