#include "src/parallel/dump.h"

#include <thread>

#include "src/parallel/event_io.h"

#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace fxrz {

ParallelDumpExperiment::ParallelDumpExperiment(const Compressor* compressor,
                                               DumpExperimentOptions options)
    : compressor_(compressor), options_(options) {
  FXRZ_CHECK(compressor_ != nullptr);
  FXRZ_CHECK_GE(options_.num_ranks, 1);
}

DumpMethodResult ParallelDumpExperiment::Combine(
    const std::vector<RankTiming>& variant_timings,
    const std::vector<double>& ratios) {
  FXRZ_CHECK(!variant_timings.empty());
  // Ranks cycle through the measured variants.
  std::vector<RankTiming> ranks(options_.num_ranks);
  for (int i = 0; i < options_.num_ranks; ++i) {
    ranks[i] = variant_timings[i % variant_timings.size()];
  }
  DumpMethodResult result;
  result.timing = options_.event_driven_io
                      ? SimulateDumpEventDriven(ranks, options_.io)
                      : SimulateDump(ranks, options_.io);
  for (const RankTiming& t : variant_timings) {
    result.mean_analysis_seconds += t.analysis_seconds;
    result.mean_compress_seconds += t.compress_seconds;
  }
  result.mean_analysis_seconds /= variant_timings.size();
  result.mean_compress_seconds /= variant_timings.size();
  for (double r : ratios) result.mean_achieved_ratio += r;
  result.mean_achieved_ratio /= ratios.size();
  return result;
}

StatusOr<DumpMethodResult> ParallelDumpExperiment::Measure(
    const std::vector<const Tensor*>& rank_variants, const RankFn& rank) {
  FXRZ_CHECK(!rank_variants.empty());
  std::vector<RankTiming> timings(rank_variants.size());
  std::vector<double> ratios(rank_variants.size());
  std::vector<Status> statuses(rank_variants.size());
  const size_t threads = options_.measure_threads > 0
                             ? options_.measure_threads
                             : std::thread::hardware_concurrency();
  ThreadPool pool(threads);
  ParallelFor(&pool, 0, rank_variants.size(), [&](size_t i) {
    statuses[i] = rank(*rank_variants[i], &timings[i], &ratios[i]);
  });
  for (const Status& status : statuses) FXRZ_RETURN_IF_ERROR(status);
  return Combine(timings, ratios);
}

StatusOr<DumpMethodResult> ParallelDumpExperiment::RunFxrz(
    const Fxrz& fxrz, const std::vector<const Tensor*>& rank_variants) {
  if (!fxrz.model().trained()) {
    return Status::InvalidArgument("dump: FXRZ model not trained");
  }
  const double target = options_.target_ratio;
  return Measure(rank_variants, [&](const Tensor& data, RankTiming* timing,
                                    double* ratio) -> Status {
    // The query fills the analysis cache the ladder's own query reuses.
    WallTimer analysis_timer;
    (void)fxrz.model().EstimateWithConfidence(data, target);
    timing->analysis_seconds = analysis_timer.Seconds();
    WallTimer compress_timer;
    FXRZ_ASSIGN_OR_RETURN(
        const GuardedResult served,
        fxrz.GuardedCompressToRatio(data, target, PaperPolicy(0)));
    timing->compress_seconds = compress_timer.Seconds();
    timing->compressed_bytes = served.compressed.size();
    *ratio = served.measured_ratio;
    return Status::Ok();
  });
}

StatusOr<DumpMethodResult> ParallelDumpExperiment::RunFraz(
    const FrazOptions& fraz_options,
    const std::vector<const Tensor*>& rank_variants) {
  const double target = options_.target_ratio;
  return Measure(rank_variants, [&](const Tensor& data, RankTiming* timing,
                                    double* ratio) -> Status {
    const FrazResult search =
        FrazSearch(*compressor_, data, target, fraz_options);
    timing->analysis_seconds = search.search_seconds;
    FXRZ_RETURN_IF_ERROR(search.status);
    WallTimer compress_timer;
    FXRZ_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          compressor_->Compress(data, search.config));
    timing->compress_seconds = compress_timer.Seconds();
    timing->compressed_bytes = bytes.size();
    *ratio = static_cast<double>(data.size_bytes()) /
             static_cast<double>(bytes.size());
    return Status::Ok();
  });
}

}  // namespace fxrz
