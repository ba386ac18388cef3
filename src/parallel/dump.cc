#include "src/parallel/dump.h"

#include <thread>

#include "src/parallel/event_io.h"

#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace fxrz {

namespace {

// A rank's final compression: records its timing and ratio, or returns the
// codec's Status.
Status TimedCompress(const Compressor& compressor, const Tensor& data,
                     double config, RankTiming* timing, double* ratio) {
  WallTimer compress_timer;
  FXRZ_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                        compressor.Compress(data, config));
  timing->compress_seconds = compress_timer.Seconds();
  timing->compressed_bytes = bytes.size();
  *ratio = static_cast<double>(data.size_bytes()) /
           static_cast<double>(bytes.size());
  return Status::Ok();
}

// The first failed rank's Status, in rank order, or OK.
Status FirstFailure(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace

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

StatusOr<DumpMethodResult> ParallelDumpExperiment::RunFxrz(
    const FxrzModel& model, const std::vector<const Tensor*>& rank_variants) {
  FXRZ_CHECK(!rank_variants.empty());
  FXRZ_CHECK(model.trained());
  std::vector<RankTiming> timings(rank_variants.size());
  std::vector<double> ratios(rank_variants.size());
  std::vector<Status> statuses(rank_variants.size());

  const size_t threads = options_.measure_threads > 0
                             ? options_.measure_threads
                             : std::thread::hardware_concurrency();
  ThreadPool pool(threads);
  ParallelFor(&pool, 0, rank_variants.size(), [&](size_t i) {
    const Tensor& data = *rank_variants[i];
    WallTimer analysis_timer;
    const double config = model.EstimateConfig(data, options_.target_ratio);
    timings[i].analysis_seconds = analysis_timer.Seconds();
    statuses[i] =
        TimedCompress(*compressor_, data, config, &timings[i], &ratios[i]);
  });
  FXRZ_RETURN_IF_ERROR(FirstFailure(statuses));
  return Combine(timings, ratios);
}

StatusOr<DumpMethodResult> ParallelDumpExperiment::RunFraz(
    const FrazOptions& fraz_options,
    const std::vector<const Tensor*>& rank_variants) {
  FXRZ_CHECK(!rank_variants.empty());
  std::vector<RankTiming> timings(rank_variants.size());
  std::vector<double> ratios(rank_variants.size());
  std::vector<Status> statuses(rank_variants.size());

  const size_t threads = options_.measure_threads > 0
                             ? options_.measure_threads
                             : std::thread::hardware_concurrency();
  ThreadPool pool(threads);
  ParallelFor(&pool, 0, rank_variants.size(), [&](size_t i) {
    const Tensor& data = *rank_variants[i];
    const FrazResult search =
        FrazSearch(*compressor_, data, options_.target_ratio, fraz_options);
    timings[i].analysis_seconds = search.search_seconds;
    statuses[i] = search.status.ok()
                      ? TimedCompress(*compressor_, data, search.config,
                                      &timings[i], &ratios[i])
                      : search.status;
  });
  FXRZ_RETURN_IF_ERROR(FirstFailure(statuses));
  return Combine(timings, ratios);
}

}  // namespace fxrz
