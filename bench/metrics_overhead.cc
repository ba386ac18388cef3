// Metrics-overhead bench: what the observability layer costs relative to
// the compression work it instruments (acceptance gate: < 1% of one
// model-tier request's compression time).
//
// Two measurements:
//
//   1. Primitive costs -- tight-loop nanoseconds per counter increment,
//      histogram observe, and trace span open/close (the only operations
//      instrumentation sites perform after registration).
//   2. A real compression -- sz Compress of a 64^3 GRF, the cheapest
//      work a guarded request performs.
//
// The gate compares a deliberately inflated per-request op budget (far
// above what the serving path actually executes -- a guarded request
// touches a few dozen metric sites, the model is charged hundreds)
// against the compression time. Gating on the modeled ratio instead of
// back-to-back wall-clock A/B runs keeps the check robust on loaded
// single-core CI machines: primitive costs are stable at nanosecond
// scale, while a 1% difference between two multi-millisecond runs is
// below scheduler noise.
//
// Usage: metrics_overhead [--gate]
//   --gate   exit nonzero when the modeled overhead reaches 1%

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace {

using namespace fxrz;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Inflated per-request op counts for the gate model. An actual guarded
// request executes on the order of 15 counter updates, 10 histogram
// observations, and 10 spans; the model charges an order of magnitude
// more so the gate only trips on a real regression (e.g. a lock or an
// allocation sneaking into the hot path).
constexpr double kCountersPerRequest = 200;
constexpr double kObservesPerRequest = 100;
constexpr double kSpansPerRequest = 100;

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;

  if (!metrics::Enabled()) {
    std::printf("metrics layer compiled out (FXRZ_METRICS=OFF): "
                "overhead is zero by construction\n");
    return 0;
  }

  constexpr int kIters = 1 << 21;
  metrics::Counter& counter =
      metrics::GetCounter("fxrz_bench_overhead_total");
  metrics::Histogram& histogram = metrics::GetHistogram(
      "fxrz_bench_overhead_hist", metrics::LatencyBuckets());
  metrics::Histogram& span_hist = trace::StageHistogram("bench.overhead");

  const double counter_s = TimeSeconds([&] {
    for (int i = 0; i < kIters; ++i) counter.Increment();
  });
  const double observe_s = TimeSeconds([&] {
    for (int i = 0; i < kIters; ++i) {
      histogram.Observe(static_cast<double>(i & 1023) * 1e-6);
    }
  });
  constexpr int kSpanIters = 1 << 18;  // spans cost two clock reads
  const double span_s = TimeSeconds([&] {
    for (int i = 0; i < kSpanIters; ++i) {
      trace::Span span("bench.overhead", span_hist);
    }
  });

  const double counter_ns = 1e9 * counter_s / kIters;
  const double observe_ns = 1e9 * observe_s / kIters;
  const double span_ns = 1e9 * span_s / kSpanIters;
  std::printf("primitive costs (per op):\n");
  std::printf("  counter increment  %8.2f ns\n", counter_ns);
  std::printf("  histogram observe  %8.2f ns\n", observe_ns);
  std::printf("  trace span         %8.2f ns\n", span_ns);

  // The cheapest real unit of work a guarded request performs: one sz
  // compression of a 64^3 field. Best of three, so a scheduler hiccup
  // inflates neither side of the ratio.
  const Tensor data = GaussianRandomField3D(64, 64, 64, 3.0, 515);
  const std::unique_ptr<Compressor> comp = MakeCompressor("sz");
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config = space.min * 100;
  double compress_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = TimeSeconds([&] {
      if (!comp->Compress(data, config).ok()) {
        std::fprintf(stderr, "compress failed\n");
      }
    });
    if (s < compress_s) compress_s = s;
  }

  const double modeled_s = 1e-9 * (kCountersPerRequest * counter_ns +
                                   kObservesPerRequest * observe_ns +
                                   kSpansPerRequest * span_ns);
  const double overhead_pct = 100.0 * modeled_s / compress_s;
  std::printf("\ncompress (sz, 64^3, best of 3): %10.6f s\n", compress_s);
  std::printf("modeled per-request metrics cost: %8.6f s "
              "(%.0f counters + %.0f observes + %.0f spans)\n",
              modeled_s, kCountersPerRequest, kObservesPerRequest,
              kSpansPerRequest);
  std::printf("modeled overhead: %.4f%% of compress time (gate: < 1%%)\n",
              overhead_pct);

  if (gate && !(overhead_pct < 1.0)) {
    std::fprintf(stderr, "FAIL: modeled metrics overhead %.4f%% >= 1%%\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}
