// Process-wide metrics for the serving path.
//
// The guarded pipeline makes tiered decisions (model estimate -> refine ->
// knob search) whose frequencies, byte volumes, and latencies an operator
// must be able to see before trusting any scaling change. This registry
// holds three metric kinds:
//
//   Counter    monotonically increasing u64 (requests, cache hits, bytes)
//   Gauge      last-written double (rolling drift error, training rows)
//   Histogram  fixed-bucket distribution with sum + count (latencies,
//              compression ratios, relative errors)
//
// Design constraints, in order:
//
//   1. Hot-path updates are single relaxed atomic RMWs -- no locks, no
//      allocation, no string formatting. Registration (GetCounter et al.)
//      takes a mutex and may allocate, but instrumentation sites register
//      once (function-local static reference) and then only touch atomics.
//   2. Handles are process-lifetime: the registry never deletes an entry,
//      so a `Counter&` obtained at any point stays valid forever.
//   3. Everything compiles to no-ops under -DFXRZ_METRICS=OFF (which
//      defines FXRZ_METRICS_DISABLED): the classes lose their members, the
//      update methods become empty inlines, and Capture returns an empty
//      snapshot. MetricsSnapshot itself and the exporters stay available
//      in both builds (they are pure functions over snapshot data), so
//      exporter tests run everywhere.
//
// Naming scheme (enforced by convention, documented in DESIGN.md):
//
//   fxrz_<subsystem>_<noun>_total          counters
//   fxrz_<subsystem>_<noun>                gauges
//   fxrz_<subsystem>_<noun>_<unit>         histograms (seconds|bytes|ratio)
//
// A name may carry one Prometheus-style label set, embedded verbatim:
// "fxrz_guard_served_total{tier=\"refined\"}". The exporters understand the
// embedded form (histogram bucket lines merge the `le` label into it), so
// scrapes look like a normal labeled Prometheus family.

#ifndef FXRZ_UTIL_METRICS_H_
#define FXRZ_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fxrz {
namespace metrics {

// True when the layer is compiled in (default). -DFXRZ_METRICS=OFF builds
// report false and every update below folds away.
constexpr bool Enabled() {
#ifdef FXRZ_METRICS_DISABLED
  return false;
#else
  return true;
#endif
}

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
#ifndef FXRZ_METRICS_DISABLED
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  uint64_t Value() const {
#ifndef FXRZ_METRICS_DISABLED
    return value_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

 private:
#ifndef FXRZ_METRICS_DISABLED
  // lock-free: relaxed monotonic counter; readers tolerate any interleaving.
  std::atomic<uint64_t> value_{0};
#endif
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
#ifndef FXRZ_METRICS_DISABLED
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  double Value() const {
#ifndef FXRZ_METRICS_DISABLED
    return value_.load(std::memory_order_relaxed);
#else
    return 0.0;
#endif
  }

 private:
#ifndef FXRZ_METRICS_DISABLED
  // lock-free: relaxed last-writer-wins gauge; no cross-field invariant.
  std::atomic<double> value_{0.0};
#endif
};

// Fixed-bucket histogram. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; the implicit last bucket is (+Inf]. A value
// below the first bound lands in bucket 0 (the "underflow" bucket is simply
// the first one), a value above every bound lands in the final +Inf bucket.
// Bounds are fixed at registration; Observe is one binary search plus two
// relaxed atomic updates.
class Histogram {
 public:
#ifdef FXRZ_METRICS_DISABLED
  Histogram() = default;
  void Observe(double) {}
  uint64_t Count() const { return 0; }
  double Sum() const { return 0.0; }
  const std::vector<double>& bounds() const {
    static const std::vector<double> empty;
    return empty;
  }
  std::vector<uint64_t> BucketCounts() const { return {}; }
#else
  // `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);
  void Observe(double value);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  // Non-cumulative per-bucket counts, size bounds().size() + 1.
  std::vector<uint64_t> BucketCounts() const;
#endif
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
#ifndef FXRZ_METRICS_DISABLED
  std::vector<double> bounds_;  // immutable after construction
  // lock-free: relaxed per-bucket/count/sum updates; a snapshot may observe
  // a bucket increment before the matching count/sum (documented tearing,
  // acceptable for monitoring data).
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
#endif
};

// Registration. Idempotent by name: the first call creates the metric, every
// later call returns the same object (a Histogram keeps its original bounds).
// Registering one name as two different kinds aborts -- that is a programming
// error, not an operational condition. Handles live for the process lifetime.
#ifndef FXRZ_METRICS_DISABLED
Counter& GetCounter(std::string_view name, std::string_view help = "");
Gauge& GetGauge(std::string_view name, std::string_view help = "");
Histogram& GetHistogram(std::string_view name, std::vector<double> bounds,
                        std::string_view help = "");
#else
inline Counter& GetCounter(std::string_view, std::string_view = "") {
  static Counter dummy;
  return dummy;
}
inline Gauge& GetGauge(std::string_view, std::string_view = "") {
  static Gauge dummy;
  return dummy;
}
inline Histogram& GetHistogram(std::string_view, std::vector<double>,
                               std::string_view = "") {
  static Histogram dummy;
  return dummy;
}
#endif

// Canonical bucket sets, shared so related histograms stay comparable.
std::vector<double> LatencyBuckets();     // 1us .. 10s, decades
std::vector<double> ByteBuckets();        // 64B .. 64MB, x16
std::vector<double> RatioBuckets();       // compression ratios 1 .. 4096
std::vector<double> RelErrorBuckets();    // relative errors 1e-3 .. 1
std::vector<double> ThroughputBuckets();  // bytes/s, 1MB/s .. 4GB/s, x4

// -------- Snapshots & exporters (available in every build) ---------------

enum class MetricKind { kCounter, kGauge, kHistogram };

// One captured metric. For histograms `buckets` holds NON-cumulative counts
// (size bounds.size() + 1, the last being the +Inf bucket); the exporters
// cumulate for Prometheus `le` semantics.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};

// A point-in-time copy of the registry, sorted by metric name (so exporter
// output ordering is stable across runs and builds).
class MetricsSnapshot {
 public:
  // Captures every registered metric. Empty when the layer is disabled.
  static MetricsSnapshot Capture();

  // after - before: counters and histogram buckets/count/sum subtract
  // (a metric absent from `before` counts as zero there); gauges keep the
  // `after` value. Metrics present only in `before` are dropped -- the
  // registry never deletes, so that only happens with hand-built snapshots.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  // Keeps only metrics for which `keep` returns true.
  MetricsSnapshot Filter(bool (*keep)(const MetricValue&)) const;
  // Drops wall-clock-derived histograms (names containing "_seconds" or
  // "_per_second") -- what the deterministic golden tests compare, since
  // every other built-in metric is a pure function of the inputs.
  MetricsSnapshot WithoutTimings() const;

  const MetricValue* Find(std::string_view name) const;
  uint64_t CounterValue(std::string_view name) const;  // 0 when absent
  double GaugeValue(std::string_view name) const;      // 0 when absent

  // Sorted by name. Public so tests can hand-build snapshots.
  std::vector<MetricValue> values;

  void SortByName();
};

// Prometheus text exposition format: # HELP / # TYPE headers, cumulative
// histogram buckets with `le` labels merged into any embedded label set,
// `_sum` and `_count` lines. Deterministic: sorted input, shortest
// round-trip double formatting.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

// JSON object keyed by metric name: {"type": ..., "value"| "count"/"sum"/
// "buckets" (cumulative, with "le" bounds; final bound "+Inf")}. Same
// ordering and number formatting guarantees as the Prometheus exporter.
std::string ToJson(const MetricsSnapshot& snapshot);

}  // namespace metrics
}  // namespace fxrz

#endif  // FXRZ_UTIL_METRICS_H_
