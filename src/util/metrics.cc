#include "src/util/metrics.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>

#include "src/util/check.h"
#include "src/util/thread_annotations.h"

namespace fxrz {
namespace metrics {

namespace {

// Shortest round-trip decimal rendering of a double (std::to_chars without
// a precision argument). Deterministic across runs and optimization levels,
// and much friendlier to golden files than %.17g.
std::string FormatDouble(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  FXRZ_CHECK(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

// Splits "name{labels}" into its base name and the brace-enclosed label
// body ("" when unlabeled). The exporters use this to merge the `le` label
// of histogram bucket lines into an embedded label set.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string BucketLine(const std::string& base, const std::string& labels,
                       const std::string& le) {
  std::string out = base + "_bucket{";
  if (!labels.empty()) out += labels + ",";
  out += "le=\"" + le + "\"}";
  return out;
}

}  // namespace

#ifndef FXRZ_METRICS_DISABLED

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  FXRZ_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    FXRZ_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
}

void Histogram::Observe(double value) {
  // First bound >= value, i.e. the smallest bucket whose `le` admits it;
  // everything above the last bound lands in the +Inf bucket.
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

namespace {

struct Entry {
  Entry(std::string name, std::string help, MetricKind kind,
        std::vector<double> bounds)
      : name(std::move(name)), help(std::move(help)), kind(kind) {
    if (this->kind == MetricKind::kHistogram) {
      histogram.emplace(std::move(bounds));
    }
  }

  std::string name;
  std::string help;
  MetricKind kind;
  Counter counter;
  Gauge gauge;
  // Built only for histogram entries (Histogram has no default ctor).
  std::optional<Histogram> histogram;
};

class Registry {
 public:
  static Registry& Instance() {
    static Registry* registry = new Registry();  // never destroyed
    return *registry;
  }

  Entry& GetOrCreate(std::string_view name, std::string_view help,
                     MetricKind kind, std::vector<double> bounds) {
    MutexLock lock(mu_);
    auto it = index_.find(std::string(name));
    if (it != index_.end()) {
      FXRZ_CHECK(it->second->kind == kind)
          << "metric '" << std::string(name)
          << "' registered with two different kinds";
      return *it->second;
    }
    // deque never relocates existing elements, so handles stay valid.
    Entry& entry = entries_.emplace_back(std::string(name), std::string(help),
                                         kind, std::move(bounds));
    index_.emplace(entry.name, &entry);
    return entry;
  }

  MetricsSnapshot Capture() const {
    MetricsSnapshot snapshot;
    MutexLock lock(mu_);
    snapshot.values.reserve(index_.size());
    for (const auto& [name, entry] : index_) {  // map iteration: sorted
      MetricValue value;
      value.name = name;
      value.help = entry->help;
      value.kind = entry->kind;
      switch (entry->kind) {
        case MetricKind::kCounter:
          value.counter = entry->counter.Value();
          break;
        case MetricKind::kGauge:
          value.gauge = entry->gauge.Value();
          break;
        case MetricKind::kHistogram:
          value.bounds = entry->histogram->bounds();
          value.buckets = entry->histogram->BucketCounts();
          value.count = entry->histogram->Count();
          value.sum = entry->histogram->Sum();
          break;
      }
      snapshot.values.push_back(std::move(value));
    }
    return snapshot;
  }

 private:
  mutable AnnotatedMutex mu_;
  std::deque<Entry> entries_ FXRZ_GUARDED_BY(mu_);
  std::map<std::string, Entry*, std::less<>> index_ FXRZ_GUARDED_BY(mu_);
};

}  // namespace

Counter& GetCounter(std::string_view name, std::string_view help) {
  return Registry::Instance()
      .GetOrCreate(name, help, MetricKind::kCounter, {})
      .counter;
}

Gauge& GetGauge(std::string_view name, std::string_view help) {
  return Registry::Instance()
      .GetOrCreate(name, help, MetricKind::kGauge, {})
      .gauge;
}

Histogram& GetHistogram(std::string_view name, std::vector<double> bounds,
                        std::string_view help) {
  return *Registry::Instance()
              .GetOrCreate(name, help, MetricKind::kHistogram,
                           std::move(bounds))
              .histogram;
}

MetricsSnapshot MetricsSnapshot::Capture() {
  return Registry::Instance().Capture();
}

#else  // FXRZ_METRICS_DISABLED

MetricsSnapshot MetricsSnapshot::Capture() { return MetricsSnapshot(); }

#endif  // FXRZ_METRICS_DISABLED

std::vector<double> LatencyBuckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

std::vector<double> RatioBuckets() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0, 1024.0, 4096.0};
}

std::vector<double> RelErrorBuckets() {
  return {0.001, 0.005, 0.01, 0.02, 0.05, 0.08, 0.15, 0.3, 1.0};
}

std::vector<double> ThroughputBuckets() {
  return {1e6, 4e6, 16e6, 64e6, 256e6, 1e9, 4e9};
}

void MetricsSnapshot::SortByName() {
  std::sort(values.begin(), values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  delta.values.reserve(after.values.size());
  for (const MetricValue& now : after.values) {
    const MetricValue* base = before.Find(now.name);
    MetricValue value = now;
    if (base != nullptr && base->kind == now.kind) {
      switch (now.kind) {
        case MetricKind::kCounter:
          value.counter = now.counter - base->counter;
          break;
        case MetricKind::kGauge:
          break;  // gauges are point-in-time; keep the `after` value
        case MetricKind::kHistogram:
          value.count = now.count - base->count;
          value.sum = now.sum - base->sum;
          if (base->buckets.size() == now.buckets.size()) {
            for (size_t i = 0; i < value.buckets.size(); ++i) {
              value.buckets[i] = now.buckets[i] - base->buckets[i];
            }
          }
          break;
      }
    }
    delta.values.push_back(std::move(value));
  }
  return delta;
}

MetricsSnapshot MetricsSnapshot::Filter(
    bool (*keep)(const MetricValue&)) const {
  MetricsSnapshot out;
  for (const MetricValue& value : values) {
    if (keep(value)) out.values.push_back(value);
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::WithoutTimings() const {
  return Filter([](const MetricValue& value) {
    return value.name.find("_seconds") == std::string::npos &&
           value.name.find("_per_second") == std::string::npos;
  });
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricValue& value : values) {
    if (value.name == name) return &value;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricValue* value = Find(name);
  return value != nullptr ? value->counter : 0;
}

double MetricsSnapshot::GaugeValue(std::string_view name) const {
  const MetricValue* value = Find(name);
  return value != nullptr ? value->gauge : 0.0;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string prev_base;  // HELP/TYPE emitted once per family
  for (const MetricValue& value : snapshot.values) {
    std::string base;
    std::string labels;
    SplitLabels(value.name, &base, &labels);
    if (base != prev_base) {
      if (!value.help.empty()) {
        out += "# HELP " + base + " " + value.help + "\n";
      }
      out += "# TYPE " + base + " ";
      switch (value.kind) {
        case MetricKind::kCounter: out += "counter"; break;
        case MetricKind::kGauge: out += "gauge"; break;
        case MetricKind::kHistogram: out += "histogram"; break;
      }
      out += "\n";
      prev_base = base;
    }
    switch (value.kind) {
      case MetricKind::kCounter:
        out += value.name + " " + std::to_string(value.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += value.name + " " + FormatDouble(value.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < value.buckets.size(); ++i) {
          cumulative += value.buckets[i];
          const std::string le = i < value.bounds.size()
                                     ? FormatDouble(value.bounds[i])
                                     : "+Inf";
          out += BucketLine(base, labels, le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
        out += base + "_sum" + suffix + " " + FormatDouble(value.sum) + "\n";
        out += base + "_count" + suffix + " " + std::to_string(value.count) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  for (size_t i = 0; i < snapshot.values.size(); ++i) {
    const MetricValue& value = snapshot.values[i];
    std::string key = value.name;
    // The only JSON-special character a metric name can contain is the
    // double quote inside an embedded label set.
    std::string escaped;
    for (char c : key) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += "  \"" + escaped + "\": {";
    switch (value.kind) {
      case MetricKind::kCounter:
        out += "\"type\": \"counter\", \"value\": " +
               std::to_string(value.counter);
        break;
      case MetricKind::kGauge:
        out += "\"type\": \"gauge\", \"value\": " + FormatDouble(value.gauge);
        break;
      case MetricKind::kHistogram: {
        out += "\"type\": \"histogram\", \"count\": " +
               std::to_string(value.count) +
               ", \"sum\": " + FormatDouble(value.sum) + ", \"buckets\": [";
        uint64_t cumulative = 0;
        for (size_t b = 0; b < value.buckets.size(); ++b) {
          cumulative += value.buckets[b];
          if (b > 0) out += ", ";
          out += "{\"le\": ";
          out += b < value.bounds.size()
                     ? FormatDouble(value.bounds[b])
                     : std::string("\"+Inf\"");
          out += ", \"count\": " + std::to_string(cumulative) + "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
    if (i + 1 < snapshot.values.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

}  // namespace metrics
}  // namespace fxrz
