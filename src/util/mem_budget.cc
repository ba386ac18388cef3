#include "src/util/mem_budget.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/util/metrics.h"

namespace fxrz {

namespace {

// Budget observability. Gauges describe the process budget picture (one
// budget per process in production; tests that build private budgets share
// the gauges last-writer-wins, which is fine for monitoring data).
struct MemMetrics {
  metrics::Counter& reservations = metrics::GetCounter(
      "fxrz_mem_reservations_total",
      "Memory-budget reservations granted (TryReserve/TryGrow successes)");
  metrics::Counter& denied = metrics::GetCounter(
      "fxrz_mem_denied_total",
      "Memory-budget requests denied because capacity was exhausted");
  metrics::Gauge& reserved = metrics::GetGauge(
      "fxrz_mem_reserved_bytes", "Bytes currently held by reservations");
  metrics::Gauge& peak = metrics::GetGauge(
      "fxrz_mem_peak_reserved_bytes",
      "High-water mark of reserved bytes over the process lifetime");
  metrics::Gauge& budget = metrics::GetGauge(
      "fxrz_mem_budget_bytes",
      "Configured memory-budget capacity (0 = unlimited)");
};

MemMetrics& MMetrics() {
  static MemMetrics* m = new MemMetrics();  // never destroyed
  return *m;
}

}  // namespace

MemReservation::MemReservation(MemReservation&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

MemReservation& MemReservation::operator=(MemReservation&& other) noexcept {
  if (this != &other) {
    Release();
    budget_ = other.budget_;
    bytes_ = other.bytes_;
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void MemReservation::Release() {
  if (budget_ != nullptr) {
    budget_->ReleaseBytes(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }
}

bool MemReservation::TryGrow(uint64_t extra) {
  if (budget_ == nullptr || !budget_->TryAcquire(extra)) return false;
  bytes_ += extra;
  return true;
}

MemoryBudget::MemoryBudget(uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  MMetrics().budget.Set(static_cast<double>(capacity_));
}

MemReservation MemoryBudget::TryReserve(uint64_t bytes,
                                        uint64_t* observed_free_bytes) {
  if (!TryAcquire(bytes, observed_free_bytes)) return MemReservation();
  return MemReservation(this, bytes);
}

bool MemoryBudget::TryAcquire(uint64_t bytes, uint64_t* observed_free_bytes) {
  MutexLock lock(mu_);
  // Overflow-safe: reserved_ <= capacity_ always holds here, so the
  // subtraction cannot wrap.
  if (observed_free_bytes != nullptr) {
    *observed_free_bytes = capacity_ == 0
                               ? std::numeric_limits<uint64_t>::max()
                               : capacity_ - reserved_;
  }
  if (capacity_ != 0 && bytes > capacity_ - reserved_) {
    ++denied_;
    MMetrics().denied.Increment();
    return false;
  }
  reserved_ += bytes;
  if (reserved_ > peak_) peak_ = reserved_;
  MMetrics().reservations.Increment();
  PublishLocked();
  return true;
}

void MemoryBudget::ReleaseBytes(uint64_t bytes) {
  MutexLock lock(mu_);
  reserved_ = bytes <= reserved_ ? reserved_ - bytes : 0;
  PublishLocked();
}

void MemoryBudget::PublishLocked() {
  MMetrics().reserved.Set(static_cast<double>(reserved_));
  MMetrics().peak.Set(static_cast<double>(peak_));
}

uint64_t MemoryBudget::reserved_bytes() const {
  MutexLock lock(mu_);
  return reserved_;
}

uint64_t MemoryBudget::peak_reserved_bytes() const {
  MutexLock lock(mu_);
  return peak_;
}

uint64_t MemoryBudget::denied_count() const {
  MutexLock lock(mu_);
  return denied_;
}

MemoryBudget* ProcessMemoryBudget() {
  static MemoryBudget* budget = [] {
    uint64_t capacity = 0;  // unlimited
    if (const char* env = std::getenv("FXRZ_MEM_BUDGET")) {
      uint64_t parsed = 0;
      if (ParseByteSize(env, &parsed)) capacity = parsed;
    }
    return new MemoryBudget(capacity);  // never destroyed
  }();
  return budget;
}

bool ParseByteSize(std::string_view text, uint64_t* out) {
  if (text.empty() || out == nullptr) return false;
  uint64_t value = 0;
  size_t i = 0;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i) {
    const uint64_t digit = static_cast<uint64_t>(text[i] - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  if (i == 0) return false;  // no digits
  uint64_t shift = 0;
  if (i < text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[i]))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      default: return false;
    }
    ++i;
    // Allow a trailing 'b'/'B' ("64kb").
    if (i < text.size() &&
        std::tolower(static_cast<unsigned char>(text[i])) == 'b') {
      ++i;
    }
  }
  if (i != text.size()) return false;
  if (shift != 0 && value > (std::numeric_limits<uint64_t>::max() >> shift)) {
    return false;
  }
  *out = value << shift;
  return true;
}

double CodecMemoryMultiplier(std::string_view codec) {
  // Base-codec peaks, as multiples of the input tensor bytes, covering the
  // input itself plus the largest simultaneous set of intermediates
  // (quantized codes, entropy buffers, candidate archive). Conservative by
  // design; bench/mem_calibration compares them against measured RSS.
  //
  // Derived codecs wrap a base ("sz-chunked", "zfp-chunked", "sz3-chunked"): the
  // wrapper adds at most the archive copy the base already accounts for,
  // so the base multiplier is resolved from the name prefix.
  struct Entry {
    const char* prefix;
    double multiplier;
  };
  // Values calibrated against measured peak RSS on a 128^3 grid
  // (bench/mem_calibration, BENCH_mem.json) with ~25% headroom over the
  // worst observed run: sz peaked at ~8-11x (per-plane quantization plus
  // entropy buffers), sz3 at ~5x, zfp under 3x, fpzip at ~3.2x, and mgard
  // at ~27x (its multilevel lifting hierarchy materializes in double).
  static constexpr Entry kTable[] = {
      {"sz3", 6.5},  // before "sz": prefix match must take the longer name
      {"sz", 12.0},
      {"zfp", 3.0},
      {"fpzip", 4.0},
      {"mgard", 32.0},  // multilevel lifting hierarchy keeps extra levels
  };
  for (const Entry& entry : kTable) {
    const std::string_view prefix(entry.prefix);
    if (codec.size() >= prefix.size() &&
        codec.substr(0, prefix.size()) == prefix &&
        (codec.size() == prefix.size() ||
         !std::isalnum(static_cast<unsigned char>(codec[prefix.size()])))) {
      return entry.multiplier;
    }
  }
  return 8.0;  // unknown codec: conservative mid-table default
}

uint64_t EstimatePeakBytes(std::string_view codec, uint64_t tensor_bytes) {
  const double estimate =
      static_cast<double>(tensor_bytes) * CodecMemoryMultiplier(codec);
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<uint64_t>::max());
  if (estimate >= kMax) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(estimate);
}

}  // namespace fxrz
