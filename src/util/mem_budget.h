// Process-wide memory budget with RAII reservations: the admission-control
// primitive that keeps peak working-set bounded under overload.
//
// The serving path's scarce resource is not CPU but memory (SZx's design
// point): one guarded request can hold the input tensor, quantized
// intermediates, and one or more candidate archives at once, and the knob
// search keeps a best archive beside each probe. Without a budget,
// a burst of large requests -- or one hostile tenant -- OOMs the process
// even though the submission queue itself is bounded.
//
// Model:
//
//   MemoryBudget budget(256 << 20);             // capacity in bytes
//   MemReservation r = budget.TryReserve(need); // admission control
//   if (!r.held()) return Status::ResourceExhausted(...);  // never OOM
//   ...                                         // r releases on scope exit
//   if (r.TryGrow(extra)) { /* run the memory-heavy tier */ }
//
// TryReserve never blocks and never over-commits: the sum of held
// reservations is <= capacity at every instant (counter-asserted by the
// overload-chaos gate via peak_reserved_bytes). Denial is a recoverable
// ResourceExhausted-class outcome, not an error -- the caller sheds, skips
// a memory-heavy tier (GuardedResult::memory_degraded), or retries after
// backoff, and queued work proceeds as soon as reservations free.
//
// Reservation sizes come from EstimatePeakBytes: tensor bytes x a per-codec
// peak multiplier (calibrated against measured RSS by bench/mem_calibration,
// which writes BENCH_mem.json). Estimates are deliberately conservative --
// the budget exists to prevent OOM, not to pack memory tightly.
//
// ProcessMemoryBudget() is the shared instance the serving layer uses by
// default; its capacity comes from the FXRZ_MEM_BUDGET environment variable
// (bytes, with optional k/m/g suffix) read once at first use, and is
// unlimited when the variable is unset -- so nothing changes for callers
// that never configure it.

#ifndef FXRZ_UTIL_MEM_BUDGET_H_
#define FXRZ_UTIL_MEM_BUDGET_H_

#include <cstdint>
#include <string_view>

#include "src/util/thread_annotations.h"

namespace fxrz {

class MemoryBudget;

// Move-only RAII hold on budget bytes. A default-constructed (or moved-
// from, or denied) reservation holds nothing and releases nothing.
class MemReservation {
 public:
  MemReservation() = default;
  MemReservation(MemReservation&& other) noexcept;
  MemReservation& operator=(MemReservation&& other) noexcept;
  MemReservation(const MemReservation&) = delete;
  MemReservation& operator=(const MemReservation&) = delete;
  ~MemReservation() { Release(); }

  // True when this reservation holds budget bytes.
  bool held() const { return budget_ != nullptr; }
  uint64_t bytes() const { return bytes_; }

  // Returns the bytes to the budget now (idempotent).
  void Release();

  // Tries to extend this reservation by `extra` bytes; on success the
  // reservation owns the larger amount, on denial it is unchanged. Only
  // valid on a held reservation.
  [[nodiscard]] bool TryGrow(uint64_t extra);

 private:
  friend class MemoryBudget;
  MemReservation(MemoryBudget* budget, uint64_t bytes)
      : budget_(budget), bytes_(bytes) {}

  MemoryBudget* budget_ = nullptr;  // nullptr = empty
  uint64_t bytes_ = 0;
};

class MemoryBudget {
 public:
  // capacity_bytes == 0 means unlimited: every TryReserve succeeds and the
  // budget only does accounting (reserved/peak/metrics).
  explicit MemoryBudget(uint64_t capacity_bytes = 0);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  // Non-blocking admission: an empty reservation (held() == false) means
  // the bytes would exceed capacity. Reserving 0 bytes always succeeds.
  // When observed_free_bytes is non-null it receives the free capacity
  // seen under the admission lock -- the value the decision was actually
  // made against (UINT64_MAX when the budget is unlimited) -- so denial
  // messages cannot tear against concurrent reservations.
  [[nodiscard]] MemReservation TryReserve(uint64_t bytes,
                                          uint64_t* observed_free_bytes =
                                              nullptr);

  bool unlimited() const { return capacity_ == 0; }
  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t reserved_bytes() const;
  // High-water mark of reserved_bytes over the budget's lifetime. The
  // overload-chaos gate asserts peak <= capacity: reservations never
  // over-commit, no matter the interleaving.
  uint64_t peak_reserved_bytes() const;
  uint64_t denied_count() const;

 private:
  friend class MemReservation;

  bool TryAcquire(uint64_t bytes, uint64_t* observed_free_bytes = nullptr);
  void ReleaseBytes(uint64_t bytes);
  void PublishLocked() FXRZ_REQUIRES(mu_);

  const uint64_t capacity_;
  mutable AnnotatedMutex mu_;
  uint64_t reserved_ FXRZ_GUARDED_BY(mu_) = 0;
  uint64_t peak_ FXRZ_GUARDED_BY(mu_) = 0;
  uint64_t denied_ FXRZ_GUARDED_BY(mu_) = 0;
};

// The budget the serving layer uses when none is injected. Capacity comes
// from FXRZ_MEM_BUDGET (parsed once, thread-safe); unset or unparsable
// means unlimited. Never destroyed.
MemoryBudget* ProcessMemoryBudget();

// Parses a byte size like "1048576", "64k", "256m", "2g" (case-insensitive
// suffixes, powers of 1024). Returns false on empty/garbage/overflow.
bool ParseByteSize(std::string_view text, uint64_t* out);

// Peak working-set multiplier for compressing one tensor with the named
// codec: peak_bytes ~= tensor_bytes * multiplier. Derived-codec names
// ("sz-chunked", "zfp-rel") resolve through their base codec; unknown
// names get a conservative default. Calibrated by bench/mem_calibration.
double CodecMemoryMultiplier(std::string_view codec);

// tensor_bytes x CodecMemoryMultiplier(codec), saturating instead of
// overflowing.
uint64_t EstimatePeakBytes(std::string_view codec, uint64_t tensor_bytes);

}  // namespace fxrz

#endif  // FXRZ_UTIL_MEM_BUDGET_H_
