// Per-request deadlines and cooperative cancellation.
//
// The serving layer attaches a Deadline to every request and threads it --
// together with an optional CancelToken -- through the guard escalation
// ladder (core/guard.cc). Long-running work checks CheckCancel at natural
// boundaries (before every compression) so a slow request degrades or
// returns DeadlineExceeded/Cancelled instead of pinning a worker thread.
// Nothing here preempts: cancellation is purely cooperative, which is why
// the checkpoints must sit between compressor runs, not inside them.
//
// Deadlines are std::chrono::steady_clock points (wall-clock jumps must not
// expire requests). A default-constructed Deadline is infinite and costs
// nothing to check.

#ifndef FXRZ_UTIL_DEADLINE_H_
#define FXRZ_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <string>

#include "src/util/status.h"

namespace fxrz {

// A point in time after which a request must stop doing new work.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(Clock::time_point when) { return Deadline(when); }
  // Expires `seconds` from now; seconds <= 0 is already expired.
  static Deadline After(double seconds) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  }

  bool infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= when_; }

  // Seconds until expiry: +inf when infinite, <= 0 when expired.
  double remaining_seconds() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ - Clock::now()).count();
  }

  // Only meaningful for finite deadlines (used for timed waits; callers
  // branch on infinite() first -- waiting until a sentinel far-future point
  // triggers overflow bugs in some standard libraries).
  Clock::time_point time_point() const { return when_; }

  // The earlier of the two deadlines.
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    if (a.infinite_) return b;
    if (b.infinite_) return a;
    return a.when_ <= b.when_ ? a : b;
  }

 private:
  explicit Deadline(Clock::time_point when) : infinite_(false), when_(when) {}

  bool infinite_ = true;
  Clock::time_point when_{};
};

// A one-way cancellation flag shared between a controller (the server's
// drain path, a client giving up) and the worker executing the request.
// Once cancelled it stays cancelled; there is no reset, so a token is
// per-request or per-drain, never reused.
//
// Tokens form chains: a token constructed with a parent reports cancelled
// when either it or any ancestor is cancelled. The serving layer uses this
// to compose the caller's per-request token with the server-wide drain
// token without either side knowing about the other. The parent must
// outlive the child (per-request children of a server-lifetime drain token
// satisfy this trivially).
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  const CancelToken* const parent_ = nullptr;
  // lock-free: monotonic one-way flag; release store in Cancel pairs with
  // the acquire load in cancelled() so work done before cancelling is
  // visible to the observer that acts on it.
  std::atomic<bool> cancelled_{false};
};

// Cooperative checkpoint: OK while the request may continue. Cancellation
// wins over deadline expiry (an explicit stop is more informative than a
// timeout that happened to coincide). `where` names the checkpoint for the
// error message, e.g. "guard: model tier".
inline Status CheckCancel(const Deadline& deadline, const CancelToken* cancel,
                          const char* where) {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(std::string(where) + ": request cancelled");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded(std::string(where) +
                                    ": deadline expired");
  }
  return Status::Ok();
}

}  // namespace fxrz

#endif  // FXRZ_UTIL_DEADLINE_H_
