// FxrzServer: the resilient multi-tenant serving core.
//
// Wraps one or more guard pipelines (Fxrz backends, keyed by name) behind a
// bounded submission queue and turns the library's single-request guard
// ladder into something that survives production traffic:
//
//   backpressure -- the submission queue is bounded (max_queue_depth);
//       Submit on a full queue returns ResourceExhausted IMMEDIATELY.
//       Nothing is ever dropped silently: every accepted request resolves
//       its callback exactly once with a terminal Status, every shed
//       request learns it synchronously from Submit.
//   fairness     -- requests carry a tenant key; dispatch round-robins
//       across tenants with queued work, so one chatty tenant cannot
//       starve the rest no matter how deep its backlog.
//   deadlines    -- each request's Deadline and cancel token thread
//       through the guard escalation ladder via cooperative checkpoints;
//       an expired request degrades or fails between compressions instead
//       of pinning a worker.
//   retries      -- transient failures (StatusIsRetryable: injected
//       backend faults, tripped breakers, overload) are retried up to
//       RetryOptions::max_attempts with deterministic exponential backoff;
//       permanent failures return on the first attempt.
//   breakers     -- each backend sits behind a CircuitBreaker; while it is
//       open, requests fail fast with Unavailable and the retry loop's
//       backoff paces the probes that eventually close it.
//   drain        -- Shutdown(deadline) stops intake, waits for the queue
//       and in-flight work to flush, and past the deadline force-cancels
//       stragglers through their cancel tokens (cooperative, so phase 2
//       completes within one compression per straggler). The DrainReport
//       says what happened to every request.
//
// Execution rides the existing ThreadPool (SharedThreadPool by default):
// the server spawns up to max_concurrency "worker slot" tasks that drain
// the tenant queues and retire when idle. Pool tasks the guard ladder
// spawns internally (chunked codecs' ParallelFor) are caller-
// participating, so serve slots occupying pool threads cannot deadlock
// them.
//
// All compressor access goes through the guard pipeline, whose codec runs
// use the Status-returning Compressor::Compress/Decompress (the codec
// bodies behind them are private, so nothing can bypass them).

#ifndef FXRZ_SERVE_SERVER_H_
#define FXRZ_SERVE_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/tensor.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/quota.h"
#include "src/serve/retry.h"
#include "src/util/deadline.h"
#include "src/util/mem_budget.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace fxrz {

struct ServeOptions {
  // Bound on requests queued but not yet dispatched (all tenants
  // combined). Submit sheds with ResourceExhausted beyond it, every
  // priority class alike. Low priority sheds early, once a submission
  // would fill half of it, so the capacity left under congestion goes to
  // the traffic that matters; normal and high see only the hard bound.
  size_t max_queue_depth = 256;
  // Worker slots draining the queue; 0 sizes to the pool's thread count.
  size_t max_concurrency = 0;
  // Base guard policy. The per-request deadline/cancel fields are
  // overwritten by the server; everything else applies as-is.
  GuardOptions guard;
  RetryOptions retry;
  CircuitBreakerOptions breaker;  // one breaker per backend, same policy
  // Per-tenant quotas (rate, queued bytes, in-flight slots); the defaults
  // are unlimited. Enforced at Submit (immediate ResourceExhausted) and at
  // dispatch (capped tenants wait, others run).
  QuotaOptions quota;
  // Memory budget for admission control in the guard ladder (reservations
  // sized by per-codec peak estimates; see util/mem_budget.h). nullptr
  // uses ProcessMemoryBudget(), whose capacity comes from FXRZ_MEM_BUDGET
  // and is unlimited when unset. Must outlive the server.
  MemoryBudget* memory = nullptr;
  // Execution pool; nullptr uses SharedThreadPool(). Must outlive the
  // server.
  ThreadPool* pool = nullptr;
};

// Terminal outcome of one accepted request, delivered to its callback
// exactly once.
struct ServeReply {
  uint64_t request_id = 0;
  std::string tenant;
  std::string backend;
  // Terminal status. result is only meaningful when ok (note that a
  // deadline-degraded serve IS ok -- check result.deadline_degraded).
  Status status;
  GuardedResult result;
  // Guard-ladder invocations spent (1 + retries).
  int attempts = 0;
  // Always 1: every request dispatches alone. Kept only because the
  // benchmark harness (perfbench/fxrz_perfbench.cc) still reads it.
  size_t batch_members = 1;
  double queue_seconds = 0.0;  // submission -> dispatch
  double serve_seconds = 0.0;  // dispatch -> terminal (incl. backoffs)
};

// Invoked exactly once per accepted request, from a worker thread. Must
// not call back into the server (Submit from a callback deadlocks the
// worker's slot accounting) and should be cheap; heavy post-processing
// belongs on the caller's side of a queue.
using ServeCallback = std::function<void(ServeReply)>;

struct ServeRequest {
  // Fairness key; "" is a valid (shared) tenant.
  std::string tenant;
  // Shed class under overload (see max_queue_depth). Priority orders SHEDDING
  // only -- dispatch among queued requests stays round-robin-fair, so a
  // flood of high-priority requests cannot starve admitted work.
  RequestPriority priority = RequestPriority::kNormal;
  // Backend name from the map the server was built with; "" selects the
  // sole backend (error when the server has several).
  std::string backend;
  // Borrowed; must stay alive until the callback runs.
  const Tensor* data = nullptr;
  double target_ratio = 0.0;
  // Optional per-request deadline and caller-held cancel token (chained
  // with the server's force-cancel drain control via a per-request child
  // token).
  Deadline deadline;
  const CancelToken* cancel = nullptr;
  ServeCallback callback;
};

struct DrainReport {
  // Phase 1 sufficed: everything flushed before the drain deadline.
  bool clean = false;
  // Requests that resolved with a non-Cancelled terminal status during the
  // drain (served, degraded, or failed on their own terms).
  uint64_t flushed = 0;
  // Requests force-cancelled past the drain deadline (terminal status
  // Cancelled).
  uint64_t cancelled = 0;
};

class FxrzServer {
 public:
  // Single-backend convenience: registers `fxrz` under its compressor's
  // name. The Fxrz objects are borrowed and must outlive the server.
  explicit FxrzServer(const Fxrz& fxrz, ServeOptions options = {});
  FxrzServer(std::map<std::string, const Fxrz*> backends,
             ServeOptions options = {});

  FxrzServer(const FxrzServer&) = delete;
  FxrzServer& operator=(const FxrzServer&) = delete;

  // Force-drains (Shutdown with an already-expired deadline) unless
  // Shutdown already ran: pending requests resolve Cancelled rather than
  // dangle.
  ~FxrzServer();

  // Enqueues a request. Ok(request_id): the callback will fire exactly
  // once. ResourceExhausted: queue full, request shed, callback will NOT
  // fire. Unavailable: draining/shut down. InvalidArgument: malformed
  // request (no data/callback, unknown backend).
  [[nodiscard]] StatusOr<uint64_t> Submit(ServeRequest request);

  // Blocking convenience over Submit for clients that want the library
  // call shape. Must not be called from a pool thread (it parks the
  // calling thread until the callback fires). request.callback must be
  // empty.
  StatusOr<GuardedResult> ServeSync(ServeRequest request);

  // Stops intake (Submit returns Unavailable), flushes queued + in-flight
  // requests until `deadline`, then force-cancels stragglers and waits for
  // them to resolve. Idempotent: later calls return the first report.
  DrainReport Shutdown(Deadline deadline = Deadline::Infinite());

  // Test hooks: freeze dispatch so tests can build a precise queue state
  // (backpressure, fairness, drain-with-stragglers) without racing the
  // workers. Paused workers keep their pool threads; Shutdown's
  // force-cancel phase resumes implicitly.
  void Pause();
  void Resume();

  size_t queue_depth() const;
  // The backend's breaker, for tests and introspection; nullptr for
  // unknown names.
  CircuitBreaker* breaker(const std::string& name);

 private:
  using Clock = std::chrono::steady_clock;

  struct Backend {
    const Fxrz* fxrz = nullptr;
    std::unique_ptr<CircuitBreaker> breaker;
  };

  struct Pending {
    uint64_t id = 0;
    ServeRequest request;
    Backend* backend = nullptr;
    Clock::time_point enqueued{};
    size_t bytes = 0;  // tensor bytes, the unit the byte quota charges in
  };

  // Overload-shed decision for one submission, made under mu_. OK admits.
  Status ShedDecisionLocked(RequestPriority priority) FXRZ_REQUIRES(mu_);

  void WorkerSlot();
  bool PopNextLocked(Pending* out) FXRZ_REQUIRES(mu_);
  // Serves one dispatched request: registers its cancel token, runs the
  // attempt loop, then fires the exactly-once callback and releases its
  // quota slot and drain accounting.
  void Process(Pending item);
  // Attempt loop (breaker -> guard -> retry/backoff) for one request.
  Status RunAttempts(const Pending& item, const CancelToken& cancel,
                     ServeReply* reply);

  const ServeOptions options_;
  ThreadPool* const pool_;
  MemoryBudget* const memory_;  // options_.memory or ProcessMemoryBudget()
  size_t max_concurrency_;
  std::map<std::string, Backend> backends_;  // immutable after construction
  QuotaManager quota_;  // own lock; acquired after mu_ (server -> quota)

  mutable AnnotatedMutex mu_;
  CondVar work_cv_;    // workers: queue state / pause / drain changed
  CondVar retry_cv_;   // backoff sleepers, woken early by force-cancel
  CondVar drain_cv_;   // Shutdown: pending count reached zero
  uint64_t next_id_ FXRZ_GUARDED_BY(mu_) = 0;
  // Per-tenant FIFO queues plus the round-robin ring of tenant keys.
  std::map<std::string, std::deque<Pending>> tenants_ FXRZ_GUARDED_BY(mu_);
  std::vector<std::string> rr_ring_ FXRZ_GUARDED_BY(mu_);
  size_t rr_cursor_ FXRZ_GUARDED_BY(mu_) = 0;
  size_t queued_ FXRZ_GUARDED_BY(mu_) = 0;
  size_t processing_ FXRZ_GUARDED_BY(mu_) = 0;
  size_t active_slots_ FXRZ_GUARDED_BY(mu_) = 0;
  // Effective cancel token of every dispatched request, for force-cancel.
  std::map<uint64_t, CancelToken*> inflight_ FXRZ_GUARDED_BY(mu_);
  bool paused_ FXRZ_GUARDED_BY(mu_) = false;
  bool draining_ FXRZ_GUARDED_BY(mu_) = false;
  bool force_cancelled_ FXRZ_GUARDED_BY(mu_) = false;
  bool shut_down_ FXRZ_GUARDED_BY(mu_) = false;
  uint64_t drain_flushed_ FXRZ_GUARDED_BY(mu_) = 0;
  uint64_t drain_cancelled_ FXRZ_GUARDED_BY(mu_) = 0;
  DrainReport drain_report_ FXRZ_GUARDED_BY(mu_);
};

}  // namespace fxrz

#endif  // FXRZ_SERVE_SERVER_H_
