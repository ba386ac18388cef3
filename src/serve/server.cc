#include "src/serve/server.h"

#include <cmath>
#include <utility>

#include "src/util/check.h"
#include "src/util/fault_injection.h"
#include "src/util/trace.h"

namespace fxrz {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Serving-layer observability. Handles resolve once; updates are
// lock-free. The *_seconds histograms are timing-dependent and therefore
// dropped by MetricsSnapshot::WithoutTimings, keeping the stats golden
// deterministic.
struct ServeMetrics {
  metrics::Counter& submitted = metrics::GetCounter(
      "fxrz_serve_requests_total", "Requests accepted into the serve queue");
  metrics::Counter& shed = metrics::GetCounter(
      "fxrz_serve_shed_total",
      "Requests rejected at intake with ResourceExhausted (queue full)");
  metrics::Counter& retries = metrics::GetCounter(
      "fxrz_serve_retries_total",
      "Retry attempts after a transient failure (excludes first attempts)");
  metrics::Gauge& queue_depth = metrics::GetGauge(
      "fxrz_serve_queue_depth",
      "Requests queued but not yet dispatched (all tenants)");
  metrics::Gauge& inflight = metrics::GetGauge(
      "fxrz_serve_inflight", "Requests currently executing in worker slots");
  metrics::Histogram& queue_seconds = metrics::GetHistogram(
      "fxrz_serve_queue_seconds", metrics::LatencyBuckets(),
      "Submission-to-dispatch wait per request (dropped by WithoutTimings)");
  metrics::Histogram& latency_seconds = metrics::GetHistogram(
      "fxrz_serve_latency_seconds", metrics::LatencyBuckets(),
      "Dispatch-to-terminal latency per request, backoffs included "
      "(dropped by WithoutTimings)");
};

ServeMetrics& SMetrics() {
  static ServeMetrics* m = new ServeMetrics();  // never destroyed
  return *m;
}

// Terminal-outcome counter, labeled like the guard's per-tier counter.
metrics::Counter& OutcomeCounter(const Status& status, bool degraded) {
  auto make = [](const char* outcome) -> metrics::Counter* {
    return &metrics::GetCounter(
        std::string("fxrz_serve_completed_total{outcome=\"") + outcome +
            "\"}",
        "Accepted requests resolved, by terminal outcome");
  };
  static metrics::Counter* ok = make("ok");
  static metrics::Counter* deg = make("degraded");
  static metrics::Counter* deadline = make("deadline");
  static metrics::Counter* cancelled = make("cancelled");
  static metrics::Counter* unavailable = make("unavailable");
  static metrics::Counter* out_of_range = make("out-of-range");
  static metrics::Counter* error = make("error");
  if (status.ok()) return degraded ? *deg : *ok;
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded: return *deadline;
    case StatusCode::kCancelled: return *cancelled;
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted: return *unavailable;
    case StatusCode::kOutOfRange: return *out_of_range;
    default: return *error;
  }
}

// Early-shed counter, labeled by the refused priority class. High priority
// never early-sheds (it only sees the hard queue bound, counted by
// fxrz_serve_shed_total), so only low/normal labels exist.
metrics::Counter& OverloadShedCounter(RequestPriority priority) {
  auto make = [](const char* p) -> metrics::Counter* {
    return &metrics::GetCounter(
        std::string("fxrz_serve_overload_shed_total{priority=\"") + p +
            "\"}",
        "Submissions refused by the adaptive overload shed, by priority");
  };
  static metrics::Counter* low = make("low");
  static metrics::Counter* normal = make("normal");
  return priority == RequestPriority::kLow ? *low : *normal;
}

}  // namespace

FxrzServer::FxrzServer(const Fxrz& fxrz, ServeOptions options)
    : FxrzServer(std::map<std::string, const Fxrz*>{
                     {fxrz.compressor().name(), &fxrz}},
                 std::move(options)) {}

FxrzServer::FxrzServer(std::map<std::string, const Fxrz*> backends,
                       ServeOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : SharedThreadPool()),
      memory_(options_.memory != nullptr ? options_.memory
                                         : ProcessMemoryBudget()),
      quota_(options_.quota) {
  FXRZ_CHECK(!backends.empty()) << "FxrzServer needs at least one backend";
  FXRZ_CHECK_GE(options_.max_queue_depth, 1u);
  max_concurrency_ = options_.max_concurrency != 0 ? options_.max_concurrency
                                                   : pool_->num_threads();
  for (auto& [name, fxrz] : backends) {
    FXRZ_CHECK(fxrz != nullptr) << "null backend \"" << name << "\"";
    Backend backend;
    backend.fxrz = fxrz;
    backend.breaker = std::make_unique<CircuitBreaker>(name, options_.breaker);
    backends_.emplace(name, std::move(backend));
  }
}

FxrzServer::~FxrzServer() {
  bool need_drain;
  {
    MutexLock lock(mu_);
    need_drain = !shut_down_;
  }
  // Already-expired deadline: skip straight to force-cancel so destruction
  // never hangs on queued work (pending requests resolve Cancelled).
  if (need_drain) Shutdown(Deadline::After(0.0));
}

StatusOr<uint64_t> FxrzServer::Submit(ServeRequest request) {
  if (request.data == nullptr) {
    return Status::InvalidArgument("serve: request has no data");
  }
  if (!request.callback) {
    return Status::InvalidArgument("serve: request has no callback");
  }
  // Submit-time parameter validation: refuse the abuse shapes immediately
  // instead of letting them reach the quota/shed accounting. A zero-byte
  // tensor would dodge the byte quota entirely, and an out-of-range
  // priority would dodge the shed policy.
  if (request.data->size_bytes() == 0) {
    return Status::InvalidArgument("serve: request tensor is empty");
  }
  if (!std::isfinite(request.target_ratio) || request.target_ratio <= 0.0) {
    return Status::InvalidArgument(
        "serve: target ratio must be finite and positive");
  }
  if (static_cast<int>(request.priority) <
          static_cast<int>(RequestPriority::kLow) ||
      static_cast<int>(request.priority) >
          static_cast<int>(RequestPriority::kHigh)) {
    return Status::InvalidArgument("serve: request priority out of range");
  }
  if (request.backend.empty()) {
    if (backends_.size() != 1) {
      return Status::InvalidArgument(
          "serve: request names no backend and the server has several");
    }
    request.backend = backends_.begin()->first;
  }
  const auto backend_it = backends_.find(request.backend);
  if (backend_it == backends_.end()) {
    return Status::InvalidArgument("serve: unknown backend \"" +
                                   request.backend + "\"");
  }

  Pending item;
  item.request = std::move(request);
  item.backend = &backend_it->second;
  item.deadline = options_.default_deadline_seconds > 0.0
                      ? Deadline::Earlier(
                            item.request.deadline,
                            Deadline::After(options_.default_deadline_seconds))
                      : item.request.deadline;
  item.enqueued = Clock::now();
  item.bytes = item.request.data->size_bytes();

  bool spawn_slot = false;
  uint64_t id = 0;
  {
    MutexLock lock(mu_);
    if (draining_ || shut_down_) {
      return Status::Unavailable("serve: server draining, intake stopped");
    }
    // Intake checks in cost order: overload shed (hard queue bound plus
    // the adaptive priority policy), then tenant quotas. Quotas run last so
    // a successful Admit is always followed by the enqueue below -- no
    // rollback path.
    Status admit = ShedDecisionLocked(item.request.priority);
    if (!admit.ok()) return admit;
    admit = quota_.Admit(item.request.tenant, item.bytes);
    if (!admit.ok()) return admit;
    id = ++next_id_;
    item.id = id;
    auto [tenant_it, inserted] =
        tenants_.try_emplace(item.request.tenant);
    if (inserted) rr_ring_.push_back(item.request.tenant);
    tenant_it->second.push_back(std::move(item));
    ++queued_;
    SMetrics().submitted.Increment();
    SMetrics().queue_depth.Set(static_cast<double>(queued_));
    // Keep enough slots alive to cover the backlog, up to the cap. Slots
    // retire when they find the queue empty, so idle servers cost nothing.
    const size_t spare = active_slots_ - processing_;
    if (spare < queued_ && active_slots_ < max_concurrency_) {
      ++active_slots_;
      spawn_slot = true;
    }
  }
  work_cv_.NotifyOne();
  if (spawn_slot) {
    pool_->Submit([this] { WorkerSlot(); });
  }
  return id;
}

Status FxrzServer::ShedDecisionLocked(RequestPriority priority) {
  // Hard backpressure bound: applies to every class, highest included.
  if (queued_ >= options_.max_queue_depth) {
    SMetrics().shed.Increment();
    return Status::ResourceExhausted(
        "serve: submission queue full (" +
        std::to_string(options_.max_queue_depth) + " requests)");
  }
  if (priority == RequestPriority::kHigh) return Status::Ok();
  const ShedOptions& shed = options_.shed;
  const bool low = priority == RequestPriority::kLow;
  const double depth_threshold = low ? shed.low_priority_depth_fraction
                                     : shed.normal_priority_depth_fraction;
  // The depth counts this submission itself, so a threshold of 1.0 is
  // exactly the hard bound (i.e. disabled as an EARLY shed).
  const double depth_fraction =
      static_cast<double>(queued_ + 1) /
      static_cast<double>(options_.max_queue_depth);
  if (!(depth_threshold < 1.0 && depth_fraction >= depth_threshold)) {
    return Status::Ok();
  }
  OverloadShedCounter(priority).Increment();
  return Status::ResourceExhausted(
      std::string("serve: overload shed (queue depth, priority ") +
      RequestPriorityName(priority) + ")");
}

bool FxrzServer::PopNextLocked(Pending* out) {
  if (queued_ == 0) return false;
  const size_t n = rr_ring_.size();
  for (size_t i = 0; i < n; ++i) {
    const std::string& tenant = rr_ring_[(rr_cursor_ + i) % n];
    std::deque<Pending>& queue = tenants_[tenant];
    if (queue.empty()) continue;
    // Concurrency quota: a tenant at its in-flight cap keeps its queue.
    // Its work WAITS (the worker that completes one of its requests
    // re-loops and pops here after OnComplete) while other tenants run.
    if (!quota_.CanDispatch(tenant)) continue;
    *out = std::move(queue.front());
    queue.pop_front();
    quota_.OnDispatch(tenant, out->bytes);
    // Advance past the tenant just served: strict round-robin, so a tenant
    // with a deep backlog yields to every other tenant with queued work
    // between its own requests.
    rr_cursor_ = (rr_cursor_ + i + 1) % n;
    --queued_;
    ++processing_;
    SMetrics().queue_depth.Set(static_cast<double>(queued_));
    SMetrics().inflight.Set(static_cast<double>(processing_));
    return true;
  }
  return false;
}

void FxrzServer::WorkerSlot() {
  for (;;) {
    Pending item;
    {
      MutexLock lock(mu_);
      // Paused slots stay parked -- except when the drain needs them to
      // either finish the backlog (force phase unpauses) or retire (clean
      // phase with an empty queue), and Shutdown is waiting on
      // active_slots_ before it lets the server be destroyed.
      work_cv_.Wait(mu_, [this]() FXRZ_REQUIRES(mu_) {
        return !paused_ || force_cancelled_ || (draining_ && queued_ == 0);
      });
      if (!PopNextLocked(&item)) {
        // Idle: retire the slot (Submit spawns fresh ones). The retirement
        // broadcast releases Shutdown's final wait.
        --active_slots_;
        if (active_slots_ == 0) drain_cv_.NotifyAll();
        return;
      }
    }
    Process(std::move(item));
  }
}

void FxrzServer::Process(Pending item) {
  FXRZ_TRACE_SPAN("serve.request");
  const Clock::time_point dispatched = Clock::now();
  ServeReply reply;
  reply.request_id = item.id;
  reply.tenant = item.request.tenant;
  reply.backend = item.request.backend;
  reply.queue_seconds = SecondsBetween(item.enqueued, dispatched);
  SMetrics().queue_seconds.Observe(reply.queue_seconds);

  // Effective cancellation: the caller's token (if any) as parent, the
  // drain path cancelling the child directly through the in-flight
  // registry. Registration and the force-cancel sweep run under the same
  // mutex, so a request dispatched after the sweep still observes it via
  // the force_cancelled_ check here.
  CancelToken effective(item.request.cancel);
  {
    MutexLock lock(mu_);
    if (force_cancelled_) effective.Cancel();
    inflight_[item.id] = &effective;
  }

  reply.status = RunAttempts(item, effective, &reply);
  reply.serve_seconds = SecondsBetween(dispatched, Clock::now());
  SMetrics().latency_seconds.Observe(reply.serve_seconds);
  OutcomeCounter(reply.status, reply.result.deadline_degraded).Increment();

  const bool cancelled_terminal =
      reply.status.code() == StatusCode::kCancelled;
  // The callback is the contract's "resolved exactly once" moment; it must
  // fire before the drain accounting below lets Shutdown return.
  item.request.callback(std::move(reply));

  {
    MutexLock lock(mu_);
    inflight_.erase(item.id);
    --processing_;
    // Free the tenant's worker slot BEFORE this worker re-loops into
    // PopNextLocked, so its own completion unblocks its queued work.
    quota_.OnComplete(item.request.tenant);
    SMetrics().inflight.Set(static_cast<double>(processing_));
    if (draining_) {
      if (cancelled_terminal) {
        ++drain_cancelled_;
      } else {
        ++drain_flushed_;
      }
    }
    if (queued_ + processing_ == 0) drain_cv_.NotifyAll();
  }
}

Status FxrzServer::RunAttempts(const Pending& item, const CancelToken& cancel,
                               ServeReply* reply) {
  GuardOptions guard = options_.guard;
  guard.deadline = item.deadline;
  guard.cancel = &cancel;
  // Memory admission: every attempt reserves the codec's estimated peak
  // working set against the server's budget (ResourceExhausted when it
  // cannot -- retryable, so the backoff loop below paces re-admission as
  // other requests free their reservations).
  guard.memory = memory_;
  Backend& backend = *item.backend;

  Status last;
  for (;;) {
    ++reply->attempts;
    last = CheckCancel(item.deadline, &cancel, "serve: dispatch");
    if (last.ok() && fault::Hit(fault::Site::kServeDispatch)) {
      last = Status::Unavailable("injected fault: serve dispatch");
    }
    if (last.ok()) {
      last = backend.breaker->Allow();
      if (last.ok()) {
        StatusOr<GuardedResult> served = backend.fxrz->GuardedCompressToRatio(
            *item.request.data, item.request.target_ratio, guard);
        if (served.ok()) {
          backend.breaker->RecordSuccess();
          reply->result = std::move(served).value();
          return Status::Ok();
        }
        last = served.status();
        // Every successful Allow() pairs with exactly one RecordResult();
        // skipping it would leak a half-open probe slot and wedge the
        // breaker. Only transient failures are breaker-unhealthy: a
        // permanent error (bad input, kOutOfRange, expired deadline)
        // means the backend responded and says nothing about its health.
        // Resource exhaustion counts as healthy too -- a memory-budget
        // denial is governance working as intended, and counting it as a
        // failure would trip the breaker and cascade Unavailable onto
        // tenants the budget never touched.
        backend.breaker->RecordResult(
            last.code() == StatusCode::kResourceExhausted ||
            !StatusIsRetryable(last));
      }
    }
    if (!ShouldRetry(options_.retry, last, reply->attempts)) return last;
    const double backoff =
        RetryBackoffSeconds(options_.retry, item.id, reply->attempts);
    // A backoff the deadline cannot cover would just convert this
    // (informative) transient failure into DeadlineExceeded; stop here.
    if (backoff >= item.deadline.remaining_seconds()) return last;
    SMetrics().retries.Increment();
    if (backoff > 0.0) {
      const Clock::time_point until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(backoff));
      MutexLock lock(mu_);
      // Interruptible: the drain's force phase cancels and broadcasts so
      // sleepers resolve within a checkpoint, not a backoff.
      (void)retry_cv_.WaitUntil(mu_, until,
                                [&cancel] { return cancel.cancelled(); });
    }
  }
}

StatusOr<GuardedResult> FxrzServer::ServeSync(ServeRequest request) {
  FXRZ_CHECK(!request.callback)
      << "ServeSync supplies the callback; use Submit for async requests";
  struct SyncState {
    AnnotatedMutex mu;
    CondVar cv;
    bool done FXRZ_GUARDED_BY(mu) = false;
    ServeReply reply FXRZ_GUARDED_BY(mu);
  };
  auto state = std::make_shared<SyncState>();
  request.callback = [state](ServeReply reply) {
    MutexLock lock(state->mu);
    state->reply = std::move(reply);
    state->done = true;
    state->cv.NotifyAll();
  };
  StatusOr<uint64_t> id = Submit(std::move(request));
  if (!id.ok()) return id.status();
  MutexLock lock(state->mu);
  while (!state->done) state->cv.Wait(state->mu);
  if (!state->reply.status.ok()) return state->reply.status;
  return std::move(state->reply.result);
}

DrainReport FxrzServer::Shutdown(Deadline deadline) {
  MutexLock lock(mu_);
  if (shut_down_) return drain_report_;
  draining_ = true;

  auto pending_zero = [this]() FXRZ_REQUIRES(mu_) {
    return queued_ + processing_ == 0;
  };
  // Phase 1: graceful. Intake is stopped; wait for queued + in-flight
  // work to flush on its own.
  bool clean;
  if (deadline.infinite()) {
    drain_cv_.Wait(mu_, pending_zero);
    clean = true;
  } else {
    clean = drain_cv_.WaitUntil(mu_, deadline.time_point(), pending_zero);
  }
  if (!clean) {
    // Phase 2: force. Cancel every dispatched request through its
    // effective token (requests dispatched from here on observe
    // force_cancelled_ at registration) and wake paused workers and
    // backoff sleepers. Queued requests resolve Cancelled at their
    // dispatch checkpoint without compressing anything.
    force_cancelled_ = true;
    paused_ = false;
    for (auto& [id, token] : inflight_) token->Cancel();
    work_cv_.NotifyAll();
    retry_cv_.NotifyAll();
    // Phase 3: cancellation is cooperative with checkpoints between
    // compressions, so every straggler resolves after at most one more
    // compressor run; this wait is bounded.
    drain_cv_.Wait(mu_, pending_zero);
  }
  // Phase 4: wait for every worker-slot task to unwind. A slot may still
  // be queued in the pool (spawned but never started) or between loop
  // iterations; any of them would touch a destroyed server if Shutdown
  // returned first. Each pass through the wait wakes parked slots so they
  // observe the empty queue and retire.
  while (active_slots_ != 0) {
    work_cv_.NotifyAll();
    drain_cv_.Wait(mu_, [this]() FXRZ_REQUIRES(mu_) {
      return active_slots_ == 0;
    });
  }
  shut_down_ = true;
  drain_report_.clean = clean;
  drain_report_.flushed = drain_flushed_;
  drain_report_.cancelled = drain_cancelled_;
  return drain_report_;
}

void FxrzServer::Pause() {
  {
    MutexLock lock(mu_);
    paused_ = true;
  }
  work_cv_.NotifyAll();
}

void FxrzServer::Resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  work_cv_.NotifyAll();
}

size_t FxrzServer::queue_depth() const {
  MutexLock lock(mu_);
  return queued_;
}

CircuitBreaker* FxrzServer::breaker(const std::string& name) {
  const auto it = backends_.find(name);
  return it == backends_.end() ? nullptr : it->second.breaker.get();
}

}  // namespace fxrz
