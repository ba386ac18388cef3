// Per-tenant resource quotas for the serving layer.
//
// The bounded queue (PR 8) protects the PROCESS from overload, but says
// nothing about who gets the capacity: one abusive tenant can fill the
// queue, monopolize worker slots, and starve everyone else while staying
// nominally "fair" in the round-robin ring (its requests are already
// queued). QuotaManager adds the per-tenant dimension:
//
//   rate        -- a token-bucket per tenant (requests_per_second with a
//                  burst allowance) bounds the long-run intake rate;
//   queue bytes -- max_queued_bytes bounds how much tensor data one tenant
//                  may park in the submission queue (a byte-denominated
//                  quota, so a tenant cannot cheat with few huge requests);
//   concurrency -- max_inflight_requests bounds how many worker slots one
//                  tenant may occupy at once, enforced at dispatch
//                  (FxrzServer::PopNextLocked skips tenants at their cap,
//                  so their queued work WAITS while other tenants run --
//                  fairness, not a drop).
//
// Every denial is an immediate, synchronous Status::ResourceExhausted at
// Submit naming the exhausted quota -- never a silent drop, matching the
// serving layer's exactly-once resolution contract. Rate/byte quotas are
// intake decisions; the concurrency quota is a scheduling decision.
//
// The token bucket is deterministic given the clock: refill is computed
// from elapsed steady_clock time, no RNG, and tests inject explicit
// time_points. All state sits under one AnnotatedMutex; the server calls
// in with its own mutex held (lock order: server mu_ -> quota mu_; the
// quota never calls back into the server).

#ifndef FXRZ_SERVE_QUOTA_H_
#define FXRZ_SERVE_QUOTA_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace fxrz {

// Request priority classes for overload shedding: when the server is
// congested (queue depth over threshold), low priority sheds first, normal
// next, high only at the hard queue bound.
enum class RequestPriority {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

const char* RequestPriorityName(RequestPriority priority);

// Per-tenant limits. Zero always means "unlimited" so a default-constructed
// options struct changes nothing.
struct TenantQuotaOptions {
  // Token bucket: sustained accepted-submission rate. 0 = unlimited.
  double requests_per_second = 0.0;
  // Bucket capacity (burst allowance). 0 defaults to
  // max(1, requests_per_second).
  double burst = 0.0;
  // Max tensor bytes a tenant may have queued (submitted, not yet
  // dispatched). 0 = unlimited.
  size_t max_queued_bytes = 0;
  // Max requests a tenant may have executing in worker slots at once.
  // 0 = unlimited. A capped tenant's surplus requests wait in its queue
  // while other tenants' work dispatches.
  size_t max_inflight_requests = 0;
};

// Tenant quota policy: one default applied to every tenant, plus optional
// per-tenant overrides (e.g. a paid tier with a higher rate, or a known
// bulk-job tenant pinned to one worker slot).
struct QuotaOptions {
  TenantQuotaOptions default_tenant;
  std::map<std::string, TenantQuotaOptions> per_tenant;
};

class QuotaManager {
 public:
  using Clock = std::chrono::steady_clock;

  explicit QuotaManager(QuotaOptions options = {});

  QuotaManager(const QuotaManager&) = delete;
  QuotaManager& operator=(const QuotaManager&) = delete;

  // Intake decision for one submission of `bytes` tensor bytes. Ok: the
  // request was charged (one rate token, `bytes` queued bytes) and MUST be
  // followed by OnDispatch + OnComplete, or OnShed if a later intake check
  // refuses it. ResourceExhausted: over quota, nothing charged.
  [[nodiscard]] Status Admit(const std::string& tenant, size_t bytes) {
    return Admit(tenant, bytes, Clock::now());
  }
  [[nodiscard]] Status Admit(const std::string& tenant, size_t bytes,
                             Clock::time_point now);

  // A request admitted by Admit was refused by a later intake check (queue
  // full, overload shed): return its queued-bytes charge. The rate token
  // stays spent -- the tenant did submit.
  void OnShed(const std::string& tenant, size_t bytes);

  // Scheduling decision: may this tenant occupy another worker slot?
  [[nodiscard]] bool CanDispatch(const std::string& tenant) const;

  // The request left the queue for a worker slot.
  void OnDispatch(const std::string& tenant, size_t bytes);

  // The request resolved (callback fired); frees its slot.
  void OnComplete(const std::string& tenant);

  // Introspection (tests, fairness benches).
  size_t inflight(const std::string& tenant) const;
  size_t queued_bytes(const std::string& tenant) const;

 private:
  struct TenantState {
    // Limits resolved once (default + override) when first seen.
    TenantQuotaOptions limits;
    double tokens = 0.0;
    Clock::time_point last_refill{};
    bool bucket_started = false;
    size_t queued_bytes = 0;
    size_t inflight = 0;
  };

  TenantState& StateLocked(const std::string& tenant) FXRZ_REQUIRES(mu_);

  const QuotaOptions options_;
  mutable AnnotatedMutex mu_;
  std::map<std::string, TenantState> tenants_ FXRZ_GUARDED_BY(mu_);
};

}  // namespace fxrz

#endif  // FXRZ_SERVE_QUOTA_H_
