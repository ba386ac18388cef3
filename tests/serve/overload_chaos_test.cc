// The overload-chaos gate for resource governance: a storm of mixed-size
// requests from 16 client threads where one tenant is deliberately abusive
// (floods far past its rate quota, mixes in large tensors) against a
// server with a small process memory budget. The invariants:
//
//   - zero OOM: the memory budget's high-water mark never exceeds its
//     capacity -- reservations are the only path to the big allocations,
//     so bounded reservations mean bounded peak working set;
//   - exactly-once resolution: every submission either returns a
//     synchronous Status from Submit or fires its callback exactly once;
//   - the abusive tenant is actually throttled: its floods draw quota
//     ResourceExhausted refusals at Submit;
//   - the victim tenant is isolated: its p99 end-to-end latency stays
//     under a fixed bound no matter what the abuser does, and most of its
//     requests succeed.
//
// FXRZ_CHAOS_REQUESTS scales the storm (sanitizer CI stages run smaller);
// the default build runs the full gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "src/util/mem_budget.h"

namespace fxrz {
namespace {

size_t RequestCount() {
  if (const char* env = std::getenv("FXRZ_CHAOS_REQUESTS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 100000;
}

TEST(OverloadChaosTest, AbusiveTenantThrottledVictimIsolatedNoOom) {
  // Mixed sizes: small fields are the common case, the large field is what
  // makes memory contention real (its reservation is 64x a small one's).
  std::vector<Tensor> small_fields;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    small_fields.push_back(GaussianRandomField3D(8, 8, 8, 2.0, seed));
  }
  const Tensor large_field = GaussianRandomField3D(32, 32, 32, 2.0, 7);

  Fxrz fxrz(MakeCompressor("sz"));
  std::vector<const Tensor*> train;
  for (const Tensor& f : small_fields) train.push_back(&f);
  train.push_back(&large_field);
  fxrz.Train(train);
  const double target = fxrz.model().ValidTargetRatios(3)[1];

  // Budget: the abuser's in-flight cap (4 below) worth of large requests
  // can be resident at once with headroom left for everyone's small ones
  // -- so memory pressure is real (the abuser's own floods contend) but
  // never starves the victim, which is exactly the isolation story.
  const uint64_t large_need =
      EstimatePeakBytes(fxrz.compressor().name(), large_field.size_bytes());
  MemoryBudget budget(6 * large_need);

  ServeOptions options;
  options.max_queue_depth = 256;
  // The storm measures governance, not ratio accuracy: a generous
  // acceptance keeps every request on the one-compression fast path
  // instead of escalating (the shared target is not reachable within the
  // default tolerance for every mixed-size field).
  options.guard.accept_error = 0.5;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-5;
  options.retry.max_backoff_seconds = 1e-3;
  options.memory = &budget;
  // The abuser gets real-but-finite quotas; everyone else is unlimited, so
  // every throttle observed below is attributable to the abuser's limits.
  TenantQuotaOptions abusive;
  abusive.requests_per_second = 2000.0;
  abusive.burst = 64.0;
  abusive.max_queued_bytes = 512 * 1024;
  abusive.max_inflight_requests = 4;
  options.quota.per_tenant["abuser"] = abusive;
  FxrzServer server(fxrz, options);

  // Isolated victim baseline: the victim's end-to-end latency on the
  // otherwise-idle server, through the exact same stack. The storm's p99
  // bound below scales with the worst baseline sample, so slow builds
  // (sanitizers, single-core CI boxes) stretch the bound with the build
  // instead of turning a starvation gate into a build-speed gate; on a
  // normal build the absolute 2.5 s floor is what binds.
  std::vector<double> baseline;
  for (int i = 0; i < 32; ++i) {
    ServeRequest request;
    request.tenant = "victim";
    request.data = &small_fields[static_cast<size_t>(i) % small_fields.size()];
    request.target_ratio = target;
    const auto t0 = std::chrono::steady_clock::now();
    const StatusOr<GuardedResult> r = server.ServeSync(std::move(request));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  const double baseline_worst =
      *std::max_element(baseline.begin(), baseline.end());

  const size_t total = RequestCount();
  constexpr int kClients = 16;  // 6 abuser threads, 4 victim, 6 bystander
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> double_fire{0};
  std::atomic<uint64_t> abuser_quota_throttled{0};
  std::atomic<uint64_t> victim_ok{0};
  std::vector<std::atomic<int>> fired(total);
  for (auto& f : fired) f.store(0);
  std::mutex victim_mu;
  std::vector<double> victim_latency;

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const bool abuser = t < 6;
      const bool victim = t >= 6 && t < 10;
      const std::string tenant =
          abuser ? "abuser"
                 : (victim ? "victim" : "bystander-" + std::to_string(t % 2));
      const size_t begin = total * t / kClients;
      const size_t end = total * (t + 1) / kClients;
      for (size_t i = begin; i < end; ++i) {
        // Well-behaved tenants pace themselves a little, so the storm is a
        // sustained stream the workers actually drain -- not one burst
        // that fills the queue once and sheds everything after it. The
        // abuser does not pace; that is what makes it abusive.
        if (!abuser) std::this_thread::sleep_for(std::chrono::microseconds(50));
        ServeRequest request;
        request.tenant = tenant;
        // The abuser mixes in the large tensor to stress the memory
        // budget; everyone else stays small.
        request.data = (abuser && i % 3 == 0)
                           ? &large_field
                           : &small_fields[i % small_fields.size()];
        request.target_ratio = target;
        request.priority =
            abuser ? RequestPriority::kLow : RequestPriority::kNormal;
        request.callback = [&, i, victim](ServeReply reply) {
          if (fired[i].fetch_add(1) != 0) double_fire.fetch_add(1);
          resolved.fetch_add(1);
          if (victim) {
            if (reply.status.ok()) victim_ok.fetch_add(1);
            std::lock_guard<std::mutex> lock(victim_mu);
            victim_latency.push_back(reply.queue_seconds +
                                     reply.serve_seconds);
          }
        };
        const StatusOr<uint64_t> id = server.Submit(std::move(request));
        if (id.ok()) {
          accepted.fetch_add(1);
        } else {
          // Every refusal is synchronous and ResourceExhausted-class:
          // quota, overload shed, or hard backpressure -- never silent.
          ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted)
              << id.status().ToString();
          refused.fetch_add(1);
          fired[i].store(-1000);
          if (abuser &&
              id.status().message().find("quota:") != std::string::npos) {
            abuser_quota_throttled.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);

  // Exactly-once resolution, full accounting.
  EXPECT_EQ(double_fire.load(), 0u);
  EXPECT_EQ(accepted.load() + refused.load(), total);
  EXPECT_EQ(resolved.load(), accepted.load());
  for (size_t i = 0; i < total; ++i) {
    const int f = fired[i].load();
    ASSERT_TRUE(f == 1 || f == -1000) << "request " << i << " fired " << f;
  }

  // Zero OOM: reservations never over-committed the budget, and everything
  // was returned by drain time.
  EXPECT_LE(budget.peak_reserved_bytes(), budget.capacity_bytes());
  EXPECT_GT(budget.peak_reserved_bytes(), 0u);
  EXPECT_EQ(budget.reserved_bytes(), 0u);

  // The abuser was actually throttled by its quotas (not merely shed by
  // global backpressure).
  EXPECT_GT(abuser_quota_throttled.load(), 0u);

  // Victim isolation: most victim requests succeed, and p99 end-to-end
  // latency stays bounded despite the abuser's flood -- 2.5 s absolute,
  // or 50x the victim's own isolated worst-case when the build itself is
  // slow enough that 2.5 s of wall clock means nothing. Either bound is
  // orders of magnitude below the regression this guards against: a
  // victim starved behind the abuser's unthrottled backlog.
  ASSERT_FALSE(victim_latency.empty());
  EXPECT_GT(victim_ok.load(), victim_latency.size() / 2);
  std::sort(victim_latency.begin(), victim_latency.end());
  const double p99 = victim_latency[victim_latency.size() * 99 / 100];
  const double p99_bound = std::max(2.5, 50.0 * baseline_worst);
  EXPECT_LT(p99, p99_bound)
      << "victim p99 latency not bounded (isolated baseline worst "
      << baseline_worst << " s)";

  ::testing::Test::RecordProperty("chaos_total", static_cast<int>(total));
  ::testing::Test::RecordProperty("chaos_refused",
                                  static_cast<int>(refused.load()));
  ::testing::Test::RecordProperty(
      "abuser_quota_throttled",
      static_cast<int>(abuser_quota_throttled.load()));
  ::testing::Test::RecordProperty("victim_p99_us",
                                  static_cast<int>(p99 * 1e6));
}

}  // namespace
}  // namespace fxrz
