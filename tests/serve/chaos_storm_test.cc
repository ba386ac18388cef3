// The chaos gate: a seeded storm of 100k requests from 16 client threads
// against one server with probabilistic fault injection armed at the
// dispatch and compressor sites, short deadlines sprinkled in, and
// backpressure constantly engaged. The single invariant -- the whole point
// of the serving layer -- is that EVERY request resolves to exactly one
// terminal Status: accepted requests fire their callback exactly once,
// shed requests learn it synchronously from Submit, nothing double-fires,
// nothing dangles, and the final drain is clean.
//
// In default builds the fault sites are compiled out and this runs as a
// plain high-volume smoke; the fault-injection CI stage
// (tools/ci.sh build-ci-fault) is where the storm actually storms.
// FXRZ_CHAOS_REQUESTS overrides the request count (sanitizer stages run
// smaller storms; the default build runs the full gate).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "src/util/fault_injection.h"

namespace fxrz {
namespace {

size_t RequestCount() {
  if (const char* env = std::getenv("FXRZ_CHAOS_REQUESTS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 100000;
}

TEST(ChaosStormTest, EveryRequestResolvesExactlyOnce) {
  // Tiny fields keep the per-request cost at one small compression so the
  // storm exercises the serving machinery, not the codecs.
  std::vector<Tensor> fields;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    fields.push_back(GaussianRandomField3D(8, 8, 8, 2.0, seed));
  }
  Fxrz fxrz(MakeCompressor("sz"));
  std::vector<const Tensor*> train;
  for (const Tensor& f : fields) train.push_back(&f);
  fxrz.Train(train);
  const double target = fxrz.model().ValidTargetRatios(3)[1];

  // Seeded storm faults: ~2% of dispatches and ~1% of compressions fail
  // transiently. Retries, breakers, and the exhaustion taxonomy all get
  // exercised; determinism comes from the documented per-hit hash.
  fault::FailWithProbability(fault::Site::kServeDispatch, 0.02, 20260808);
  fault::FailWithProbability(fault::Site::kCompressorCompress, 0.01, 42);

  ServeOptions options;
  options.max_queue_depth = 512;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-5;
  options.retry.max_backoff_seconds = 1e-3;
  options.breaker.failure_threshold = 8;
  options.breaker.open_seconds = 1e-4;  // breakers trip AND recover mid-storm
  FxrzServer server(fxrz, options);

  const size_t total = RequestCount();
  constexpr int kClients = 16;
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> double_fire{0};
  std::atomic<uint64_t> outcome_ok{0};
  std::atomic<uint64_t> outcome_deadline{0};
  std::atomic<uint64_t> outcome_unavailable{0};
  std::atomic<uint64_t> outcome_other{0};
  std::vector<std::atomic<int>> fired(total);
  for (auto& f : fired) f.store(0);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const size_t begin = total * t / kClients;
      const size_t end = total * (t + 1) / kClients;
      for (size_t i = begin; i < end; ++i) {
        ServeRequest request;
        request.tenant = "tenant-" + std::to_string(t % 4);
        request.data = &fields[i % fields.size()];
        request.target_ratio = target;
        // A sliver of requests race a nearly-expired deadline through the
        // ladder checkpoints.
        if (i % 97 == 96) request.deadline = Deadline::After(0.0002);
        request.callback = [&, i](ServeReply reply) {
          if (fired[i].fetch_add(1) != 0) double_fire.fetch_add(1);
          resolved.fetch_add(1);
          if (reply.status.ok()) {
            outcome_ok.fetch_add(1);
          } else if (reply.status.code() == StatusCode::kDeadlineExceeded) {
            outcome_deadline.fetch_add(1);
          } else if (StatusIsRetryable(reply.status)) {
            outcome_unavailable.fetch_add(1);
          } else {
            outcome_other.fetch_add(1);
          }
        };
        const StatusOr<uint64_t> id = server.Submit(std::move(request));
        if (id.ok()) {
          accepted.fetch_add(1);
        } else {
          // Backpressure is the only legal reason to refuse mid-storm, and
          // it is a synchronous terminal Status, not a silent drop.
          ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted);
          shed.fetch_add(1);
          fired[i].store(-1000);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);

  // The gate: full accounting, exactly once, nothing lost.
  EXPECT_EQ(double_fire.load(), 0u);
  EXPECT_EQ(accepted.load() + shed.load(), total);
  EXPECT_EQ(resolved.load(), accepted.load());
  for (size_t i = 0; i < total; ++i) {
    const int f = fired[i].load();
    ASSERT_TRUE(f == 1 || f == -1000) << "request " << i << " fired " << f;
  }
  EXPECT_EQ(outcome_ok.load() + outcome_deadline.load() +
                outcome_unavailable.load() + outcome_other.load(),
            resolved.load());
  EXPECT_GT(outcome_ok.load(), 0u);

  if (fault::Enabled()) {
    // The storm really stormed: injected faults fired at both sites.
    EXPECT_GT(fault::TriggeredCount(fault::Site::kServeDispatch), 0u);
    EXPECT_GT(fault::TriggeredCount(fault::Site::kCompressorCompress), 0u);
  }
  fault::ResetAll();

  ::testing::Test::RecordProperty("chaos_total", static_cast<int>(total));
  ::testing::Test::RecordProperty("chaos_shed",
                                  static_cast<int>(shed.load()));
  ::testing::Test::RecordProperty("chaos_ok",
                                  static_cast<int>(outcome_ok.load()));
}

}  // namespace
}  // namespace fxrz
