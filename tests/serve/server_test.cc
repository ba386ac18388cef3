// FxrzServer basics: submission/callback contract, sync serving,
// validation, queue-depth backpressure (immediate ResourceExhausted, never
// a silent drop), and per-tenant round-robin fairness.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "src/util/metrics.h"

namespace fxrz {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, seed));
    }
    fxrz_ = std::make_unique<Fxrz>(MakeCompressor("sz"));
    std::vector<const Tensor*> train;
    for (const Tensor& f : fields_) train.push_back(&f);
    fxrz_->Train(train);
    target_ = fxrz_->model().ValidTargetRatios(3)[1];
  }

  ServeRequest Request(const Tensor& data) const {
    ServeRequest request;
    request.data = &data;
    request.target_ratio = target_;
    return request;
  }

  std::vector<Tensor> fields_;
  std::unique_ptr<Fxrz> fxrz_;
  double target_ = 0.0;
};

TEST_F(ServerTest, ServeSyncProducesArchive) {
  FxrzServer server(*fxrz_);
  const StatusOr<GuardedResult> r = server.ServeSync(Request(fields_[0]));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().compressed.empty());
  EXPECT_GT(r.value().measured_ratio, 1.0);
}

TEST_F(ServerTest, CallbackFiresExactlyOnceWithMetadata) {
  FxrzServer server(*fxrz_);
  std::mutex mu;
  std::vector<ServeReply> replies;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request = Request(fields_[i % fields_.size()]);
    request.tenant = "tenant-a";
    request.callback = [&mu, &replies](ServeReply reply) {
      std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(reply));
    };
    const StatusOr<uint64_t> id = server.Submit(std::move(request));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_GT(id.value(), 0u);
  }
  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);
  ASSERT_EQ(replies.size(), 4u);
  for (const ServeReply& reply : replies) {
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_EQ(reply.tenant, "tenant-a");
    EXPECT_EQ(reply.backend, fxrz_->compressor().name());
    EXPECT_GE(reply.attempts, 1);
    EXPECT_GE(reply.queue_seconds, 0.0);
    EXPECT_GE(reply.serve_seconds, 0.0);
    EXPECT_FALSE(reply.result.compressed.empty());
  }
}

TEST_F(ServerTest, RejectsMalformedRequests) {
  FxrzServer server(*fxrz_);
  ServeRequest no_data;
  no_data.target_ratio = target_;
  no_data.callback = [](ServeReply) {};
  EXPECT_EQ(server.Submit(std::move(no_data)).status().code(),
            StatusCode::kInvalidArgument);

  ServeRequest no_callback = Request(fields_[0]);
  EXPECT_EQ(server.Submit(std::move(no_callback)).status().code(),
            StatusCode::kInvalidArgument);

  ServeRequest bad_backend = Request(fields_[0]);
  bad_backend.backend = "no-such-codec";
  bad_backend.callback = [](ServeReply) {};
  EXPECT_EQ(server.Submit(std::move(bad_backend)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, MultiBackendRoutesByName) {
  // zfp serves a target its own model finds valid: sz's targets can lie
  // past what zfp reaches on these fields.
  Fxrz zfp(MakeCompressor("zfp"));
  std::vector<const Tensor*> train;
  for (const Tensor& f : fields_) train.push_back(&f);
  zfp.Train(train);
  std::map<std::string, const Fxrz*> backends = {
      {"sz", fxrz_.get()}, {"zfp", &zfp}};
  FxrzServer server(backends);

  ServeRequest request = Request(fields_[0]);
  request.target_ratio = zfp.model().ValidTargetRatios(3)[1];
  request.backend = "zfp";
  const StatusOr<GuardedResult> r = server.ServeSync(std::move(request));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().compressed.empty());

  // Ambiguous: several backends and no name.
  ServeRequest unnamed = Request(fields_[0]);
  unnamed.callback = [](ServeReply) {};
  EXPECT_EQ(server.Submit(std::move(unnamed)).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_NE(server.breaker("sz"), nullptr);
  EXPECT_NE(server.breaker("zfp"), nullptr);
  EXPECT_EQ(server.breaker("fpzip"), nullptr);
}

TEST_F(ServerTest, BackpressureShedsImmediatelyAndNeverSilently) {
  ServeOptions options;
  options.max_queue_depth = 2;
  FxrzServer server(*fxrz_, options);
  server.Pause();  // freeze dispatch so the queue state is exact

  const uint64_t shed_before =
      metrics::GetCounter("fxrz_serve_shed_total").Value();
  std::mutex mu;
  std::vector<uint64_t> resolved;
  auto callback = [&mu, &resolved](ServeReply reply) {
    std::lock_guard<std::mutex> lock(mu);
    resolved.push_back(reply.request_id);
  };

  std::vector<uint64_t> accepted;
  for (int i = 0; i < 2; ++i) {
    ServeRequest request = Request(fields_[0]);
    request.callback = callback;
    const StatusOr<uint64_t> id = server.Submit(std::move(request));
    ASSERT_TRUE(id.ok());
    accepted.push_back(id.value());
  }
  EXPECT_EQ(server.queue_depth(), 2u);

  // Queue full: the third submission is shed NOW, with a Status -- the
  // caller knows synchronously, nothing dangles.
  ServeRequest overflow = Request(fields_[0]);
  overflow.callback = callback;
  const StatusOr<uint64_t> rejected = server.Submit(std::move(overflow));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  if (metrics::Enabled()) {
    EXPECT_EQ(metrics::GetCounter("fxrz_serve_shed_total").Value(),
              shed_before + 1);
  }

  server.Resume();
  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);
  // Exactly the accepted requests resolved; the shed one never reached a
  // callback (it already got its status from Submit).
  ASSERT_EQ(resolved.size(), accepted.size());
  for (const uint64_t id : accepted) {
    EXPECT_NE(std::find(resolved.begin(), resolved.end(), id),
              resolved.end());
  }
}

TEST_F(ServerTest, RoundRobinFairnessAcrossTenants) {
  ServeOptions options;
  options.max_concurrency = 1;  // single worker: completion order == pops
  FxrzServer server(*fxrz_, options);
  server.Pause();

  std::mutex mu;
  std::vector<std::string> order;
  auto tagged = [&](const std::string& tag) {
    ServeRequest request = Request(fields_[0]);
    request.tenant = tag.substr(0, 1);
    request.callback = [&mu, &order, tag](ServeReply) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
    return request;
  };

  // Tenant A floods first; tenant B trickles in behind it.
  ASSERT_TRUE(server.Submit(tagged("A1")).ok());
  ASSERT_TRUE(server.Submit(tagged("A2")).ok());
  ASSERT_TRUE(server.Submit(tagged("A3")).ok());
  ASSERT_TRUE(server.Submit(tagged("B1")).ok());
  ASSERT_TRUE(server.Submit(tagged("B2")).ok());

  server.Resume();
  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);

  // Round-robin interleaves the tenants: B's requests do not wait behind
  // A's whole backlog.
  const std::vector<std::string> expected = {"A1", "B1", "A2", "B2", "A3"};
  EXPECT_EQ(order, expected);
}

TEST_F(ServerTest, RejectsInvalidSubmitParameters) {
  FxrzServer server(*fxrz_);
  const auto expect_invalid = [&server](ServeRequest request) {
    request.callback = [](ServeReply) {};
    EXPECT_EQ(server.Submit(std::move(request)).status().code(),
              StatusCode::kInvalidArgument);
  };

  // Zero-byte tensor: would dodge the byte quota entirely.
  Tensor empty;
  ServeRequest zero = Request(empty);
  expect_invalid(std::move(zero));

  // Non-finite / non-positive target ratios.
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -2.0, 0.0}) {
    ServeRequest request = Request(fields_[0]);
    request.target_ratio = bad;
    expect_invalid(std::move(request));
  }

  // Out-of-range priority (e.g. a corrupted or hostile enum value).
  ServeRequest bad_priority = Request(fields_[0]);
  bad_priority.priority = static_cast<RequestPriority>(42);
  expect_invalid(std::move(bad_priority));
}

TEST_F(ServerTest, SubmitAfterShutdownReturnsUnavailable) {
  FxrzServer server(*fxrz_);

  // Race Submit against Shutdown from another thread: every submission
  // must resolve cleanly -- accepted (callback fires exactly once) or
  // refused with Unavailable/ResourceExhausted -- and never crash or hang.
  std::mutex mu;
  size_t fired = 0;
  std::atomic<bool> stop{false};
  size_t accepted = 0;
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ServeRequest request = Request(fields_[0]);
      request.callback = [&mu, &fired](ServeReply) {
        std::lock_guard<std::mutex> lock(mu);
        ++fired;
      };
      const StatusOr<uint64_t> id = server.Submit(std::move(request));
      if (id.ok()) {
        ++accepted;
      } else {
        EXPECT_TRUE(id.status().code() == StatusCode::kUnavailable ||
                    id.status().code() == StatusCode::kResourceExhausted)
            << id.status().ToString();
        if (id.status().code() == StatusCode::kUnavailable) break;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Shutdown();
  stop.store(true, std::memory_order_relaxed);
  submitter.join();

  // After Shutdown returned, intake is deterministically Unavailable.
  ServeRequest late = Request(fields_[0]);
  late.callback = [](ServeReply) {};
  EXPECT_EQ(server.Submit(std::move(late)).status().code(),
            StatusCode::kUnavailable);
  // Exactly-once: every accepted request fired its callback by the time
  // Shutdown returned.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired, accepted);
}

TEST_F(ServerTest, LowPriorityShedsEarlyHighNeverEarly) {
  ServeOptions options;
  options.max_queue_depth = 4;
  // Default shed policy: low sheds at 50% depth, normal only at the bound.
  FxrzServer server(*fxrz_, options);
  server.Pause();

  auto submit = [&](RequestPriority priority) {
    ServeRequest request = Request(fields_[0]);
    request.priority = priority;
    request.callback = [](ServeReply) {};
    return server.Submit(std::move(request));
  };

  ASSERT_TRUE(submit(RequestPriority::kLow).ok());  // (0+1)/4 < 0.5
  ASSERT_TRUE(submit(RequestPriority::kNormal).ok());
  // Depth 2: a low submission would land at (2+1)/4 >= 0.5 -- shed.
  const StatusOr<uint64_t> low = submit(RequestPriority::kLow);
  ASSERT_FALSE(low.ok());
  EXPECT_EQ(low.status().code(), StatusCode::kResourceExhausted);
  // Normal still fits until the hard bound; high never early-sheds.
  ASSERT_TRUE(submit(RequestPriority::kNormal).ok());
  ASSERT_TRUE(submit(RequestPriority::kHigh).ok());
  // Hard bound applies to every class, high included.
  EXPECT_EQ(submit(RequestPriority::kHigh).status().code(),
            StatusCode::kResourceExhausted);

  server.Resume();
  server.Shutdown();
}

TEST_F(ServerTest, TenantRateQuotaThrottlesAtSubmit) {
  ServeOptions options;
  options.quota.default_tenant.requests_per_second = 1e-6;
  options.quota.default_tenant.burst = 2.0;
  FxrzServer server(*fxrz_, options);
  server.Pause();

  auto submit = [&](const std::string& tenant) {
    ServeRequest request = Request(fields_[0]);
    request.tenant = tenant;
    request.callback = [](ServeReply) {};
    return server.Submit(std::move(request));
  };

  ASSERT_TRUE(submit("a").ok());
  ASSERT_TRUE(submit("a").ok());
  const StatusOr<uint64_t> throttled = submit("a");
  ASSERT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.status().code(), StatusCode::kResourceExhausted);
  // Quotas are per tenant: "b" has its own untouched bucket.
  ASSERT_TRUE(submit("b").ok());

  server.Resume();
  server.Shutdown();
}

TEST_F(ServerTest, MemoryBudgetExhaustionIsRetryableResourceExhausted) {
  // A budget far smaller than one request's estimated peak: admission in
  // the guard ladder denies every attempt.
  MemoryBudget tiny(16);
  ServeOptions options;
  options.memory = &tiny;
  FxrzServer server(*fxrz_, options);

  const StatusOr<GuardedResult> r = server.ServeSync(Request(fields_[0]));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(tiny.denied_count(), 0u);
  EXPECT_EQ(tiny.reserved_bytes(), 0u);  // nothing leaked
  server.Shutdown();
}

TEST_F(ServerTest, ServerDeadlineAppliesToQueuedRequests) {
  FxrzServer server(*fxrz_);
  server.Pause();

  ServeReply reply;
  bool fired = false;
  ServeRequest request = Request(fields_[0]);
  request.deadline = Deadline::After(0.005);
  request.callback = [&reply, &fired](ServeReply r) {
    reply = std::move(r);
    fired = true;
  };
  ASSERT_TRUE(server.Submit(std::move(request)).ok());
  // Let the request's deadline expire while it is queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();
  server.Shutdown();

  ASSERT_TRUE(fired);
  EXPECT_EQ(reply.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(reply.attempts, 1);  // expired before any backend work
}

// A request whose caller-held token is already cancelled when it reaches
// dispatch resolves Cancelled on its first attempt without compressing
// anything, and the requests queued before and after it still serve.
TEST_F(ServerTest, CallerCancelledRequestDoesNotPoisonQueuedNeighbors) {
  FxrzServer server(*fxrz_);
  server.Pause();

  CancelToken cancelled;
  cancelled.Cancel();
  std::mutex mu;
  std::map<uint64_t, ServeReply> replies;
  std::map<uint64_t, int> fire_counts;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 4; ++i) {
    ServeRequest request = Request(fields_[i % fields_.size()]);
    if (i == 1) request.cancel = &cancelled;
    request.callback = [&mu, &replies, &fire_counts](ServeReply reply) {
      std::lock_guard<std::mutex> lock(mu);
      ++fire_counts[reply.request_id];
      replies[reply.request_id] = std::move(reply);
    };
    const StatusOr<uint64_t> id = server.Submit(std::move(request));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  metrics::Counter& codec_runs = metrics::GetCounter(
      "fxrz_codec_compress_total{codec=\"" + fxrz_->compressor().name() +
      "\"}");
  const uint64_t runs_before = codec_runs.Value();
  server.Resume();
  EXPECT_TRUE(server.Shutdown().clean);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(replies.size(), 4u);
  uint64_t served_runs = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fire_counts[ids[i]], 1) << i;
    const ServeReply& reply = replies[ids[i]];
    EXPECT_EQ(reply.batch_members, 1u) << i;
    if (i == 1) {
      EXPECT_EQ(reply.status.code(), StatusCode::kCancelled)
          << reply.status.ToString();
      EXPECT_EQ(reply.attempts, 1);  // cancellation is terminal, no retries
      EXPECT_EQ(reply.result.compressions, 0);
      EXPECT_TRUE(reply.result.compressed.empty());
    } else {
      EXPECT_TRUE(reply.status.ok()) << i << ": " << reply.status.ToString();
      EXPECT_FALSE(reply.result.compressed.empty()) << i;
      served_runs += static_cast<uint64_t>(reply.result.compressions);
    }
  }
  // Every codec run belongs to a served neighbor: the cancelled request
  // never reached the codec.
  if (metrics::Enabled()) {
    EXPECT_EQ(codec_runs.Value() - runs_before, served_runs);
  }
}

}  // namespace
}  // namespace fxrz
