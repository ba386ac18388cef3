// Retry policy: deterministic exponential backoff with seeded jitter, the
// transient/permanent classification, and the end-to-end retry-then-
// succeed path through FxrzServer under injected backend faults.

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/retry.h"
#include "src/serve/server.h"
#include "src/util/fault_injection.h"
#include "src/util/mem_budget.h"

namespace fxrz {
namespace {

TEST(RetryTest, BackoffIsDeterministic) {
  RetryOptions options;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(RetryBackoffSeconds(options, 42, attempt),
              RetryBackoffSeconds(options, 42, attempt));
  }
  // Different requests de-correlate (jitter depends on the id).
  EXPECT_NE(RetryBackoffSeconds(options, 1, 1),
            RetryBackoffSeconds(options, 2, 1));
}

TEST(RetryTest, BackoffGrowsExponentiallyWithoutJitter) {
  RetryOptions options;
  options.initial_backoff_seconds = 0.010;
  options.backoff_multiplier = 2.0;
  options.max_backoff_seconds = 1.0;
  options.jitter = 0.0;
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(options, 7, 1), 0.010);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(options, 7, 2), 0.020);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(options, 7, 3), 0.040);
  // Capped at max_backoff_seconds.
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(options, 7, 20), 1.0);
}

TEST(RetryTest, JitterStaysWithinBounds) {
  RetryOptions options;
  options.initial_backoff_seconds = 0.100;
  options.backoff_multiplier = 1.0;
  options.jitter = 0.5;
  for (uint64_t id = 0; id < 200; ++id) {
    const double backoff = RetryBackoffSeconds(options, id, 1);
    EXPECT_GT(backoff, 0.100 * 0.5 - 1e-12);
    EXPECT_LE(backoff, 0.100);
  }
}

TEST(RetryTest, ZeroOrNegativeBackoffDisables) {
  RetryOptions options;
  options.initial_backoff_seconds = 0.0;
  EXPECT_EQ(RetryBackoffSeconds(options, 1, 1), 0.0);
  EXPECT_EQ(RetryBackoffSeconds(options, 1, 0), 0.0);
}

TEST(RetryTest, ShouldRetryClassification) {
  RetryOptions options;
  options.max_attempts = 3;
  EXPECT_TRUE(ShouldRetry(options, Status::Unavailable("x"), 1));
  EXPECT_TRUE(ShouldRetry(options, Status::ResourceExhausted("x"), 2));
  EXPECT_FALSE(ShouldRetry(options, Status::Unavailable("x"), 3));
  EXPECT_FALSE(ShouldRetry(options, Status::Internal("x"), 1));
  EXPECT_FALSE(ShouldRetry(options, Status::InvalidArgument("x"), 1));
  EXPECT_FALSE(ShouldRetry(options, Status::DeadlineExceeded("x"), 1));
  EXPECT_FALSE(ShouldRetry(options, Status::Cancelled("x"), 1));
  EXPECT_FALSE(ShouldRetry(options, Status::OutOfRange("x"), 1));
  EXPECT_FALSE(ShouldRetry(options, Status::Ok(), 1));
}

class ServeRetryTest : public ::testing::Test {
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

  void TearDown() override { fault::ResetAll(); }

  std::vector<Tensor> fields_;
  std::unique_ptr<Fxrz> fxrz_;
  double target_ = 0.0;
};

// Two injected transient backend faults, then health: with the FRaZ
// fallback disabled the first two guard attempts exhaust retryably
// (Unavailable), and the server's third attempt serves the request.
TEST_F(ServeRetryTest, RetriesTransientFaultsThenSucceeds) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "needs -DFXRZ_FAULT_INJECT=ON";
  }
  ServeOptions options;
  options.guard.fallback = GuardFallback::kFail;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-4;  // fast test
  FxrzServer server(*fxrz_, options);

  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/2);

  ServeRequest request;
  request.data = &fields_[0];
  request.target_ratio = target_;
  ServeReply reply;
  bool fired = false;
  request.callback = [&reply, &fired](ServeReply r) {
    reply = std::move(r);
    fired = true;
  };
  ASSERT_TRUE(server.Submit(std::move(request)).ok());
  server.Shutdown();  // flushes the request

  ASSERT_TRUE(fired);
  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.attempts, 3);
  EXPECT_FALSE(reply.result.compressed.empty());
}

// Persistent transient faults exhaust the attempt budget and surface the
// last transient status (still marked retryable for the caller).
TEST_F(ServeRetryTest, ExhaustsAttemptBudgetOnPersistentFaults) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "needs -DFXRZ_FAULT_INJECT=ON";
  }
  ServeOptions options;
  options.guard.fallback = GuardFallback::kFail;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_seconds = 1e-4;
  // Keep the breaker out of the picture for this test.
  options.breaker.failure_threshold = 100;
  FxrzServer server(*fxrz_, options);

  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1000);

  ServeRequest request;
  request.data = &fields_[0];
  request.target_ratio = target_;
  const StatusOr<GuardedResult> r = server.ServeSync(std::move(request));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(StatusIsRetryable(r.status())) << r.status().ToString();
}

// Repeated transient failures trip the backend's breaker; once open, a
// request fails fast with the breaker's message, without reaching the
// compressor.
TEST_F(ServeRetryTest, PersistentFaultsTripTheBreaker) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "needs -DFXRZ_FAULT_INJECT=ON";
  }
  ServeOptions options;
  options.guard.fallback = GuardFallback::kFail;
  options.retry.max_attempts = 1;  // isolate the breaker from retries
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 3600.0;
  FxrzServer server(*fxrz_, options);

  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1000);

  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.data = &fields_[0];
    request.target_ratio = target_;
    const StatusOr<GuardedResult> r = server.ServeSync(std::move(request));
    ASSERT_FALSE(r.ok());
  }
  ASSERT_EQ(server.breaker(fxrz_->compressor().name())->state(),
            BreakerState::kOpen);

  const uint64_t hits_before = fault::HitCount(fault::Site::kCompressorCompress);
  ServeRequest request;
  request.data = &fields_[0];
  request.target_ratio = target_;
  const StatusOr<GuardedResult> r = server.ServeSync(std::move(request));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().ToString().find("circuit breaker open"),
            std::string::npos);
  // Fail-fast means the compressor was never consulted.
  EXPECT_EQ(fault::HitCount(fault::Site::kCompressorCompress), hits_before);
}

// A half-open probe whose guard attempt is denied by the memory budget
// must still release its probe slot (Allow/RecordResult pairing): the
// denial counts as a HEALTHY probe -- the backend responded; governance
// said no -- so it closes the breaker instead of wedging it half-open,
// and the backend recovers as soon as budget frees.
TEST_F(ServeRetryTest, MemoryDenialDuringHalfOpenProbeReleasesTheSlot) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "needs -DFXRZ_FAULT_INJECT=ON";
  }
  MemoryBudget budget(
      2 * EstimatePeakBytes(fxrz_->compressor().name(),
                            fields_[0].size_bytes()));
  ServeOptions options;
  options.guard.fallback = GuardFallback::kFail;
  options.retry.max_attempts = 1;  // isolate the breaker from retries
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 0.0;  // next Allow() after a trip probes
  options.memory = &budget;
  FxrzServer server(*fxrz_, options);

  // Trip the breaker with two injected transient failures.
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/2);
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.data = &fields_[0];
    request.target_ratio = target_;
    ASSERT_FALSE(server.ServeSync(std::move(request)).ok());
  }
  ASSERT_EQ(server.breaker(fxrz_->compressor().name())->state(),
            BreakerState::kOpen);

  // The backend is healthy again, but the budget is fully occupied: the
  // probe request reaches the guard and is denied admission.
  MemReservation blocker = budget.TryReserve(budget.capacity_bytes());
  ASSERT_TRUE(blocker.held());
  ServeRequest probe;
  probe.data = &fields_[0];
  probe.target_ratio = target_;
  const StatusOr<GuardedResult> denied = server.ServeSync(std::move(probe));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  // The probe slot was released and the healthy probe closed the breaker;
  // the leaked-slot bug left it wedged in kHalfOpen forever.
  EXPECT_EQ(server.breaker(fxrz_->compressor().name())->state(),
            BreakerState::kClosed);

  // Budget frees -> the next request serves normally.
  blocker.Release();
  ServeRequest request;
  request.data = &fields_[0];
  request.target_ratio = target_;
  const StatusOr<GuardedResult> served = server.ServeSync(std::move(request));
  EXPECT_TRUE(served.ok()) << served.status().ToString();
}

// The seeded probabilistic mode is deterministic: the same (p, seed)
// yields the same fail/succeed sequence along the hit index.
TEST(FaultInjectionProbabilisticTest, SeededSequenceIsReproducible) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "needs -DFXRZ_FAULT_INJECT=ON";
  }
  std::vector<bool> first;
  fault::FailWithProbability(fault::Site::kServeDispatch, 0.3, 1234);
  for (int i = 0; i < 200; ++i) {
    first.push_back(fault::Hit(fault::Site::kServeDispatch));
  }
  fault::FailWithProbability(fault::Site::kServeDispatch, 0.3, 1234);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fault::Hit(fault::Site::kServeDispatch), first[i]) << i;
  }
  // p = 0.3 over 200 draws: the failure count is in a plausible band.
  int failures = 0;
  for (const bool f : first) failures += f ? 1 : 0;
  EXPECT_GT(failures, 20);
  EXPECT_LT(failures, 120);

  fault::FailWithProbability(fault::Site::kServeDispatch, 0.0, 1234);
  EXPECT_FALSE(fault::Hit(fault::Site::kServeDispatch));  // p<=0 disarms
  fault::FailWithProbability(fault::Site::kServeDispatch, 1.0, 1234);
  EXPECT_TRUE(fault::Hit(fault::Site::kServeDispatch));  // p>=1 always
  fault::ResetAll();
}

}  // namespace
}  // namespace fxrz
