// Deadline/cancel checkpoints through the guard escalation ladder: expiry
// between compressions ends the ladder early, degrading to the best
// archive in hand (GuardOptions::deadline) or returning
// DeadlineExceeded/Cancelled when there is nothing to serve. All tests are
// deterministic: they flip the cancel token from inside a compression (via
// HookedCompressor), and the ladder's checkpoint before its next
// compression sees it, instead of racing wall-clock deadlines.

#include <gtest/gtest.h>

#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "tests/core/hooked_compressor.h"

namespace fxrz {
namespace {

class DeadlineLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, seed));
    }
    auto hooked = std::make_unique<HookedCompressor>(MakeCompressor("sz"));
    hooked_ = hooked.get();
    fxrz_ = std::make_unique<Fxrz>(std::move(hooked));
    std::vector<const Tensor*> train;
    for (const Tensor& f : fields_) train.push_back(&f);
    fxrz_->Train(train);
    target_ = fxrz_->model().ValidTargetRatios(3)[1];
  }

  // Cancels `cancel` during compression number `run` of the request.
  void CancelDuringRun(CancelToken* cancel, int run) {
    hooked_->set_hook([cancel, run](int r) {
      if (r == run) cancel->Cancel();
      return Status::Ok();
    });
  }

  std::vector<Tensor> fields_;
  HookedCompressor* hooked_ = nullptr;  // owned by fxrz_
  std::unique_ptr<Fxrz> fxrz_;
  double target_ = 0.0;
};

TEST(DeadlineTest, Basics) {
  EXPECT_TRUE(Deadline().infinite());
  EXPECT_FALSE(Deadline().expired());
  EXPECT_TRUE(Deadline::After(0.0).expired());
  EXPECT_TRUE(Deadline::After(-1.0).expired());
  EXPECT_FALSE(Deadline::After(60.0).expired());
  EXPECT_GT(Deadline::After(60.0).remaining_seconds(), 1.0);
}

TEST(DeadlineTest, CheckCancelPrecedence) {
  CancelToken cancel;
  EXPECT_TRUE(CheckCancel(Deadline(), nullptr, "t").ok());
  EXPECT_TRUE(CheckCancel(Deadline(), &cancel, "t").ok());

  EXPECT_EQ(CheckCancel(Deadline::After(0.0), &cancel, "t").code(),
            StatusCode::kDeadlineExceeded);
  cancel.Cancel();
  // Cancellation wins even when the deadline is also expired.
  EXPECT_EQ(CheckCancel(Deadline::After(0.0), &cancel, "t").code(),
            StatusCode::kCancelled);
  EXPECT_EQ(CheckCancel(Deadline(), &cancel, "t").code(),
            StatusCode::kCancelled);
}

TEST(DeadlineTest, CancelTokenChains) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(parent.cancelled());

  CancelToken solo;
  CancelToken leaf(&solo);
  leaf.Cancel();
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_FALSE(solo.cancelled());
}

TEST(DeadlineTest, RetryableTaxonomy) {
  EXPECT_TRUE(StatusIsRetryable(Status::Unavailable("x")));
  EXPECT_TRUE(StatusIsRetryable(Status::ResourceExhausted("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::Cancelled("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::InvalidArgument("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::Internal("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::OutOfRange("x")));
  EXPECT_FALSE(StatusIsRetryable(Status::Ok()));
}

TEST_F(DeadlineLadderTest, ExpiredDeadlineFailsBeforeAnyCompression) {
  GuardOptions options;
  options.deadline = Deadline::After(0.0);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(fields_[0], target_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlineLadderTest, CancelledTokenFailsBeforeAnyCompression) {
  CancelToken cancel;
  cancel.Cancel();
  GuardOptions options;
  options.cancel = &cancel;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(fields_[0], target_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// Mid-ladder expiry with an archive in hand: the model tier compresses but
// misses the (absurdly tight) accept_error, and the cancel token flips
// during that compression, like a drain would. The checkpoint before the
// search's first probe fires and the request degrades to the model-tier
// archive.
TEST_F(DeadlineLadderTest, MidLadderExpiryDegradesToBestArchive) {
  const uint64_t degraded_before =
      metrics::GetCounter("fxrz_guard_deadline_degraded_total").Value();

  CancelToken cancel;
  GuardOptions options;
  options.cancel = &cancel;
  options.accept_error = 1e-9;  // unmeetable: every tier "misses"
  options.max_refine_compressions = 0;
  CancelDuringRun(&cancel, 0);

  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(fields_[0], target_, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const GuardedResult& result = r.value();
  EXPECT_TRUE(result.deadline_degraded);
  EXPECT_EQ(result.tier, ServingTier::kModelEstimate);
  EXPECT_EQ(hooked_->configs().size(), 1u) << "no search probe ran";
  EXPECT_FALSE(result.compressed.empty());
  EXPECT_GT(result.measured_ratio, 1.0);
  if (metrics::Enabled()) {
    EXPECT_EQ(
        metrics::GetCounter("fxrz_guard_deadline_degraded_total").Value(),
        degraded_before + 1);
  }
}

// The model tier's only compression fails while the request is cancelled,
// so the checkpoint before the search finds nothing to degrade to: the
// Status propagates.
TEST_F(DeadlineLadderTest, ExpiryWithNoArchiveReturnsStatusDespiteDegrade) {
  CancelToken cancel;
  GuardOptions options;
  options.cancel = &cancel;
  hooked_->set_hook([&cancel](int) {
    cancel.Cancel();
    return Status::Unavailable("backend lost");
  });
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(fields_[0], target_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(hooked_->configs().size(), 1u);
}

// The search checks the deadline/cancel token before every probe, not only
// when it starts: a cancel during its second probe stops it there, and the
// request degrades to the best archive measured so far.
TEST_F(DeadlineLadderTest, SearchChecksCancelBeforeEveryProbe) {
  CancelToken cancel;
  GuardOptions options;
  options.cancel = &cancel;
  options.accept_error = 1e-9;  // no probe can be accepted
  options.max_refine_compressions = 0;
  CancelDuringRun(&cancel, 2);  // model tier, search probe 1, probe 2
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(fields_[0], target_, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().deadline_degraded);
  EXPECT_FALSE(r.value().compressed.empty());
  EXPECT_EQ(r.value().compressions, 3);
  EXPECT_EQ(hooked_->configs().size(), 3u);
}

}  // namespace
}  // namespace fxrz
