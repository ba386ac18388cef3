// Graceful drain: Shutdown stops intake, flushes what it can before the
// drain deadline, force-cancels stragglers through their cooperative
// cancel tokens, and accounts for every request in the DrainReport. The
// invariant under test throughout: every accepted request resolves its
// callback exactly once, drain or no drain.

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "tests/core/hooked_compressor.h"

namespace fxrz {
namespace {

class DrainTest : public ::testing::Test {
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

  std::vector<Tensor> fields_;
  HookedCompressor* hooked_ = nullptr;  // owned by fxrz_
  std::unique_ptr<Fxrz> fxrz_;
  double target_ = 0.0;
};

TEST_F(DrainTest, CleanDrainFlushesEverything) {
  FxrzServer server(*fxrz_);
  std::atomic<int> resolved{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < 6; ++i) {
    ServeRequest request;
    request.data = &fields_[i % fields_.size()];
    request.target_ratio = target_;
    request.callback = [&resolved, &ok](ServeReply reply) {
      resolved.fetch_add(1);
      if (reply.status.ok()) ok.fetch_add(1);
    };
    ASSERT_TRUE(server.Submit(std::move(request)).ok());
  }
  const DrainReport report = server.Shutdown();
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_EQ(resolved.load(), 6);
  EXPECT_EQ(ok.load(), 6);

  // Intake is closed after Shutdown.
  ServeRequest late;
  late.data = &fields_[0];
  late.target_ratio = target_;
  late.callback = [](ServeReply) {};
  EXPECT_EQ(server.Submit(std::move(late)).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(DrainTest, ShutdownIsIdempotent) {
  FxrzServer server(*fxrz_);
  const DrainReport first = server.Shutdown();
  const DrainReport second = server.Shutdown();
  EXPECT_EQ(first.clean, second.clean);
  EXPECT_EQ(first.flushed, second.flushed);
  EXPECT_EQ(first.cancelled, second.cancelled);
}

// Queued-but-undispatched stragglers: the server is paused, so nothing can
// flush before the drain deadline. The force phase resumes dispatch with
// every request already cancelled; all of them resolve Cancelled without
// any backend work, and Shutdown does not return until they have.
TEST_F(DrainTest, QueuedStragglersResolveCancelled) {
  FxrzServer server(*fxrz_);
  server.Pause();

  std::mutex mu;
  std::vector<Status> statuses;
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.data = &fields_[0];
    request.target_ratio = target_;
    request.callback = [&mu, &statuses](ServeReply reply) {
      std::lock_guard<std::mutex> lock(mu);
      statuses.push_back(std::move(reply.status));
    };
    ASSERT_TRUE(server.Submit(std::move(request)).ok());
  }

  const DrainReport report = server.Shutdown(Deadline::After(0.02));
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.cancelled, 3u);
  EXPECT_EQ(report.flushed, 0u);

  // Every callback fired before Shutdown returned, each with the terminal
  // Cancelled status.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
  }
}

// An in-flight straggler: the request blocks inside its model-tier
// compression (via the codec hook) past the drain deadline, and that
// compression then fails, so the request holds no archive to degrade to;
// the force phase cancels its token and the ladder's checkpoint before the
// search's first probe resolves it.
TEST_F(DrainTest, InFlightStragglerIsForceCancelled) {
  std::atomic<bool> release{false};
  ServeOptions options;
  options.guard.accept_error = 1e-9;          // push into the search tier
  options.guard.max_refine_compressions = 0;
  hooked_->set_hook([&release](int) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Unavailable("backend lost");
  });
  FxrzServer server(*fxrz_, options);

  std::atomic<bool> fired{false};
  std::atomic<int> code{-1};
  ServeRequest request;
  request.data = &fields_[0];
  request.target_ratio = target_;
  request.callback = [&fired, &code](ServeReply reply) {
    code.store(static_cast<int>(reply.status.code()));
    fired.store(true);
  };
  ASSERT_TRUE(server.Submit(std::move(request)).ok());

  // Unblock the hook shortly after the drain deadline has passed.
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    release.store(true);
  });
  const DrainReport report = server.Shutdown(Deadline::After(0.03));
  releaser.join();

  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.cancelled, 1u);
  EXPECT_TRUE(fired.load());
  // The request resolved terminally Cancelled: either force-cancelled
  // mid-ladder (with no archive in hand to degrade to) or, if dispatch
  // raced the deadline, at the dispatch checkpoint.
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kCancelled));
}

// The destructor force-drains: pending requests resolve Cancelled instead
// of dangling, even when nobody called Shutdown.
TEST_F(DrainTest, DestructorForceDrains) {
  std::atomic<int> resolved{0};
  {
    FxrzServer server(*fxrz_);
    server.Pause();
    for (int i = 0; i < 3; ++i) {
      ServeRequest request;
      request.data = &fields_[0];
      request.target_ratio = target_;
      request.callback = [&resolved](ServeReply) { resolved.fetch_add(1); };
      ASSERT_TRUE(server.Submit(std::move(request)).ok());
    }
  }
  EXPECT_EQ(resolved.load(), 3);
}

}  // namespace
}  // namespace fxrz
