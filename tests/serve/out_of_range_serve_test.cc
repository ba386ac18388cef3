// kOutOfRange through the serving layer: an unreachable target is a final
// answer (never retried), says nothing about backend health (the breaker
// stays closed however many arrive), and is labelled in
// fxrz_serve_completed_total.

#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"
#include "src/util/metrics.h"

namespace fxrz {
namespace {

ServeReply Submit(FxrzServer* server, const Tensor& data, double target) {
  std::promise<ServeReply> done;
  std::future<ServeReply> reply = done.get_future();
  ServeRequest request;
  request.data = &data;
  request.target_ratio = target;
  request.callback = [&done](ServeReply r) { done.set_value(std::move(r)); };
  EXPECT_TRUE(server->Submit(std::move(request)).ok());
  return reply.get();
}

TEST(OutOfRangeServeTest, NotRetriedAndBreakerStaysClosed) {
  std::vector<Tensor> fields;
  for (uint64_t seed = 91; seed <= 94; ++seed) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, seed));
  }
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train({&fields[0], &fields[1], &fields[2]});

  ServeOptions options;
  options.retry.max_attempts = 3;
  options.breaker.failure_threshold = 1;  // one unhealthy reply would trip
  options.breaker.open_seconds = 3600.0;
  FxrzServer server(fxrz, options);
  const metrics::MetricsSnapshot before = metrics::MetricsSnapshot::Capture();

  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    const ServeReply reply = Submit(&server, fields[3], 1e6);
    EXPECT_EQ(reply.status.code(), StatusCode::kOutOfRange)
        << reply.status.ToString();
    EXPECT_EQ(reply.attempts, 1) << "an out-of-range reply is final";
  }
  EXPECT_EQ(server.breaker(fxrz.compressor().name())->state(),
            BreakerState::kClosed);

  // The backend still serves a reachable target afterwards.
  const ServeReply served =
      Submit(&server, fields[3], fxrz.model().ValidTargetRatios(3)[1]);
  EXPECT_TRUE(served.status.ok()) << served.status.ToString();
  server.Shutdown();

  if (metrics::Enabled()) {
    const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
        before, metrics::MetricsSnapshot::Capture());
    EXPECT_EQ(delta.CounterValue(
                  "fxrz_serve_completed_total{outcome=\"out-of-range\"}"),
              static_cast<uint64_t>(kRequests));
    EXPECT_EQ(
        delta.CounterValue("fxrz_serve_completed_total{outcome=\"error\"}"),
        0u);
    EXPECT_EQ(delta.CounterValue("fxrz_serve_retries_total"), 0u);
  }
}

}  // namespace
}  // namespace fxrz
