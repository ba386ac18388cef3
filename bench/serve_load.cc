// Closed-loop serving load harness: C client threads drive one FxrzServer,
// each keeping exactly one request in flight (submit -> wait for the
// terminal Status -> submit the next). Closed-loop load is the honest way
// to measure a bounded-queue server: the offered rate adapts to what the
// server sustains instead of open-loop coordinated omission.
//
// A deliberately small queue (half the client count) keeps backpressure
// engaged, so the run also exercises the shed path; every shed is a
// synchronous ResourceExhausted counted here, never a silent drop.
//
// With --tenants T the clients are spread across T tenant identities, so
// the run doubles as a multi-tenant fairness sweep: the server's per-tenant
// round-robin scheduler should hand equal-demand tenants equal service, and
// the harness quantifies that with Jain's fairness index over per-tenant
// served counts plus the per-tenant p99 spread.
//
// Reports per-request latency percentiles and throughput, writes
// BENCH_serve.json (fairness fields included), and with --gate enforces the
// serving-layer acceptance criteria: p99 latency under budget, zero
// requests dropped without a terminal Status, and a fairness-index floor
// when more than one tenant is in play.
//
// The latency budget is absolute by default; --relative-gate M widens it to
// max(budget, M * the warmup ServeSync median) so slow builds (sanitizers,
// starved CI cores) scale the budget with the machine instead of turning a
// stall gate into a build-speed gate.
//
// Usage: serve_load [--requests N] [--clients C] [--tenants T]
//                   [--gate [P99_BUDGET_S]] [--fairness-gate [MIN_INDEX]]
//                   [--relative-gate [MULT]]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/server.h"

namespace {

using namespace fxrz;

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct RunConfig {
  size_t total_requests = 2000;
  int clients = 8;
  int tenants = 8;
  size_t max_queue_depth = 4;
};

struct LoadStats {
  size_t served = 0;
  size_t failed = 0;
  size_t shed = 0;
  size_t dropped_without_status = 0;
  bool drain_clean = false;
  double wall = 0.0;
  double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
  // Median warmup ServeSync latency on the otherwise-idle server: the
  // machine-speed baseline the relative gate scales against.
  double baseline_median = 0.0;
  // Fairness over per-tenant served counts.
  double fairness_index = 0.0;
  size_t served_min = 0, served_max = 0;
  double tenant_p99_max = 0.0;
  std::vector<size_t> served_by_tenant;
};

// One closed-loop run against a fresh server.
LoadStats RunLoad(const RunConfig& config, const Fxrz& fxrz,
                  const std::vector<Tensor>& fields, double target) {
  LoadStats stats;

  ServeOptions options;
  options.max_queue_depth = config.max_queue_depth;
  FxrzServer server(fxrz, options);

  // Warmup: fault-free closed loop to settle worker slots and allocators;
  // its latencies double as the machine-speed baseline.
  std::vector<double> warm_latency;
  for (int i = 0; i < config.clients; ++i) {
    ServeRequest warm;
    warm.data = &fields[0];
    warm.target_ratio = target;
    const auto t0 = std::chrono::steady_clock::now();
    (void)server.ServeSync(std::move(warm));
    warm_latency.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(warm_latency.begin(), warm_latency.end());
  stats.baseline_median = Percentile(warm_latency, 0.5);

  std::atomic<size_t> next{0};
  std::atomic<size_t> ok{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> failed{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(config.clients));
  // Per-tenant served counts for the fairness sweep; each slot is written
  // only by the client threads mapped to that tenant, via fetch_add.
  std::vector<std::atomic<size_t>> tenant_served(
      static_cast<size_t>(config.tenants));
  for (auto& s : tenant_served) s.store(0);
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = latencies[static_cast<size_t>(c)];
      const int tenant_id = c % config.tenants;
      const std::string tenant = "tenant-" + std::to_string(tenant_id);
      for (size_t i = next.fetch_add(1); i < config.total_requests;
           i = next.fetch_add(1)) {
        // A shed is a synchronous terminal Status; the closed-loop client
        // reacts the way a real one does -- back off briefly and resubmit
        // the SAME request. The measured latency spans the first submit to
        // the final outcome, so backpressure stalls are part of the tail,
        // not silently excluded.
        const auto start = std::chrono::steady_clock::now();
        for (;;) {
          ServeRequest request;
          request.tenant = tenant;
          request.data = &fields[i % fields.size()];
          request.target_ratio = target;
          const StatusOr<GuardedResult> r =
              server.ServeSync(std::move(request));
          if (!r.ok() &&
              r.status().code() == StatusCode::kResourceExhausted) {
            shed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            continue;
          }
          const double seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();
          if (r.ok()) {
            ok.fetch_add(1);
            tenant_served[static_cast<size_t>(tenant_id)].fetch_add(1);
            mine.push_back(seconds);
          } else {
            failed.fetch_add(1);
          }
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stats.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();
  stats.drain_clean = server.Shutdown().clean;

  stats.served = ok.load();
  stats.failed = failed.load();
  stats.shed = shed.load();
  // Every request slot ends served or failed (sheds were resubmitted);
  // anything else would be a request that lost its Status.
  const size_t resolved = stats.served + stats.failed;
  stats.dropped_without_status =
      config.total_requests > resolved ? config.total_requests - resolved : 0;

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  stats.p50 = Percentile(all, 0.50);
  stats.p90 = Percentile(all, 0.90);
  stats.p99 = Percentile(all, 0.99);
  for (const double s : all) stats.mean += s;
  if (!all.empty()) stats.mean /= static_cast<double>(all.size());

  // Fairness over the per-tenant served counts: Jain's index is 1.0 when
  // every tenant got the same service and 1/T when one tenant got it all,
  // so it is scale-free across request counts. Per-tenant p99 comes from
  // re-bucketing the per-client samples by tenant.
  std::vector<std::vector<double>> tenant_latency(
      static_cast<size_t>(config.tenants));
  for (int c = 0; c < config.clients; ++c) {
    const size_t tid = static_cast<size_t>(c % config.tenants);
    const auto& v = latencies[static_cast<size_t>(c)];
    tenant_latency[tid].insert(tenant_latency[tid].end(), v.begin(), v.end());
  }
  stats.served_by_tenant.resize(static_cast<size_t>(config.tenants));
  double sum = 0.0;
  double sum_sq = 0.0;
  stats.served_min = config.total_requests;
  for (int t = 0; t < config.tenants; ++t) {
    const size_t n = tenant_served[static_cast<size_t>(t)].load();
    stats.served_by_tenant[static_cast<size_t>(t)] = n;
    const double s = static_cast<double>(n);
    sum += s;
    sum_sq += s * s;
    stats.served_min = std::min(stats.served_min, n);
    stats.served_max = std::max(stats.served_max, n);
    auto& tl = tenant_latency[static_cast<size_t>(t)];
    std::sort(tl.begin(), tl.end());
    stats.tenant_p99_max = std::max(stats.tenant_p99_max, Percentile(tl, 0.99));
  }
  stats.fairness_index =
      sum_sq > 0.0
          ? (sum * sum) / (static_cast<double>(config.tenants) * sum_sq)
          : 0.0;
  return stats;
}

void PrintLoad(const RunConfig& config, const LoadStats& s) {
  std::printf("closed-loop serve load: %zu requests, %d clients, queue %zu\n",
              config.total_requests, config.clients, config.max_queue_depth);
  std::printf("  served %zu  failed %zu  shed-and-resubmitted %zu  "
              "(drain %s)\n",
              s.served, s.failed, s.shed, s.drain_clean ? "clean" : "forced");
  std::printf("  latency ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f\n",
              s.mean * 1e3, s.p50 * 1e3, s.p90 * 1e3, s.p99 * 1e3);
  std::printf("  throughput: %.0f served/s\n",
              s.wall > 0 ? static_cast<double>(s.served) / s.wall : 0.0);
  std::printf("  fairness: %d tenants, Jain index %.4f, served min/max "
              "%zu/%zu, worst tenant p99 %.3f ms\n",
              config.tenants, s.fairness_index, s.served_min, s.served_max,
              s.tenant_p99_max * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  int tenants = 0;  // 0: one tenant per client
  bool gate = false;
  double p99_budget = 0.5;
  double fairness_floor = 0.8;
  double relative_mult = 0.0;  // 0: absolute budget only
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      config.total_requests = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      config.clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        p99_budget = std::atof(argv[++i]);
      }
    } else if (std::strcmp(argv[i], "--fairness-gate") == 0) {
      gate = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        fairness_floor = std::atof(argv[++i]);
      }
    } else if (std::strcmp(argv[i], "--relative-gate") == 0) {
      relative_mult = 100.0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        relative_mult = std::atof(argv[++i]);
      }
    }
  }
  if (config.clients < 1) config.clients = 1;
  if (tenants < 1 || tenants > config.clients) tenants = config.clients;
  config.tenants = tenants;
  if (config.total_requests < static_cast<size_t>(config.clients)) {
    config.total_requests = static_cast<size_t>(config.clients);
  }
  // Queue shorter than the client count: the closed loop routinely finds
  // the queue full, so the shed/backpressure path is part of the measured
  // steady state, not an untested corner.
  config.max_queue_depth =
      std::max<size_t>(1, static_cast<size_t>(config.clients) / 2);

  std::vector<Tensor> fields;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, seed));
  }
  Fxrz fxrz(MakeCompressor("sz"));
  std::vector<const Tensor*> train;
  for (const Tensor& f : fields) train.push_back(&f);
  fxrz.Train(train);
  const double target = fxrz.model().ValidTargetRatios(3)[1];

  const LoadStats stats = RunLoad(config, fxrz, fields, target);
  PrintLoad(config, stats);

  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"requests\": %zu,\n", config.total_requests);
    std::fprintf(f, "  \"clients\": %d,\n", config.clients);
    std::fprintf(f, "  \"max_queue_depth\": %zu,\n", config.max_queue_depth);
    std::fprintf(f, "  \"served\": %zu,\n", stats.served);
    std::fprintf(f, "  \"shed_resubmitted\": %zu,\n", stats.shed);
    std::fprintf(f, "  \"failed\": %zu,\n", stats.failed);
    std::fprintf(f, "  \"dropped_without_status\": %zu,\n",
                 stats.dropped_without_status);
    std::fprintf(f, "  \"latency_mean_ms\": %.4f,\n", stats.mean * 1e3);
    std::fprintf(f, "  \"latency_p50_ms\": %.4f,\n", stats.p50 * 1e3);
    std::fprintf(f, "  \"latency_p90_ms\": %.4f,\n", stats.p90 * 1e3);
    std::fprintf(f, "  \"latency_p99_ms\": %.4f,\n", stats.p99 * 1e3);
    std::fprintf(f, "  \"served_per_second\": %.1f,\n",
                 stats.wall > 0
                     ? static_cast<double>(stats.served) / stats.wall
                     : 0.0);
    std::fprintf(f, "  \"tenants\": %d,\n", config.tenants);
    std::fprintf(f, "  \"fairness_jain_index\": %.4f,\n",
                 stats.fairness_index);
    std::fprintf(f, "  \"tenant_served_min\": %zu,\n", stats.served_min);
    std::fprintf(f, "  \"tenant_served_max\": %zu,\n", stats.served_max);
    std::fprintf(f, "  \"tenant_p99_ms_max\": %.4f,\n",
                 stats.tenant_p99_max * 1e3);
    std::fprintf(f, "  \"tenant_served\": [");
    for (int t = 0; t < config.tenants; ++t) {
      std::fprintf(f, "%s%zu", t == 0 ? "" : ", ",
                   stats.served_by_tenant[static_cast<size_t>(t)]);
    }
    std::fprintf(f, "]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }

  if (gate) {
    bool pass = true;
    // The latency budget: absolute, or scaled to the machine when
    // --relative-gate is on (whichever is larger -- the relative term only
    // ever widens the budget, so a fast machine still gets the strict
    // absolute gate).
    const double p99_budget_eff =
        relative_mult > 0.0
            ? std::max(p99_budget, relative_mult * stats.baseline_median)
            : p99_budget;
    if (stats.dropped_without_status != 0) {
      std::printf("GATE FAIL: %zu requests dropped without a terminal "
                  "Status\n",
                  stats.dropped_without_status);
      pass = false;
    }
    if (stats.served == 0) {
      std::printf("GATE FAIL: no request was served successfully\n");
      pass = false;
    }
    if (stats.p99 > p99_budget_eff) {
      std::printf("GATE FAIL: p99 %.3f s exceeds budget %.3f s\n", stats.p99,
                  p99_budget_eff);
      pass = false;
    }
    if (!stats.drain_clean) {
      std::printf("GATE FAIL: drain was not clean\n");
      pass = false;
    }
    // The fairness floor only binds with real tenant contention: every
    // tenant must be served at all, and equal-demand tenants must get
    // near-equal service from the round-robin scheduler.
    if (config.tenants > 1) {
      if (stats.served_min == 0) {
        std::printf("GATE FAIL: a tenant was fully starved (served 0)\n");
        pass = false;
      }
      if (stats.fairness_index < fairness_floor) {
        std::printf("GATE FAIL: Jain fairness index %.4f below floor %.4f\n",
                    stats.fairness_index, fairness_floor);
        pass = false;
      }
    }
    std::printf("serve_load gate: %s (p99 %.3f s <= %.3f s, dropped %zu, "
                "fairness %.4f)\n",
                pass ? "PASS" : "FAIL", stats.p99, p99_budget_eff,
                stats.dropped_without_status, stats.fairness_index);
    return pass ? 0 : 1;
  }
  return 0;
}
