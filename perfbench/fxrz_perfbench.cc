// Repository benchmark driver: three capability-level-1 workloads run from
// one process through the library's top-level entry points
// (Fxrz::Train, Fxrz::GuardedCompressToRatio, Compressor::Decompress) and
// FxrzServer. See perfbench/NOTES.md for why each workload exists.
//
//   fxrz_perfbench --workload W --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 every guarded request is followed by a replay of each layer's
// public calls on the same input, each wrapped in a span, and the last line
// carries the per-layer metrics. Spans are written to --spans FILE.
//
// The untraced path never calls TryCompress, MeasureCompressionRatio or the
// raw Compressor::Compress: codec compress time is derived from the guard
// span minus the admission, analysis and model spans.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "src/compressors/compressor.h"
#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/nyx.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/fraz/fraz.h"
#include "src/serve/server.h"
#include "src/util/simd.h"

#ifndef FXRZ_BENCH_BUILD_TYPE
#define FXRZ_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fxrz;
using Clock = std::chrono::steady_clock;

constexpr double kMB = 1e6;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Open-loop arrival rate of serve_open_32 (requests per second). A constant,
// never calibrated at run time: utilisation stays below 0.25 of the
// worker slots even at half the codec speed measured on a 4-core host.
constexpr double kServeRate = 120.0;
// A serve_open_32 run whose generator ran later than this (p99, ms) is
// invalid and reports no result.
constexpr double kLateLimitMs = 25.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- inputs

// Variant `perm` (0..5) of a cubic snapshot: its axes permuted. Every
// permutation keeps the neighbour structure and maps the stride-4 feature
// sample grid onto itself, so a variant keeps the plain snapshot's tier mix
// while its content differs. (Periodic rolls do not: their seams sent
// ~9% of 32^3 requests to FRaZ.)
Tensor PermuteAxes(const Tensor& t, int perm) {
  static constexpr int kOrder[6][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1},
                                       {0, 2, 1}, {2, 1, 0}, {1, 0, 2}};
  const size_t n = t.dim(0);
  const int* order = kOrder[perm % 6];
  Tensor out(t.dims());
  size_t src[3];
  size_t i = 0;
  for (src[0] = 0; src[0] < n; ++src[0]) {
    for (src[1] = 0; src[1] < n; ++src[1]) {
      for (src[2] = 0; src[2] < n; ++src[2], ++i) {
        out[(src[order[0]] * n + src[order[1]]) * n + src[order[2]]] = t[i];
      }
    }
  }
  return out;
}

// The six axis permutations in an order drawn from `rng`.
std::vector<int> SeededPermutations(std::mt19937_64& rng) {
  std::vector<int> perms = {0, 1, 2, 3, 4, 5};
  std::shuffle(perms.begin(), perms.end(), rng);
  return perms;
}

// Nyx baryon_density snapshots of the Nyx-1 configuration at the given
// time steps, generated on up to four threads (outside every timed
// window). Every seed serves this one realization: the seed picks the
// axis permutation of each request's input (and the serving schedule).
// Different realizations move the accuracy metrics by up to 25% (PSNR
// 54-69 dB on fastpath_128 over five seeds) and put serve_open_32's p99
// in different modes, more than any bound could absorb.
std::vector<Tensor> GenerateSnapshots(size_t n, const std::vector<int>& steps) {
  NyxConfig config = NyxConfig1();
  config.nz = config.ny = config.nx = n;
  std::vector<Tensor> out(steps.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t workers = std::min<size_t>(4, steps.size());
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < steps.size();
           i = next.fetch_add(1)) {
        out[i] = GenerateNyxField(config, "baryon_density", steps[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// ------------------------------------------------------------ resources

// VmRSS / VmHWM from /proc/self/status, in bytes.
double ProcStatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::atof(line.c_str() + len + 1) * 1024.0;
    }
  }
  return 0.0;
}

// CPU time the hypervisor took from this VM's vCPUs (steal), summed over
// vCPUs, in seconds; 0 where /proc/stat reports none.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Steal as a share of the vCPUs' capacity over `seconds` of wall time.
double StealShare(double steal_seconds, double seconds) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return seconds > 0.0 ? steal_seconds / (seconds * cpus) : 0.0;
}

// Peak resident memory a phase adds. Start() returns the heap's free pages
// to the system and resets VmHWM to the current resident size, so the peak
// that follows is the phase's own working set.
class PeakResident {
 public:
  void Start() {
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    // Where VmHWM cannot be reset, the peak is measured from the resident
    // size at the start.
    base_ = out ? ProcStatusBytes("VmHWM:") : ProcStatusBytes("VmRSS:");
  }
  double AddedMb() const { return (ProcStatusBytes("VmHWM:") - base_) / kMB; }

 private:
  double base_ = 0.0;
};

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;
  double start;  // seconds since the run's epoch
  double end;
  int parent;  // index into the span list, -1 for a root
  uint64_t request;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }
  double Now() const { return Seconds(epoch_, Clock::now()); }
  int Record(const char* name, double start, double end, int parent,
             uint64_t request) {
    if (!on_) return -1;
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Times fn() as a span and returns its duration in seconds.
  template <typename F>
  double Time(const char* name, int parent, uint64_t request, F&& fn) {
    const double start = Now();
    fn();
    const double end = Now();
    Record(name, start, end, parent, request);
    return end - start;
  }
  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::ofstream out(path);
    out << "name\tstart_s\tend_s\tparent\trequest\n";
    for (const Span& s : spans_) {
      out << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.parent
          << '\t' << s.request << '\n';
    }
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------- output checks

struct Request {
  uint64_t id = 0;
  // Borrowed for the run phase only; aggregation reads input_bytes.
  const Tensor* data = nullptr;
  const Fxrz* fxrz = nullptr;
  size_t input_bytes = 0;
  double target = 0.0;
  // Outcome.
  double latency_s = kInf;  // guard call, or due -> callback when serving
  bool ok = false;          // the program returned an archive
  bool served = false;      // ... and it passed every benchmark check
  ServingTier tier = ServingTier::kRejected;
  int compressions = 0;
  double config = 0.0;
  double ratio = 0.0;  // recomputed from the archive bytes
  double psnr_db = 0.0;
  size_t archive_bytes = 0;
  uint64_t cache_misses = 0;  // analysis-cache misses of the guard call
  std::vector<uint8_t> archive;
  // Serving path.
  double due_s = 0.0;  // scheduled send, seconds after the run's epoch
  double queue_s = 0.0, service_s = 0.0;
  int attempts = 0;
  size_t batch_members = 0;
  bool refused = false;
  // The program answered with a Status other than "target not reachable",
  // or a served archive failed a check: the benchmark counts it failed.
  bool unexpected = false;
};

// True for the terminal Status of a target the codec cannot reach: today
// kInternal after the full ladder; a status code added after kCancelled
// (a dedicated out-of-range status) counts the same way.
bool TargetNotReached(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         static_cast<int>(status.code()) >
             static_cast<int>(StatusCode::kCancelled);
}

// Decodes the archive `reps` times (timed), then checks shape, the error
// bound (fpzip: finiteness), the recomputed ratio, and records PSNR.
// Returns false when a check fails.
bool CheckArchive(Request* r, int reps, double* decode_s, size_t* decode_bytes,
                  Tracer* tracer, int parent) {
  const Compressor& codec = r->fxrz->compressor();
  const Tensor& in = *r->data;
  Tensor out;
  for (int i = 0; i < reps; ++i) {
    Status status;
    *decode_s += tracer->Time("codec.decompress", parent, r->id, [&] {
      status = codec.Decompress(r->archive.data(), r->archive.size(), &out);
    });
    *decode_bytes += in.size_bytes();
    if (!status.ok()) return false;
  }
  if (out.dims() != in.dims()) return false;
  double max_abs = 0.0, max_err = 0.0, sq = 0.0;
  float lo = in[0], hi = in[0];
  bool finite = true;
  for (size_t i = 0; i < in.size(); ++i) {
    const double x = in[i], y = out[i];
    finite = finite && std::isfinite(y);
    max_abs = std::max(max_abs, std::abs(x));
    max_err = std::max(max_err, std::abs(x - y));
    sq += (x - y) * (x - y);
    lo = std::min(lo, in[i]);
    hi = std::max(hi, in[i]);
  }
  if (!finite) return false;
  if (codec.name() != "fpzip" && max_err > r->config + 1e-5 * max_abs) {
    return false;
  }
  r->archive_bytes = r->archive.size();
  r->ratio = Ratio(static_cast<double>(in.size_bytes()),
                   static_cast<double>(r->archive_bytes));
  if (EstimationError(r->target, r->ratio) > GuardOptions().accept_error) {
    return false;
  }
  const double rmse = std::sqrt(sq / static_cast<double>(in.size()));
  r->psnr_db = rmse > 0.0 ? 20.0 * std::log10((hi - lo) / rmse) : 999.0;
  return true;
}

// --------------------------------------------------------- layer replays

// Per-request layer timings from the traced replay.
struct LayerTimes {
  double admit_s = 0.0, extract_s = 0.0, ca_s = 0.0, query_s = 0.0,
         refine_s = 0.0, fraz_s = 0.0;
  int fraz_runs = 0;
  bool fraz = false;
  // Encoding proxy (Huffman + zlite over quantized residuals).
  double huff_enc_s = 0.0, huff_dec_s = 0.0, zlite_s = 0.0;
  size_t huff_bytes = 0, zlite_bytes = 0, proxy_input_bytes = 0;
};

// Symbol stream of an sz-like codec: previous-value residuals of the
// tensor, quantized at the served error bound.
std::vector<uint32_t> ResidualSymbols(const Tensor& t, double error_bound) {
  std::vector<uint32_t> symbols(t.size());
  const double step = 2.0 * std::max(error_bound, 1e-30);
  double prev = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    const double q = std::nearbyint((t[i] - prev) / step);
    const double clamped = std::clamp(q, -32767.0, 32767.0);
    symbols[i] = static_cast<uint32_t>(clamped + 32768.0);
    prev += clamped * step;
  }
  return symbols;
}

LayerTimes ReplayLayers(const Request& r, int parent, bool encoding_proxy,
                        Tracer* tracer) {
  LayerTimes lt;
  const Tensor& data = *r.data;
  const FxrzModel& model = r.fxrz->model();
  const uint64_t id = r.id;
  lt.admit_s = tracer->Time("guard.admit", parent, id, [&] {
    (void)AdmitTensor(data, r.target);
  });
  lt.extract_s = tracer->Time("analysis.extract", parent, id, [&] {
    (void)ExtractFeatures(data, model.options().features);
  });
  if (model.options().use_ca) {
    lt.ca_s = tracer->Time("analysis.ca_scan", parent, id, [&] {
      (void)ScanConstantBlocks(data, model.options().ca);
    });
  }
  (void)model.EstimateWithConfidence(data, r.target);  // warm the cache
  FxrzModel::ConfidentEstimate estimate;
  lt.query_s = tracer->Time("model.query", parent, id, [&] {
    estimate = model.EstimateWithConfidence(data, r.target);
  });
  const double measured = r.ok ? r.ratio : r.target * 2.0;
  lt.refine_s = tracer->Time("model.refine", parent, id, [&] {
    (void)model.RefineConfig(data, r.target, estimate.config, measured);
  });
  if (!r.ok || r.tier == ServingTier::kFrazFallback) {
    FrazResult fr;
    lt.fraz_s = tracer->Time("fraz.search", parent, id, [&] {
      fr = FrazSearch(r.fxrz->compressor(), data, r.target,
                      GuardOptions().fraz);
    });
    lt.fraz = true;
    lt.fraz_runs = fr.compressor_runs;
  }
  if (encoding_proxy && r.served) {
    const std::vector<uint32_t> symbols = ResidualSymbols(data, r.config);
    std::vector<uint8_t> huff, packed, unpacked;
    std::vector<uint32_t> decoded;
    lt.huff_enc_s = tracer->Time("encoding.huffman_encode", parent, id,
                                 [&] { huff = HuffmanEncode(symbols); });
    lt.huff_dec_s = tracer->Time("encoding.huffman_decode", parent, id, [&] {
      (void)HuffmanDecode(huff.data(), huff.size(), &decoded);
    });
    lt.zlite_s = tracer->Time("encoding.zlite", parent, id, [&] {
      packed = ZliteCompress(huff);
      (void)ZliteDecompress(packed.data(), packed.size(), &unpacked);
    });
    lt.huff_bytes = huff.size();
    lt.zlite_bytes = packed.size();
    lt.proxy_input_bytes = data.size_bytes();
  }
  return lt;
}

// Replays a request through `server` (the serve layer on a library-path
// workload) and records the reply's serve-layer fields.
void ServeReplay(FxrzServer* server, Request* r, int parent, Tracer* tracer) {
  std::promise<ServeReply> done;
  std::future<ServeReply> reply_future = done.get_future();
  ServeRequest request;
  request.data = r->data;
  request.target_ratio = r->target;
  request.callback = [&done](ServeReply reply) {
    done.set_value(std::move(reply));
  };
  const double start = tracer->Now();
  if (!server->Submit(std::move(request)).ok()) {
    r->refused = true;
    return;
  }
  const ServeReply reply = reply_future.get();
  tracer->Record("serve.request", start, tracer->Now(), parent, r->id);
  r->queue_s = reply.queue_seconds;
  r->service_s = reply.serve_seconds;
  r->attempts = reply.attempts;
  r->batch_members = reply.batch_members;
}

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string Json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A percentile that lands on a refused request is +inf; JSON has no
    // literal for it, so it is written the way Python's json module reads.
    const double v = metrics[i].value;
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", metrics[i].name.c_str(), v);
    } else {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %sInfinity, ",
                    i ? ", " : "", metrics[i].name.c_str(), v < 0 ? "-" : "");
    }
    s += buf;
    s += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

// Shared aggregation over requests, for both run modes.
struct Workload {
  std::vector<Request> requests;
  std::vector<double> setup_s;  // one entry per setup repetition
  std::vector<TrainingBreakdown> training;  // summed over backends per rep
  double decode_s = 0.0;
  size_t decode_bytes = 0;
  double peak_rss_mb = 0.0;
  bool serving = false;
  double late_ms_p99 = 0.0;
  double offered_rate = 0.0;
  std::vector<LayerTimes> layers;  // traced runs only, parallel to requests
  // Traced runs: wall time of the timed phase, and the part of it the
  // layer replays took (the tracing overhead).
  double phase_s = 0.0, replay_s = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;
  // Host CPU steal as a share of the vCPUs' capacity during the timed
  // phase.
  double steal_frac = 0.0;
};

void AddEndToEnd(const Workload& w, RunResult* out) {
  std::vector<double> lat_ms;
  double in_bytes = 0.0, guard_s = 0.0, ratio_err = 0.0, psnr = 0.0;
  size_t served = 0, comps = 0;
  for (const Request& r : w.requests) {
    lat_ms.push_back(r.latency_s * 1e3);
    in_bytes += static_cast<double>(r.input_bytes);
    guard_s += w.serving ? r.service_s : r.latency_s;
    if (!r.served) continue;
    ++served;
    comps += static_cast<size_t>(r.compressions);
    ratio_err += EstimationError(r.target, r.ratio);
    psnr += r.psnr_db;
  }
  const double n = static_cast<double>(w.requests.size());
  const double s = static_cast<double>(served);
  out->Add("setup_s", Median(w.setup_s), "s");
  out->Add("request_ms_p50", Percentile(lat_ms, 0.50), "ms");
  out->Add("request_ms_p90", Percentile(lat_ms, 0.90), "ms");
  out->Add("request_ms_p99", Percentile(lat_ms, 0.99), "ms");
  out->Add("input_mb_per_s", Ratio(in_bytes / kMB, guard_s), "MB/s");
  out->Add("decode_mb_per_s",
           Ratio(static_cast<double>(w.decode_bytes) / kMB, w.decode_s),
           "MB/s");
  out->Add("served_frac", Ratio(s, n), "frac");
  out->Add("compressions_per_served", Ratio(static_cast<double>(comps), s),
           "count");
  out->Add("ratio_err_mean", Ratio(ratio_err, s), "frac");
  out->Add("psnr_db_mean", Ratio(psnr, s), "dB");
  out->Add("peak_rss_mb", w.peak_rss_mb, "MB");
}

void AddPerLayer(const Workload& w, RunResult* out) {
  const double n = static_cast<double>(w.requests.size());
  std::vector<double> admit, extract, ca, query, refine, fraz_ms, fraz_runs;
  double tiers[5] = {0, 0, 0, 0, 0}, failed = 0;
  // Layer self time over all requests (shares) and derived codec time over
  // served requests (compress throughput by ratio band).
  double t_total = 0, t_admit = 0, t_analysis = 0, t_model = 0, t_queue = 0,
         t_fraz = 0;
  double c_bytes[3] = {0, 0, 0}, c_s[3] = {0, 0, 0};
  double huff_e = 0, huff_d = 0, zl = 0, huff_b = 0, zl_b = 0, proxy_in = 0;
  double archive_kb = 0, served = 0;
  std::vector<double> queue_ms, service_ms, late;
  double attempts = 0, members = 0, refused = 0;
  const double miss_frac =
      std::min(1.0, static_cast<double>(w.cache_misses) / n);
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const Request& r = w.requests[i];
    const LayerTimes& lt = w.layers[i];
    if (r.ok) tiers[static_cast<int>(r.tier)] += 1;
    if (!r.ok) failed += 1;
    admit.push_back(lt.admit_s * 1e3);
    extract.push_back(lt.extract_s * 1e3);
    ca.push_back(lt.ca_s * 1e3);
    query.push_back(lt.query_s * 1e6);
    refine.push_back(lt.refine_s * 1e6);
    if (lt.fraz) {
      fraz_ms.push_back(lt.fraz_s * 1e3);
      fraz_runs.push_back(lt.fraz_runs);
    }
    // The guarded call analysed the tensor only when it missed the cache
    // (on the serving path, whose workers share the cache, at the run's
    // miss rate).
    const double analysis = (lt.extract_s + lt.ca_s) *
                            (w.serving ? miss_frac : (r.cache_misses ? 1 : 0));
    const double model =
        lt.query_s + (r.tier == ServingTier::kRefined ? lt.refine_s : 0.0);
    const double guard = w.serving ? r.service_s : r.latency_s;
    if (std::isfinite(r.latency_s)) {
      t_total += r.latency_s;
      t_admit += lt.admit_s;
      t_analysis += analysis;
      t_model += model;
      t_fraz += lt.fraz_s;
      if (w.serving) t_queue += r.latency_s - r.service_s;
    }
    if (r.served) {
      served += 1;
      archive_kb += static_cast<double>(r.archive_bytes) / 1e3;
      const double codec_s =
          std::max(guard - lt.admit_s - analysis - model, 1e-9);
      const double bytes = static_cast<double>(r.input_bytes) *
                           static_cast<double>(r.compressions);
      const int band = r.ratio <= 12.0 ? 1 : (r.ratio >= 50.0 ? 2 : 0);
      c_bytes[0] += bytes;
      c_s[0] += codec_s;
      if (band) {
        c_bytes[band] += bytes;
        c_s[band] += codec_s;
      }
    }
    huff_e += lt.huff_enc_s;
    huff_d += lt.huff_dec_s;
    zl += lt.zlite_s;
    huff_b += static_cast<double>(lt.huff_bytes);
    zl_b += static_cast<double>(lt.zlite_bytes);
    proxy_in += static_cast<double>(lt.proxy_input_bytes);
    if (w.serving || r.attempts > 0 || r.refused) {
      refused += r.refused ? 1 : 0;
      if (!r.refused) {
        queue_ms.push_back(r.queue_s * 1e3);
        service_ms.push_back(r.service_s * 1e3);
        attempts += r.attempts;
        members += static_cast<double>(r.batch_members);
      }
    }
  }
  const double accepted = n - refused;
  out->Add("guard.admit_ms", Median(admit), "ms");
  out->Add("guard.tier_model_frac", tiers[2] / n, "frac");
  out->Add("guard.tier_refined_frac", tiers[3] / n, "frac");
  out->Add("guard.tier_fraz_frac", tiers[4] / n, "frac");
  out->Add("guard.failed_frac", failed / n, "frac");
  out->Add("analysis.extract_ms", Median(extract), "ms");
  out->Add("analysis.ca_scan_ms", Median(ca), "ms");
  out->Add("analysis.cache_hit_frac",
           Ratio(static_cast<double>(w.cache_hits),
                 static_cast<double>(w.cache_hits + w.cache_misses)),
           "frac");
  out->Add("model.query_us", Median(query), "us");
  out->Add("model.refine_us", Median(refine), "us");
  std::vector<double> st, au, fi, runs;
  for (const TrainingBreakdown& b : w.training) {
    st.push_back(b.stationary_seconds);
    au.push_back(b.augment_seconds);
    fi.push_back(b.fit_seconds);
    runs.push_back(static_cast<double>(b.compressor_runs));
  }
  out->Add("model.train_stationary_s", Median(st), "s");
  out->Add("model.train_augment_s", Median(au), "s");
  out->Add("model.train_fit_s", Median(fi), "s");
  out->Add("model.train_compressor_runs", Median(runs), "count");
  out->Add("codec.compress_mb_per_s", Ratio(c_bytes[0] / kMB, c_s[0]),
           "MB/s");
  out->Add("codec.compress_mb_per_s.cr_le_12",
           Ratio(c_bytes[1] / kMB, c_s[1]), "MB/s");
  out->Add("codec.compress_mb_per_s.cr_ge_50",
           Ratio(c_bytes[2] / kMB, c_s[2]), "MB/s");
  out->Add("codec.decompress_mb_per_s",
           Ratio(static_cast<double>(w.decode_bytes) / kMB, w.decode_s),
           "MB/s");
  out->Add("codec.archive_kb", Ratio(archive_kb, served), "KB");
  out->Add("encoding.huffman_encode_mb_per_s", Ratio(proxy_in / kMB, huff_e),
           "MB/s");
  out->Add("encoding.huffman_decode_mb_per_s", Ratio(proxy_in / kMB, huff_d),
           "MB/s");
  out->Add("encoding.zlite_mb_per_s", Ratio(huff_b / kMB, zl), "MB/s");
  out->Add("encoding.zlite_out_in", Ratio(zl_b, huff_b), "frac");
  out->Add("fraz.runs_per_search", Median(fraz_runs), "count");
  out->Add("fraz.search_ms", Median(fraz_ms), "ms");
  out->Add("serve.queue_ms_p50", Percentile(queue_ms, 0.50), "ms");
  out->Add("serve.queue_ms_p99", Percentile(queue_ms, 0.99), "ms");
  out->Add("serve.service_ms_p50", Percentile(service_ms, 0.50), "ms");
  out->Add("serve.shed_frac", refused / n, "frac");
  out->Add("serve.attempts_per_request", Ratio(attempts, accepted), "count");
  out->Add("serve.batch_members_mean", Ratio(members, accepted), "count");
  out->Add("loadgen.late_ms_p99", w.late_ms_p99, "ms");
  // Layer shares of request time (self time: the guard or service span
  // minus its replayed children; the remainder is the codec).
  const double t_codec =
      t_total - t_queue - t_admit - t_analysis - t_model - t_fraz;
  out->Add("share.queue", Ratio(t_queue, t_total), "frac");
  out->Add("share.admit", Ratio(t_admit, t_total), "frac");
  out->Add("share.analysis", Ratio(t_analysis, t_total), "frac");
  out->Add("share.model", Ratio(t_model, t_total), "frac");
  out->Add("share.fraz", Ratio(t_fraz, t_total), "frac");
  out->Add("share.codec", Ratio(t_codec, t_total), "frac");
  std::vector<double> lat_ms;
  for (const Request& r : w.requests) lat_ms.push_back(r.latency_s * 1e3);
  out->Add("trace.request_ms_p50", Percentile(lat_ms, 0.5), "ms");
  // Time the traced run adds to the untraced run's timed phase: the layer
  // replays and their span bookkeeping, as a share of that phase.
  out->Add("trace.overhead_frac", Ratio(w.replay_s, w.phase_s - w.replay_s),
           "frac");
}

// ------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

// Training options of every backend: stationary-point collection spread
// over all cores but one.
FxrzTrainingOptions TrainingOptions() {
  FxrzTrainingOptions options;
  options.training_threads =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()) - 1);
  return options;
}

// Trains one Fxrz per codec and returns the summed wall time.
double TrainBackends(const std::vector<std::string>& codecs,
                     const std::vector<const Tensor*>& training,
                     std::vector<std::unique_ptr<Fxrz>>* backends,
                     TrainingBreakdown* sum) {
  backends->clear();
  const auto t0 = Clock::now();
  for (const std::string& codec : codecs) {
    backends->push_back(
        std::make_unique<Fxrz>(MakeCompressor(codec), TrainingOptions()));
    const TrainingBreakdown b = backends->back()->Train(training);
    sum->stationary_seconds += b.stationary_seconds;
    sum->augment_seconds += b.augment_seconds;
    sum->fit_seconds += b.fit_seconds;
    sum->compressor_runs += b.compressor_runs;
  }
  return Seconds(t0, Clock::now());
}

// One closed-loop client on the library path. Each request is a guarded
// call; every served archive is decoded `decode_reps` times and checked
// before the next request. All inputs are built before setup.
struct LibraryPlan {
  size_t n = 0;
  std::vector<std::string> codecs;
  std::vector<int> train_steps, serve_steps;
  std::vector<double> targets;
  // Distinct inputs (axis permutations) per served snapshot; times the
  // number of targets unless same_input_across_targets. At most 6.
  int variants = 1;
  int decode_reps = 1;
  bool same_input_across_targets = false;
  // Traced runs also replay each request through a one-slot FxrzServer, so
  // the serve layer's dispatch cost is measured on this workload.
  bool serve_replay = false;
};

void RunLibrary(const LibraryPlan& plan, const Options& opt, Workload* w) {
  std::vector<int> steps = plan.train_steps;
  steps.insert(steps.end(), plan.serve_steps.begin(), plan.serve_steps.end());
  const std::vector<Tensor> snaps = GenerateSnapshots(plan.n, steps);
  std::vector<const Tensor*> training;
  for (size_t i = 0; i < plan.train_steps.size(); ++i) {
    training.push_back(&snaps[i]);
  }
  // Request inputs: every (snapshot, variant) is a distinct tensor; with
  // same_input_across_targets all targets share it, otherwise each target
  // gets its own variant.
  const size_t per_snapshot =
      static_cast<size_t>(plan.variants) *
      (plan.same_input_across_targets ? 1 : plan.targets.size());
  std::vector<Tensor> inputs(per_snapshot * plan.serve_steps.size());
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ULL + 17);
  for (size_t s = 0; s < plan.serve_steps.size(); ++s) {
    const std::vector<int> perms = SeededPermutations(rng);
    for (size_t v = 0; v < per_snapshot; ++v) {
      inputs[v * plan.serve_steps.size() + s] =
          PermuteAxes(snaps[plan.train_steps.size() + s], perms[v]);
    }
  }

  std::vector<std::unique_ptr<Fxrz>> backends;
  TrainingBreakdown breakdown;
  w->setup_s.push_back(
      TrainBackends(plan.codecs, training, &backends, &breakdown));
  w->training.push_back(breakdown);

  const size_t snapshots = plan.serve_steps.size();
  const size_t targets = plan.targets.size();
  uint64_t id = 0;
  for (size_t v = 0; v < static_cast<size_t>(plan.variants); ++v) {
    for (size_t s = 0; s < snapshots; ++s) {
      for (size_t k = 0; k < targets; ++k) {
        const size_t input = plan.same_input_across_targets
                                 ? v * snapshots + s
                                 : (v * targets + k) * snapshots + s;
        for (const auto& backend : backends) {
          Request r;
          r.id = id++;
          r.data = &inputs[input];
          r.input_bytes = r.data->size_bytes();
          r.fxrz = backend.get();
          r.target = plan.targets[k];
          w->requests.push_back(std::move(r));
        }
      }
    }
  }

  Tracer tracer(opt.trace);
  std::unique_ptr<FxrzServer> replay_server;
  if (tracer.on() && plan.serve_replay) {
    ServeOptions options;
    options.max_concurrency = 1;
    replay_server = std::make_unique<FxrzServer>(*backends[0], options);
  }
  PeakResident peak;
  peak.Start();
  const double steal0 = StealSeconds();
  const double phase0 = tracer.Now();
  for (Request& r : w->requests) {
    const FxrzModel& model = r.fxrz->model();
    const uint64_t hits0 = model.analysis_cache_hits();
    const uint64_t miss0 = model.analysis_cache_misses();
    const double start = tracer.Now();
    StatusOr<GuardedResult> result =
        r.fxrz->GuardedCompressToRatio(*r.data, r.target);
    const double end = tracer.Now();
    r.latency_s = end - start;
    const int span =
        tracer.Record("guard.request", start, end, -1, r.id);
    r.cache_misses = model.analysis_cache_misses() - miss0;
    w->cache_hits += model.analysis_cache_hits() - hits0;
    w->cache_misses += r.cache_misses;
    if (result.ok()) {
      GuardedResult& g = result.value();
      r.ok = true;
      r.tier = g.tier;
      r.compressions = g.compressions;
      r.config = g.config;
      r.archive = std::move(g.compressed);
      r.served = CheckArchive(&r, plan.decode_reps, &w->decode_s,
                              &w->decode_bytes, &tracer, span);
      r.unexpected = !r.served;
      r.archive.clear();
      r.archive.shrink_to_fit();
    } else {
      r.unexpected = !TargetNotReached(result.status());
    }
    if (tracer.on()) {
      const double replay0 = tracer.Now();
      w->layers.push_back(ReplayLayers(r, span, plan.codecs[0] == "sz",
                                       &tracer));
      if (replay_server) ServeReplay(replay_server.get(), &r, span, &tracer);
      w->replay_s += tracer.Now() - replay0;
    }
  }
  w->phase_s = tracer.Now() - phase0;
  w->steal_frac = StealShare(StealSeconds() - steal0, w->phase_s);
  w->peak_rss_mb = peak.AddedMb();
  tracer.Write(opt.spans);
}

// The open-loop timed phase: request i of w->requests is submitted at
// due[i] seconds after the start (`start_s` on the run's span clock), then
// the server is drained.
void RunSchedule(FxrzServer* server, const FxrzModel& model,
                 const std::vector<double>& due, double start_s,
                 Workload* w) {
  constexpr int kTenants = 4;
  const size_t n = w->requests.size();
  const uint64_t hits0 = model.analysis_cache_hits();
  const uint64_t miss0 = model.analysis_cache_misses();
  PeakResident peak;
  peak.Start();
  std::vector<double> late_ms(n, 0.0);
  const double steal0 = StealSeconds();
  const Clock::time_point epoch = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point when =
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
    // Spin rather than sleep: on a VM, waking a halted vCPU took up to
    // 5-8 ms (p99 lateness of an otherwise idle sleeping generator:
    // 4.9 ms), and that lateness would count in the delayed requests'
    // latency. The spin keeps the generator's reserved core awake.
    while (Clock::now() < when) {
    }
    late_ms[i] = Seconds(when, Clock::now()) * 1e3;
    Request* r = &w->requests[i];
    r->due_s = start_s + due[i];
    ServeRequest request;
    request.tenant = "tenant-" + std::to_string(i % kTenants);
    request.data = r->data;
    request.target_ratio = r->target;
    request.callback = [r, when](ServeReply reply) {
      r->latency_s = Seconds(when, Clock::now());
      r->queue_s = reply.queue_seconds;
      r->service_s = reply.serve_seconds;
      r->attempts = reply.attempts;
      r->batch_members = reply.batch_members;
      if (reply.status.ok()) {
        r->ok = true;
        r->tier = reply.result.tier;
        r->compressions = reply.result.compressions;
        r->config = reply.result.config;
        r->archive = std::move(reply.result.compressed);
      } else {
        r->unexpected = !TargetNotReached(reply.status);
      }
    };
    if (!server->Submit(std::move(request)).ok()) {
      r->refused = true;
      r->unexpected = true;
    }
  }
  server->Shutdown();
  w->phase_s = Seconds(epoch, Clock::now());
  w->steal_frac = StealShare(StealSeconds() - steal0, w->phase_s);
  w->peak_rss_mb = peak.AddedMb();
  w->cache_hits = model.analysis_cache_hits() - hits0;
  w->cache_misses = model.analysis_cache_misses() - miss0;
  w->late_ms_p99 = Percentile(late_ms, 0.99);
}

void RunServe(const Options& opt, Workload* w) {
  constexpr size_t kN = 32;
  constexpr int kVariants = 6;
  // Target 32 sends ~1.6% of these requests to the refine tier, which
  // would put p99 on the boundary between two modes; 8 and 16 stay on the
  // model tier.
  const std::vector<double> targets = {8, 16};
  std::vector<int> steps, train_steps, serve_steps;
  for (int t = 0; t <= 40; ++t) (t % 4 ? serve_steps : train_steps).push_back(t);
  steps = train_steps;
  steps.insert(steps.end(), serve_steps.begin(), serve_steps.end());
  const std::vector<Tensor> snaps = GenerateSnapshots(kN, steps);
  std::vector<const Tensor*> training;
  for (size_t i = 0; i < train_steps.size(); ++i) training.push_back(&snaps[i]);

  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ULL + 29);
  std::vector<Tensor> inputs;
  for (int v = 0; v < kVariants; ++v) {
    for (size_t s = 0; s < serve_steps.size(); ++s) {
      inputs.push_back(PermuteAxes(snaps[train_steps.size() + s], v));
    }
  }
  std::shuffle(inputs.begin(), inputs.end(), rng);

  // The schedule is fixed before the run: Poisson arrivals at kServeRate.
  const size_t n = static_cast<size_t>(std::ceil(kServeRate * opt.seconds));
  std::exponential_distribution<double> gap(kServeRate);
  std::vector<double> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += gap(rng);
    due[i] = t;
  }
  w->offered_rate = kServeRate;

  // Setup: train + server start, three times; the last server serves.
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  ServeOptions serve_options;
  serve_options.max_concurrency = cores - 1;
  std::unique_ptr<Fxrz> fxrz;
  std::unique_ptr<FxrzServer> server;
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();
    fxrz.reset();
    const auto t0 = Clock::now();
    fxrz = std::make_unique<Fxrz>(MakeCompressor("sz"), TrainingOptions());
    w->training.push_back(fxrz->Train(training));
    server = std::make_unique<FxrzServer>(*fxrz, serve_options);
    w->setup_s.push_back(Seconds(t0, Clock::now()));
  }

  w->requests.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Request& r = w->requests[i];
    r.id = i;
    r.data = &inputs[i % inputs.size()];
    r.input_bytes = r.data->size_bytes();
    r.fxrz = fxrz.get();
    r.target = targets[(i + i / inputs.size()) % targets.size()];
  }

  Tracer tracer(opt.trace);
  RunSchedule(server.get(), fxrz->model(), due, tracer.Now(), w);
  server.reset();
  if (w->late_ms_p99 > kLateLimitMs) {
    std::fprintf(stderr,
                 "invalid run: load generator p99 lateness %.3f ms exceeds "
                 "the %.1f ms limit\n",
                 w->late_ms_p99, kLateLimitMs);
    std::exit(3);
  }

  // Output checks (and decode throughput) after the timed phase.
  for (Request& r : w->requests) {
    const int span = tracer.Record("serve.request", r.due_s,
                                   r.due_s + r.latency_s, -1, r.id);
    if (r.ok) {
      r.served = CheckArchive(&r, 4, &w->decode_s, &w->decode_bytes,
                              &tracer, span);
      r.unexpected = !r.served;
    }
    r.archive.clear();
    r.archive.shrink_to_fit();
    if (opt.trace) {
      const double replay0 = tracer.Now();
      w->layers.push_back(ReplayLayers(r, span, true, &tracer));
      w->replay_s += tracer.Now() - replay0;
    }
  }
  tracer.Write(opt.spans);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--spans") {
      opt->spans = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: fxrz_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  // The closed-loop workloads run a fixed request list (100 and 60
  // requests, about 20-30 s on a 4-core host); --seconds sets the length of
  // the open-loop schedule.
  Workload w;
  if (opt.workload == "fastpath_128") {
    LibraryPlan plan;
    plan.n = 128;
    plan.codecs = {"sz"};
    plan.train_steps = {0, 3, 6};
    plan.serve_steps = {1, 2, 4, 5};
    plan.targets = {4, 8, 16, 32, 64};
    plan.variants = 5;
    plan.decode_reps = 2;
    plan.same_input_across_targets = true;
    plan.serve_replay = true;
    RunLibrary(plan, opt, &w);
  } else if (opt.workload == "escalate_64") {
    LibraryPlan plan;
    plan.n = 64;
    plan.codecs = {"zfp", "fpzip"};
    plan.train_steps = {0, 1, 2, 3, 4, 5};
    for (int t = 6; t < 16; ++t) plan.serve_steps.push_back(t);
    plan.targets = {10, 30, 100};
    plan.variants = 1;
    plan.decode_reps = 10;
    RunLibrary(plan, opt, &w);
  } else if (opt.workload == "serve_open_32") {
    w.serving = true;
    RunServe(opt, &w);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  RunResult result;
  if (opt.trace) {
    AddPerLayer(w, &result);
  } else {
    AddEndToEnd(w, &result);
  }
  size_t failed = 0;
  for (const Request& r : w.requests) failed += r.unexpected ? 1 : 0;
  result.correct = failed == 0;
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"simd\": \"%s\", \"offered_rate\": %g, \"requests\": %zu, "
      "\"steal_frac\": %.4f}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, std::thread::hardware_concurrency(), FXRZ_BENCH_BUILD_TYPE,
      simd::LevelName(simd::ActiveLevel()), w.offered_rate,
      w.requests.size(), w.steal_frac);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", w.requests.size(), failed,
              Json(result.metrics).c_str());
  return 0;
}
