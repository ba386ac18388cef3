// Micro-benchmarks for the kernels underneath FXRZ: compressor throughput,
// feature extraction, entropy coders, FFT/GRF. Not tied to a specific paper
// table; used to track performance regressions.
//
// Two modes:
//   * default: the google-benchmark suite (./micro_kernels [--benchmark_*]).
//   * --kernels: the per-kernel throughput harness. Times every codec's
//     compress/decompress path, both entropy coders, and zlite over the
//     body of an sz archive, at 64^3 and 256^3; reports GB/s of
//     uncompressed data moved (for zlite, of its input body) as the best
//     of 5 reps, timed round-robin across all rows of a grid so a slow
//     phase of the host is spread over every row; optionally writes the
//     results as JSON (--json FILE) and gates them against a checked-in
//     baseline (--gate FILE [--tolerance T]). The gate fails a kernel only
//     when it drops below tolerance * baseline -- it exists to catch
//     algorithmic regressions, not noise -- and fails outright when it
//     compared nothing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/data/fft.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/encoding/arith.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace {

using namespace fxrz;

const Tensor& TestField() {
  static const Tensor* field =
      new Tensor(GaussianRandomField3D(32, 32, 32, 3.0, 77));
  return *field;
}

// Smooth field plus noise, synthesized directly (no FFT) so 256^3 setup
// stays cheap. Deterministic for run-to-run comparability.
Tensor MakeCubeField(size_t n) {
  Rng rng(4242);
  Tensor t({n, n, n});
  float* p = t.data();
  size_t i = 0;
  for (size_t z = 0; z < n; ++z) {
    for (size_t y = 0; y < n; ++y) {
      for (size_t x = 0; x < n; ++x, ++i) {
        p[i] = static_cast<float>(std::sin(0.11 * z) + std::cos(0.07 * y) +
                                  0.013 * x + 0.05 * rng.NextGaussian());
      }
    }
  }
  return t;
}

// Quantization-code-like symbol stream: sharply peaked at the zero-error
// code with a geometric spread, matching what the codecs feed Huffman.
std::vector<uint32_t> MakeCodeStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> symbols(n);
  for (auto& s : symbols) {
    const double r = rng.NextDouble();
    if (r < 0.85) {
      s = 32768u;
    } else {
      s = 32768u + static_cast<uint32_t>(rng.NextBelow(64)) -
          static_cast<uint32_t>(rng.NextBelow(64));
    }
  }
  return symbols;
}

// 16-bit symbols through the adaptive binary coder, one context per bit
// position (how fpzip-style codecs drive it).
std::vector<uint8_t> ArithEncode16(const std::vector<uint32_t>& symbols) {
  ArithEncoder enc;
  BitContext ctx[16];
  for (uint32_t s : symbols) {
    for (int b = 15; b >= 0; --b) {
      enc.EncodeBit(&ctx[b], (s >> b) & 1u);
    }
  }
  return std::move(enc).Finish();
}

void ArithDecode16(const uint8_t* data, size_t size, size_t count,
                   std::vector<uint32_t>* out) {
  ArithDecoder dec(data, size);
  BitContext ctx[16];
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t s = 0;
    for (int b = 15; b >= 0; --b) {
      s |= dec.DecodeBit(&ctx[b]) << b;
    }
    (*out)[i] = s;
  }
}

// ---------------------------------------------------------------------------
// google-benchmark suite (default mode).
// ---------------------------------------------------------------------------

void BM_Compress(benchmark::State& state, const std::string& name) {
  const auto comp = MakeCompressor(name);
  const Tensor& data = TestField();
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config = space.integer ? 16 : std::sqrt(space.min * space.max);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp->Compress(data, config).value());
  }
  state.SetBytesProcessed(state.iterations() * data.size_bytes());
}

void BM_Decompress(benchmark::State& state, const std::string& name) {
  const auto comp = MakeCompressor(name);
  const Tensor& data = TestField();
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config = space.integer ? 16 : std::sqrt(space.min * space.max);
  const std::vector<uint8_t> bytes = comp->Compress(data, config).value();
  Tensor out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp->Decompress(bytes.data(), bytes.size(), &out));
  }
  state.SetBytesProcessed(state.iterations() * data.size_bytes());
}

void BM_FeatureExtraction(benchmark::State& state) {
  const Tensor& data = TestField();
  FeatureOptions opts;
  opts.stride = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractFeatures(data, opts));
  }
  state.SetBytesProcessed(state.iterations() * data.size_bytes());
}

void BM_ConstantBlockScan(benchmark::State& state) {
  const Tensor& data = TestField();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanConstantBlocks(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size_bytes());
}

void BM_Huffman(benchmark::State& state) {
  const std::vector<uint32_t> symbols = MakeCodeStream(1 << 16, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HuffmanEncode(symbols));
  }
  state.SetBytesProcessed(state.iterations() * symbols.size() * 4);
}

void BM_HuffmanDecode(benchmark::State& state) {
  const std::vector<uint32_t> symbols = MakeCodeStream(1 << 16, 1);
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HuffmanDecode(enc.data(), enc.size(), &out));
  }
  state.SetBytesProcessed(state.iterations() * symbols.size() * 4);
}

void BM_ArithEncode(benchmark::State& state) {
  const std::vector<uint32_t> symbols = MakeCodeStream(1 << 16, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ArithEncode16(symbols));
  }
  state.SetBytesProcessed(state.iterations() * symbols.size() * 4);
}

void BM_ArithDecode(benchmark::State& state) {
  const std::vector<uint32_t> symbols = MakeCodeStream(1 << 16, 2);
  const std::vector<uint8_t> enc = ArithEncode16(symbols);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    ArithDecode16(enc.data(), enc.size(), symbols.size(), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * symbols.size() * 4);
}

void BM_Zlite(benchmark::State& state) {
  Rng rng(2);
  std::vector<uint8_t> input(1 << 18);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>((i / 64) % 7 + rng.NextBelow(3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZliteCompress(input));
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}

void BM_Fft3D(benchmark::State& state) {
  std::vector<std::complex<double>> data(32 * 32 * 32);
  Rng rng(3);
  for (auto& c : data) c = {rng.NextGaussian(), rng.NextGaussian()};
  for (auto _ : state) {
    auto copy = data;
    Fft3D(&copy, 32, 32, 32, false);
    benchmark::DoNotOptimize(copy);
  }
}

void BM_GrfSynthesis(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianRandomField3D(32, 32, 32, 3.0, seed++));
  }
}

BENCHMARK_CAPTURE(BM_Compress, sz, "sz");
BENCHMARK_CAPTURE(BM_Compress, sz3, "sz3");
BENCHMARK_CAPTURE(BM_Compress, zfp, "zfp");
BENCHMARK_CAPTURE(BM_Compress, fpzip, "fpzip");
BENCHMARK_CAPTURE(BM_Compress, mgard, "mgard");
BENCHMARK_CAPTURE(BM_Decompress, sz, "sz");
BENCHMARK_CAPTURE(BM_Decompress, sz3, "sz3");
BENCHMARK_CAPTURE(BM_Decompress, zfp, "zfp");
BENCHMARK_CAPTURE(BM_Decompress, fpzip, "fpzip");
BENCHMARK_CAPTURE(BM_Decompress, mgard, "mgard");
BENCHMARK(BM_FeatureExtraction)->Arg(1)->Arg(4);
BENCHMARK(BM_ConstantBlockScan);
BENCHMARK(BM_Huffman);
BENCHMARK(BM_HuffmanDecode);
BENCHMARK(BM_ArithEncode);
BENCHMARK(BM_ArithDecode);
BENCHMARK(BM_Zlite);
BENCHMARK(BM_Fft3D);
BENCHMARK(BM_GrfSynthesis);

// ---------------------------------------------------------------------------
// Per-kernel throughput harness (--kernels mode).
// ---------------------------------------------------------------------------

struct KernelResult {
  std::string name;
  size_t grid = 0;  // cube edge length
  double gbps = 0.0;
};

// Every harness codec runs at the geometric middle of its config space
// (precision 16 for integer knobs).
double BenchConfig(const Compressor& comp, const Tensor& data) {
  const ConfigSpace space = comp.config_space(ValueRange(data));
  return space.integer ? 16 : std::sqrt(space.min * space.max);
}

// One timed row of the harness: `rep` runs the kernel once over `bytes` of
// input.
struct TimedRow {
  std::string name;
  double bytes = 0.0;
  std::function<void()> rep;
  double best_s = 1e300;
};

// Reps per row. Each round times every row once, so a slow phase of the
// host lands on one rep of every row instead of all reps of a few rows,
// and the best of kRounds keeps the least-noise rep of each.
constexpr int kRounds = 5;

// Times `rows` round-robin and appends each row's best throughput, in row
// order. Every row has run once before (its setup built or checked the
// data it times), which absorbs first-touch effects.
void TimeInterleaved(std::vector<TimedRow>* rows, size_t grid,
                     std::vector<KernelResult>* results) {
  for (int round = 0; round < kRounds; ++round) {
    for (TimedRow& row : *rows) {
      WallTimer timer;
      row.rep();
      row.best_s = std::min(row.best_s, timer.Seconds());
    }
  }
  for (const TimedRow& row : *rows) {
    const double gbps = row.bytes / row.best_s / 1e9;
    results->push_back({row.name, grid, gbps});
    std::fprintf(stderr, "  %-22s %zu^3  %7.4f GB/s\n", row.name.c_str(),
                 grid, gbps);
  }
}

std::vector<KernelResult> RunKernelHarness(const std::vector<size_t>& grids) {
  std::vector<KernelResult> results;
  const char* codecs[] = {"sz", "sz3", "zfp", "fpzip", "mgard"};
  for (size_t grid : grids) {
    const Tensor data = MakeCubeField(grid);
    const double bytes = static_cast<double>(data.size_bytes());
    std::vector<TimedRow> rows;

    // The decode rows share one output tensor, so the harness keeps one
    // decoded copy of the field between reps, not one per codec.
    Tensor out;
    std::vector<std::unique_ptr<Compressor>> comps;
    std::vector<std::vector<uint8_t>> archives;
    comps.reserve(std::size(codecs));
    archives.reserve(std::size(codecs));
    for (const char* name : codecs) {
      comps.push_back(MakeCompressor(name));
      const Compressor* comp = comps.back().get();
      const double config = BenchConfig(*comp, data);
      archives.push_back(comp->Compress(data, config).value());
      const std::vector<uint8_t>* archive = &archives.back();
      FXRZ_CHECK(comp->Decompress(archive->data(), archive->size(), &out).ok());
      rows.push_back({std::string(name) + "_compress", bytes, [&, comp,
                                                               config] {
                        benchmark::DoNotOptimize(
                            comp->Compress(data, config).value());
                      }});
      rows.push_back({std::string(name) + "_decompress", bytes,
                      [&out, comp, archive] {
                        benchmark::DoNotOptimize(comp->Decompress(
                            archive->data(), archive->size(), &out));
                      }});
    }

    // zlite over the body of the sz archive (the archive minus its
    // header): entropy-coded sections, which no codec passes through zlite
    // any more. The decode row writes into an OverwriteVector
    // (src/util/overwrite.h), reused across reps as a caller's would be.
    std::vector<uint8_t> body;
    {
      const std::vector<uint8_t>& archive = archives[0];  // sz
      ByteReader reader(archive);
      std::vector<size_t> dims;
      FXRZ_CHECK(compressor_internal::ParseHeader(
                     &reader, ReadUint32(archive.data()), &dims)
                     .ok());
      body.assign(reader.cursor(), reader.cursor() + reader.remaining());
    }
    const std::vector<uint8_t> packed = ZliteCompress(body);
    OverwriteVector<uint8_t> unpacked;
    FXRZ_CHECK(ZliteDecompress(packed.data(), packed.size(), &unpacked).ok());
    FXRZ_CHECK(std::equal(unpacked.begin(), unpacked.end(), body.begin(),
                          body.end()));
    const double body_bytes = static_cast<double>(body.size());
    rows.push_back({"zlite_compress", body_bytes,
                    [&] { benchmark::DoNotOptimize(ZliteCompress(body)); }});
    rows.push_back({"zlite_decompress", body_bytes, [&] {
                      benchmark::DoNotOptimize(ZliteDecompress(
                          packed.data(), packed.size(), &unpacked));
                    }});

    const std::vector<uint32_t> symbols = MakeCodeStream(data.size(), 9);
    const double sym_bytes = static_cast<double>(symbols.size()) * 4;
    const std::vector<uint8_t> huff = HuffmanEncode(symbols);
    const std::vector<uint8_t> arith = ArithEncode16(symbols);
    OverwriteVector<uint32_t> codes;
    FXRZ_CHECK(HuffmanDecode(huff.data(), huff.size(), &codes).ok());
    FXRZ_CHECK(std::equal(codes.begin(), codes.end(), symbols.begin(),
                          symbols.end()));
    std::vector<uint32_t> decoded;
    ArithDecode16(arith.data(), arith.size(), symbols.size(), &decoded);
    FXRZ_CHECK(decoded == symbols);
    rows.push_back({"huffman_encode", sym_bytes,
                    [&] { benchmark::DoNotOptimize(HuffmanEncode(symbols)); }});
    rows.push_back({"huffman_decode", sym_bytes, [&] {
                      benchmark::DoNotOptimize(
                          HuffmanDecode(huff.data(), huff.size(), &codes));
                    }});
    rows.push_back({"arith_encode", sym_bytes,
                    [&] { benchmark::DoNotOptimize(ArithEncode16(symbols)); }});
    rows.push_back({"arith_decode", sym_bytes, [&] {
                      ArithDecode16(arith.data(), arith.size(), symbols.size(),
                                    &decoded);
                      benchmark::DoNotOptimize(decoded);
                    }});

    TimeInterleaved(&rows, grid, &results);
  }
  return results;
}

std::string ResultsToJson(const std::vector<KernelResult>& results) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"kernel\":\"%s\",\"grid\":%zu,\"gbps\":%.6f}%s",
                  results[i].name.c_str(), results[i].grid, results[i].gbps,
                  i + 1 < results.size() ? "," : "");
    out << line << "\n";
  }
  out << "]\n";
  return out.str();
}

// Minimal field scanners for the line-per-entry JSON this harness writes.
bool ExtractString(const std::string& line, const std::string& key,
                   std::string* out) {
  const std::string pat = "\"" + key + "\":\"";
  const size_t pos = line.find(pat);
  if (pos == std::string::npos) return false;
  const size_t start = pos + pat.size();
  const size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool ExtractNumber(const std::string& line, const std::string& key,
                   double* out) {
  const std::string pat = "\"" + key + "\":";
  const size_t pos = line.find(pat);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + pat.size(), nullptr);
  return true;
}

// Gates live results against a baseline file. Returns the number of
// failures; a baseline with no readable entry counts as one, so the gate
// cannot pass having compared nothing.
int GateAgainstBaseline(const std::vector<KernelResult>& results,
                        const std::string& baseline_path, double tolerance) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "gate: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  int failures = 0;
  size_t compared = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string kernel;
    double grid = 0, gbps = 0;
    if (!ExtractString(line, "kernel", &kernel) ||
        !ExtractNumber(line, "grid", &grid) ||
        !ExtractNumber(line, "gbps", &gbps)) {
      continue;
    }
    const KernelResult* live = nullptr;
    for (const auto& r : results) {
      if (r.name == kernel && r.grid == static_cast<size_t>(grid)) {
        live = &r;
        break;
      }
    }
    if (live == nullptr) {
      std::fprintf(stderr, "gate: FAIL %s@%zu^3 missing from live run\n",
                   kernel.c_str(), static_cast<size_t>(grid));
      ++failures;
      continue;
    }
    ++compared;
    const double floor = gbps * tolerance;
    if (live->gbps < floor) {
      std::fprintf(stderr,
                   "gate: FAIL %s@%zu^3 %.4f GB/s < %.4f GB/s "
                   "(baseline %.4f * tolerance %.2f)\n",
                   kernel.c_str(), live->grid, live->gbps, floor, gbps,
                   tolerance);
      ++failures;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "gate: FAIL no baseline entry in %s\n",
                 baseline_path.c_str());
    ++failures;
  }
  std::fprintf(stderr,
               "gate: %zu kernels compared, %d failed (tolerance %.2f)\n",
               compared, failures, tolerance);
  return failures;
}

int KernelHarnessMain(int argc, char** argv) {
  std::string json_path, gate_path;
  double tolerance = 0.35;
  std::vector<size_t> grids = {64, 256};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels") continue;
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--gate" && i + 1 < argc) {
      gate_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--quick") {
      grids = {64};
    } else {
      std::fprintf(stderr,
                   "usage: micro_kernels --kernels [--json FILE] "
                   "[--gate FILE] [--tolerance T] [--quick]\n");
      return 2;
    }
  }
  std::fprintf(stderr, "kernel throughput harness\n");
  const std::vector<KernelResult> results = RunKernelHarness(grids);
  const std::string json = ResultsToJson(results);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (!gate_path.empty()) {
    return GateAgainstBaseline(results, gate_path, tolerance) == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels") == 0) {
      return KernelHarnessMain(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
