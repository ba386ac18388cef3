// Calibrates the per-codec peak-memory multipliers behind
// CodecMemoryMultiplier (src/util/mem_budget.h): for every codec in the
// extended evaluation set, measure the real peak working-set growth of a
// compress + decompress round trip and express it as a multiple of the
// input tensor's bytes. The admission-control table must dominate the
// measurement -- the budget exists to prevent OOM, so an estimate that
// UNDER-states a codec's peak silently re-opens the overload hole the
// governance layer closed.
//
// Measurement: each codec runs in a fresh child process (this binary
// re-executed with --codec NAME), so no codec's reading depends on what
// an earlier one left in the allocator. The child takes Linux VmHWM from
// /proc/self/status, reset by writing "5" to /proc/self/clear_refs,
// against a VmRSS baseline taken after the input tensor is resident and a
// small warmup has settled code pages. The working grid is large (128^3
// floats, 8 MiB) so the codec's transient buffers sit far above the
// allocator's mmap threshold: they are mapped on use and unmapped on
// free, which makes the RSS delta track the true transient peak instead
// of arena noise. The reported multiplier counts the input tensor itself
// (1.0 + delta / tensor_bytes), matching what EstimatePeakBytes reserves.
//
// Writes BENCH_mem.json; with --gate, fails if any codec's measured
// multiplier exceeds its table entry. On platforms without the /proc
// interfaces the measurement is unavailable and the gate passes vacuously
// with a message -- the table stays authoritative.
//
// Usage: mem_calibration [--dim N] [--gate]
//        mem_calibration --dim N --codec NAME   (one measurement; prints
//                                                "multiplier <x>")

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/util/mem_budget.h"

namespace {

using namespace fxrz;

// Reads a VmHWM/VmRSS-style line (kB) from /proc/self/status; returns 0
// when the field or the file is unavailable (non-Linux).
uint64_t ReadStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  const size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      kb = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Resets the peak-RSS watermark so VmHWM re-tracks from the current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  std::fclose(f);
  return ok;
}

// One codec's round trip in this process: the peak-RSS multiplier, or a
// negative value (after a message) when a codec run failed.
double MeasureCodec(const std::string& name, size_t dim) {
  const Tensor field = GaussianRandomField3D(dim, dim, dim, 2.0, 11);
  const auto compressor = MakeCompressor(name);
  const double config = compressor->config_space(field).min;
  // Settle allocator arenas and code pages outside the measured window,
  // on a small probe so the warmup's freed buffers cannot mask the real
  // run's large transients.
  const Tensor probe = GaussianRandomField3D(8, 8, 8, 2.0, 3);
  if (!compressor->Compress(probe, compressor->config_space(probe).min)
           .ok()) {
    std::fprintf(stderr, "%s: warmup compress failed\n", name.c_str());
    return -1.0;
  }
  const uint64_t baseline_kb = ReadStatusKb("VmRSS");
  if (!ResetPeakRss()) return -1.0;
  {
    const StatusOr<std::vector<uint8_t>> archive =
        compressor->Compress(field, config);
    if (!archive.ok()) {
      std::fprintf(stderr, "%s: compress failed\n", name.c_str());
      return -1.0;
    }
    Tensor decoded;
    if (!compressor
             ->Decompress(archive.value().data(), archive.value().size(),
                          &decoded)
             .ok()) {
      std::fprintf(stderr, "%s: decompress failed\n", name.c_str());
      return -1.0;
    }
  }
  const uint64_t peak_kb = ReadStatusKb("VmHWM");
  const double delta_bytes =
      peak_kb > baseline_kb
          ? static_cast<double>(peak_kb - baseline_kb) * 1024.0
          : 0.0;
  return 1.0 + delta_bytes / static_cast<double>(field.size_bytes());
}

// Runs `exe --dim dim --codec name` and parses its "multiplier <x>" line;
// negative when the child failed.
double MeasureInChild(const std::string& exe, const std::string& name,
                      size_t dim) {
  const std::string command = "'" + exe + "' --dim " + std::to_string(dim) +
                              " --codec " + name;
  std::FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return -1.0;
  double measured = -1.0;
  if (std::fscanf(child, "multiplier %lf", &measured) != 1) measured = -1.0;
  return pclose(child) == 0 ? measured : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t dim = 128;
  bool gate = false;
  std::string codec;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(argv[i], "--codec") == 0 && i + 1 < argc) {
      codec = argv[++i];
    }
  }
  if (dim < 32) dim = 32;

  const bool can_measure = ResetPeakRss() && ReadStatusKb("VmHWM") > 0;
  if (!can_measure) {
    std::printf("mem_calibration: /proc peak-RSS interface unavailable; "
                "measurement skipped, table stays authoritative.\n");
    return 0;
  }
  if (!codec.empty()) {
    const double measured = MeasureCodec(codec, dim);
    if (measured < 0.0) return 1;
    std::printf("multiplier %.6f\n", measured);
    return 0;
  }

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::printf("mem_calibration: cannot locate this binary to re-run it\n");
    return 1;
  }
  exe[exe_len] = '\0';

  const double tensor_bytes = static_cast<double>(dim * dim * dim) *
                              static_cast<double>(sizeof(float));
  std::printf("mem_calibration: %zu^3 grid, %.1f MiB input, one process "
              "per codec\n",
              dim, tensor_bytes / (1024.0 * 1024.0));

  struct Row {
    std::string codec;
    double measured;
    double table;
  };
  std::vector<Row> rows;
  bool pass = true;
  for (const std::string& name : ExtendedCompressorNames()) {
    const double measured = MeasureInChild(exe, name, dim);
    if (measured < 0.0) {
      std::printf("  %-8s measurement failed\n", name.c_str());
      pass = false;
      continue;
    }
    const double table = CodecMemoryMultiplier(name);
    const bool ok = measured <= table;
    if (!ok) pass = false;
    rows.push_back({name, measured, table});
    std::printf("  %-8s measured x%.2f  table x%.2f  %s\n", name.c_str(),
                measured, table, ok ? "ok" : "UNDER-ESTIMATED");
  }

  std::FILE* f = std::fopen("BENCH_mem.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"grid_dim\": %zu,\n", dim);
    std::fprintf(f, "  \"tensor_bytes\": %.0f,\n", tensor_bytes);
    std::fprintf(f, "  \"codecs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"codec\": \"%s\", \"measured_multiplier\": %.3f, "
                   "\"table_multiplier\": %.3f}%s\n",
                   rows[i].codec.c_str(), rows[i].measured, rows[i].table,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_mem.json\n");
  }

  if (gate) {
    std::printf("mem_calibration gate: %s (every table multiplier must "
                "dominate its measurement)\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
  }
  return 0;
}
