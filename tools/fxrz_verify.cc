// fxrz_verify: audit FXRZ artifacts at rest.
//
//   fxrz_verify inspect     <file>   container layout + section checksums
//   fxrz_verify verify      <file>   checksum-only audit (no decoding)
//   fxrz_verify verify-deep <file>   checksums + full decode of every
//                                    section (field stores read every
//                                    field, models deserialize, archives
//                                    decompress)
//   fxrz_verify make-fixtures <dir>  write one of each artifact kind
//                                    (store.fxs, model.fxm, archive.fxa)
//   fxrz_verify selftest    <dir>    end-to-end self-check: builds the
//                                    fixtures, verifies them, then proves
//                                    single-byte corruption and stale
//                                    temp files are handled
//   fxrz_verify stats <dir> [golden] scripted train -> compress ->
//                                    decompress -> audit run; dumps the
//                                    metrics delta it produced as
//                                    Prometheus text (<dir>/stats.prom)
//                                    and JSON (<dir>/stats.json) and
//                                    prints both. Wall-clock histograms
//                                    are excluded, so the output is
//                                    deterministic; with [golden] given,
//                                    both files are byte-compared against
//                                    golden/stats.{prom,json} and a
//                                    mismatch exits 1.
//
// This is the supported way to audit archives on shared filesystems:
// `verify` is one sequential read per file, `verify-deep` additionally
// proves the payloads decode. Exit code 0 = intact, 1 = corrupt or
// unreadable. Version-0 (pre-container) files carry no checksums; verify
// reports them as unprotected but does not fail them.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/core/drift.h"
#include "src/core/model.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/serve/quota.h"
#include "src/store/container.h"
#include "src/store/field_store.h"
#include "src/util/file_io.h"
#include "src/util/mem_budget.h"
#include "src/util/metrics.h"
#include "src/util/thread_pool.h"

namespace {

using namespace fxrz;

int Fail(const Status& status) {
  std::fprintf(stderr, "FAIL: %s\n", status.ToString().c_str());
  return 1;
}

// Decodes one container section according to its name. Returns OK for
// unknown section names (forward compatibility: new section kinds must not
// fail old auditors).
Status DeepVerifySection(const ContainerSection& section) {
  const size_t size = static_cast<size_t>(section.size);
  if (section.name == kSectionFieldStore) {
    FieldStoreReader reader;
    FXRZ_RETURN_IF_ERROR(
        reader.FromBytes(std::vector<uint8_t>(section.data,
                                              section.data + size)));
    for (const FieldEntry& entry : reader.entries()) {
      Tensor t;
      FXRZ_RETURN_IF_ERROR(reader.ReadField(entry.name, &t));
    }
    return Status::Ok();
  }
  if (section.name == kSectionModel) {
    FxrzModel model;
    return model.LoadFromBytes(section.data, size);
  }
  if (section.name.rfind(kSectionArchivePrefix, 0) == 0) {
    const std::string codec =
        section.name.substr(std::strlen(kSectionArchivePrefix));
    const auto comp = MakeArchiveCompressorOrNull(codec);
    if (comp == nullptr) {
      return Status::Corruption("unknown archive codec '" + codec + "'");
    }
    FXRZ_RETURN_IF_ERROR(comp->VerifyIntegrity(section.data, size));
    Tensor t;
    return comp->Decompress(section.data, size, &t);
  }
  return Status::Ok();
}

int Audit(const std::string& path, bool inspect, bool deep) {
  std::vector<uint8_t> bytes;
  const Status read = ReadFileBytes(path, &bytes);
  if (!read.ok()) return Fail(read);
  if (!LooksLikeContainer(bytes.data(), bytes.size())) {
    std::printf("%s: version-0 file (%zu bytes, no integrity metadata)\n",
                path.c_str(), bytes.size());
    return 0;
  }
  const size_t file_bytes = bytes.size();
  ContainerReader reader;
  const Status parsed = reader.Parse(std::move(bytes));
  if (!parsed.ok()) return Fail(parsed);
  if (inspect) {
    std::printf("%s: container v%u, %zu sections, %zu bytes\n", path.c_str(),
                kContainerVersion, reader.sections().size(), file_bytes);
    for (const ContainerSection& section : reader.sections()) {
      std::printf("  %-24s %10llu bytes  crc32c %08x\n",
                  section.name.c_str(),
                  static_cast<unsigned long long>(section.size), section.crc);
    }
  }
  for (const ContainerSection& section : reader.sections()) {
    if (deep) {
      const Status decoded = DeepVerifySection(section);
      if (!decoded.ok()) {
        std::fprintf(stderr, "FAIL: section '%s': %s\n", section.name.c_str(),
                     decoded.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("%s: OK (%zu sections%s)\n", path.c_str(),
              reader.sections().size(), deep ? ", deep-verified" : "");
  return 0;
}

// One of each artifact kind, small enough that deep verification in ctest
// stays cheap.
int MakeFixtures(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Tensor a = GaussianRandomField3D(16, 16, 16, 3.0, 7001);
  const Tensor b = GaussianRandomField3D(16, 16, 16, 3.0, 7002);

  {
    FieldStoreWriter writer("sz");
    Status st = writer.AddFieldFixedConfig("density", a, 0.02);
    if (st.ok()) st = writer.AddFieldFixedConfig("pressure", b, 0.05);
    if (st.ok()) st = writer.WriteToFile(dir + "/store.fxs");
    if (!st.ok()) return Fail(st);
  }
  {
    FxrzModel model;
    const auto sz = MakeCompressor("sz");
    model.Train(*sz, {&a, &b});
    const Status st = model.SaveToFile(dir + "/model.fxm");
    if (!st.ok()) return Fail(st);
  }
  {
    ChunkedCompressor chunked(MakeCompressor("sz"), /*target_chunk_elems=*/512);
    StatusOr<std::vector<uint8_t>> archive = chunked.Compress(a, 0.01);
    if (!archive.ok()) return Fail(archive.status());
    const Status st =
        WriteContainerFile(dir + "/archive.fxa",
                           std::string(kSectionArchivePrefix) + chunked.name(),
                           archive.value());
    if (!st.ok()) return Fail(st);
  }
  std::printf("fixtures written to %s\n", dir.c_str());
  return 0;
}

int SelfTest(const std::string& dir) {
  if (MakeFixtures(dir) != 0) return 1;

  // Every fixture must pass a deep audit.
  for (const char* name : {"store.fxs", "model.fxm", "archive.fxa"}) {
    if (Audit(dir + "/" + name, /*inspect=*/false, /*deep=*/true) != 0) {
      return 1;
    }
  }

  // Single-byte corruption at a coarse stride must never verify.
  std::vector<uint8_t> bytes;
  const std::string store = dir + "/store.fxs";
  Status st = ReadFileBytes(store, &bytes);
  if (!st.ok()) return Fail(st);
  for (size_t pos = 0; pos < bytes.size(); pos += 64) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x20;
    ContainerReader reader;
    if (reader.Parse(std::move(corrupt)).ok()) {
      std::fprintf(stderr, "FAIL: flipped byte %zu went undetected\n", pos);
      return 1;
    }
  }

  // A stale temp file (crash debris between flush and rename) must not
  // affect the committed file.
  {
    std::vector<uint8_t> junk(128, 0xAB);
    const Status wst = ReadFileBytes(store, &bytes);
    if (!wst.ok()) return Fail(wst);
    std::FILE* f = std::fopen(AtomicTempPath(store).c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(junk.data(), 1, junk.size(), f);
      std::fclose(f);
    }
    if (Audit(store, /*inspect=*/false, /*deep=*/true) != 0) return 1;
    std::remove(AtomicTempPath(store).c_str());
  }

  std::printf("selftest OK\n");
  return 0;
}

Status WriteAndCompare(const std::string& path, const std::string& text,
                       const std::string& golden_path) {
  FXRZ_RETURN_IF_ERROR(
      AtomicWriteFile(path, std::vector<uint8_t>(text.begin(), text.end())));
  if (golden_path.empty()) return Status::Ok();
  std::vector<uint8_t> golden;
  FXRZ_RETURN_IF_ERROR(ReadFileBytes(golden_path, &golden));
  if (std::string(golden.begin(), golden.end()) != text) {
    return Status::Internal("stats output differs from golden " +
                            golden_path + " (regenerate with `fxrz_verify "
                            "stats <dir>` and inspect the diff)");
  }
  return Status::Ok();
}

// Scripted, fully seeded serving run that exercises every instrumented
// subsystem exactly once per design: train -> guarded compress (model
// ladder, a constant field, a rejected request) -> decompress -> container
// round trip -> chunked checksum audit. Every input is seed-pinned, and
// every counter counts calls made by this function, each of which returns
// the same result however its parallel sections are split across
// SharedThreadPool() (the forest draws its random streams up front; the
// codecs' bytes do not depend on the split). So the metrics delta is a pure
// function of the code -- which is what makes golden-file comparison
// meaningful. Timing histograms are stripped before the comparison.
int Stats(const std::string& dir, const std::string& golden_dir) {
  if (!metrics::Enabled()) {
    std::printf("metrics layer compiled out (FXRZ_METRICS=OFF); no stats\n");
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Fail(Status::Internal("cannot create stats dir " + dir + ": " +
                                 ec.message()));
  }
  const metrics::MetricsSnapshot before = metrics::MetricsSnapshot::Capture();

  // Train on three small fields; serve a fourth.
  std::vector<Tensor> fields;
  for (uint64_t seed = 9001; seed <= 9003; ++seed) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, seed));
  }
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train({&fields[0], &fields[1], &fields[2]});

  DriftMonitor drift;
  GuardOptions options;
  options.verify_archive = true;
  options.drift = &drift;

  const Tensor query = GaussianRandomField3D(16, 16, 16, 3.0, 9004);
  std::vector<uint8_t> archive;
  for (double target : {8.0, 16.0, 32.0}) {
    StatusOr<GuardedResult> result =
        fxrz.GuardedCompressToRatio(query, target, options);
    if (!result.ok()) return Fail(result.status());
    archive = std::move(result.value().compressed);
  }

  // Constant-field fast path and an admission reject.
  Tensor constant({8, 8, 8});
  for (size_t i = 0; i < constant.size(); ++i) constant[i] = 1.5f;
  if (StatusOr<GuardedResult> r =
          fxrz.GuardedCompressToRatio(constant, 16.0, options);
      !r.ok()) {
    return Fail(r.status());
  }
  if (fxrz.GuardedCompressToRatio(query, 0.5, options).ok()) {
    return Fail(Status::Internal("admission accepted an invalid target"));
  }

  // Decompress the last served archive.
  Tensor decoded;
  if (Status st = fxrz.compressor().Decompress(archive.data(), archive.size(),
                                               &decoded);
      !st.ok()) {
    return Fail(st);
  }

  // Container round trip + chunked checksum audit.
  ChunkedCompressor chunked(MakeCompressor("sz"), /*target_chunk_elems=*/512);
  StatusOr<std::vector<uint8_t>> chunked_compressed =
      chunked.Compress(query, 0.01);
  if (!chunked_compressed.ok()) return Fail(chunked_compressed.status());
  const std::vector<uint8_t>& chunked_archive = chunked_compressed.value();
  if (Status st = chunked.VerifyIntegrity(chunked_archive.data(),
                                          chunked_archive.size());
      !st.ok()) {
    return Fail(st);
  }
  const std::string archive_path = dir + "/stats_archive.fxa";
  if (Status st = WriteContainerFile(
          archive_path, std::string(kSectionArchivePrefix) + chunked.name(),
          chunked_archive);
      !st.ok()) {
    return Fail(st);
  }
  std::vector<uint8_t> reread;
  if (Status st = ReadContainerFile(
          archive_path, std::string(kSectionArchivePrefix) + chunked.name(),
          &reread);
      !st.ok()) {
    return Fail(st);
  }

  // Resource-governance surface: a scripted quota/budget exercise so the
  // fxrz_quota_* and fxrz_mem_* series appear in the stats surface with
  // fixed values. The token bucket gets explicit time_points (never the
  // wall clock) and the budget a fixed capacity, so every counter and
  // gauge below is a pure function of the code.
  {
    QuotaOptions quota_options;
    quota_options.default_tenant.requests_per_second = 2.0;
    quota_options.default_tenant.burst = 2.0;
    quota_options.default_tenant.max_queued_bytes = 1024;
    quota_options.default_tenant.max_inflight_requests = 1;
    QuotaManager quota(quota_options);
    const QuotaManager::Clock::time_point t0{};
    if (!quota.Admit("alpha", 256, t0).ok() ||
        !quota.Admit("alpha", 256, t0).ok()) {
      return Fail(Status::Internal("stats: quota burst admission failed"));
    }
    if (quota.Admit("alpha", 256, t0).ok()) {
      return Fail(Status::Internal("stats: quota rate limit missed"));
    }
    if (quota.Admit("beta", 2048, t0).ok()) {
      return Fail(Status::Internal("stats: quota byte limit missed"));
    }
    quota.OnDispatch("alpha", 256);
    quota.OnComplete("alpha");
    quota.OnShed("alpha", 256);

    MemoryBudget budget(4096);
    const MemReservation held = budget.TryReserve(4096);
    if (!held.held() || budget.TryReserve(1).held()) {
      return Fail(Status::Internal("stats: memory budget accounting broken"));
    }
  }

  // A parallel section returns once its units are done, which can be before
  // the pool helpers it submitted have exited; wait for them so the closing
  // snapshot reads fxrz_threadpool_inflight at zero.
  SharedThreadPool()->Wait();
  const metrics::MetricsSnapshot raw_delta = metrics::MetricsSnapshot::Delta(
      before, metrics::MetricsSnapshot::Capture());
  const metrics::MetricsSnapshot delta = raw_delta.WithoutTimings();
  const std::string prom = metrics::ToPrometheusText(delta);
  const std::string json = metrics::ToJson(delta);
  std::printf("%s\n%s", prom.c_str(), json.c_str());

  // Kernel-speed readout from the timing histograms WithoutTimings strips:
  // stdout only, never part of the golden-compared files, because the
  // numbers are wall-clock dependent.
  constexpr char kThroughputPrefix[] = "fxrz_codec_decompress_bytes_per_second";
  std::printf("codec decode throughput (mean over this run):\n");
  for (const metrics::MetricValue& v : raw_delta.values) {
    if (v.kind != metrics::MetricKind::kHistogram || v.count == 0 ||
        v.name.compare(0, sizeof(kThroughputPrefix) - 1, kThroughputPrefix) !=
            0) {
      continue;
    }
    std::printf("  %s  %.1f MB/s (n=%llu)\n", v.name.c_str(),
                v.sum / static_cast<double>(v.count) / 1e6,
                static_cast<unsigned long long>(v.count));
  }

  Status st = WriteAndCompare(
      dir + "/stats.prom", prom,
      golden_dir.empty() ? "" : golden_dir + "/stats.prom");
  if (st.ok()) {
    st = WriteAndCompare(dir + "/stats.json", json,
                         golden_dir.empty() ? "" : golden_dir + "/stats.json");
  }
  if (!st.ok()) return Fail(st);
  std::printf("stats written to %s%s\n", dir.c_str(),
              golden_dir.empty() ? "" : " (golden match)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: %s <inspect|verify|verify-deep|make-fixtures|"
                 "selftest> <file|dir>\n"
                 "       %s stats <dir> [golden-dir]\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  const std::string target = argv[2];
  if (cmd == "stats") {
    return Stats(target, argc == 4 ? argv[3] : "");
  }
  if (argc != 3) {
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  }
  if (cmd == "inspect") return Audit(target, /*inspect=*/true, /*deep=*/false);
  if (cmd == "verify") return Audit(target, /*inspect=*/false, /*deep=*/false);
  if (cmd == "verify-deep") {
    return Audit(target, /*inspect=*/true, /*deep=*/true);
  }
  if (cmd == "make-fixtures") return MakeFixtures(target);
  if (cmd == "selftest") return SelfTest(target);
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
