#include "src/compressors/compressor.h"

#include "src/compressors/chunked.h"
#include "src/compressors/fpzip.h"
#include "src/compressors/mgard.h"
#include "src/compressors/sz.h"
#include "src/compressors/sz3.h"
#include "src/compressors/zfp.h"
#include <map>

#include "src/encoding/bit_stream.h"
#include "src/util/check.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"
#include "src/util/trace.h"

namespace fxrz {

namespace {

// Per-codec metrics, resolved once per codec name and cached. RunCompress
// (behind Compress and zfp's fixed-rate mode) and Decompress below are the
// single choke point every codec run goes through, so instrumenting here
// covers all codecs (and the chunked decorator, whose inner base runs
// count under the base codec's label) at once. The map lookup is
// mutex-guarded but costs nanoseconds against the millisecond-scale codec
// runs it measures; the metric updates themselves are lock-free.
struct CodecMetrics {
  metrics::Counter* compress_calls;
  metrics::Counter* compress_failures;
  metrics::Counter* compress_bytes_in;
  metrics::Counter* compress_bytes_out;
  metrics::Counter* decompress_calls;
  metrics::Counter* decompress_failures;
  metrics::Counter* decompress_bytes_in;
  metrics::Counter* decompress_bytes_out;
  metrics::Histogram* achieved_ratio;
  metrics::Histogram* decompress_throughput;
};

// Registry lock for the codec-metrics cache below. A named, annotated
// global (not a function-local static) so the thread-safety analysis can
// tie the cache to it via FXRZ_GUARDED_BY.
AnnotatedMutex g_codec_metrics_mu;
std::map<std::string, CodecMetrics>* g_codec_metrics
    FXRZ_GUARDED_BY(g_codec_metrics_mu) = nullptr;

const CodecMetrics& GetCodecMetrics(const std::string& codec) {
  MutexLock lock(g_codec_metrics_mu);
  if (g_codec_metrics == nullptr) {
    // Leaked on purpose: metric handles are process-lifetime.
    g_codec_metrics = new std::map<std::string, CodecMetrics>();
  }
  auto* cache = g_codec_metrics;
  auto it = cache->find(codec);
  if (it != cache->end()) return it->second;
  const std::string label = "{codec=\"" + codec + "\"}";
  CodecMetrics m;
  m.compress_calls = &metrics::GetCounter(
      "fxrz_codec_compress_total" + label, "Compress calls per codec");
  m.compress_failures = &metrics::GetCounter(
      "fxrz_codec_compress_failures_total" + label,
      "Compress calls that returned a non-OK Status");
  m.compress_bytes_in = &metrics::GetCounter(
      "fxrz_codec_compress_bytes_in_total" + label,
      "Uncompressed bytes fed to Compress (successful calls)");
  m.compress_bytes_out = &metrics::GetCounter(
      "fxrz_codec_compress_bytes_out_total" + label,
      "Archive bytes produced by Compress (successful calls)");
  m.decompress_calls = &metrics::GetCounter(
      "fxrz_codec_decompress_total" + label, "Decompress calls per codec");
  m.decompress_failures = &metrics::GetCounter(
      "fxrz_codec_decompress_failures_total" + label,
      "Decompress calls that returned a non-OK Status");
  m.decompress_bytes_in = &metrics::GetCounter(
      "fxrz_codec_decompress_bytes_in_total" + label,
      "Archive bytes fed to Decompress (successful calls)");
  m.decompress_bytes_out = &metrics::GetCounter(
      "fxrz_codec_decompress_bytes_out_total" + label,
      "Reconstructed bytes produced by Decompress (successful calls)");
  m.achieved_ratio = &metrics::GetHistogram(
      "fxrz_codec_achieved_ratio" + label, metrics::RatioBuckets(),
      "Achieved compression ratio (bytes in / bytes out) per Compress");
  m.decompress_throughput = &metrics::GetHistogram(
      "fxrz_codec_decompress_bytes_per_second" + label,
      metrics::ThroughputBuckets(),
      "Decode throughput in reconstructed bytes per wall-clock second per "
      "successful Decompress (dropped by WithoutTimings)");
  return cache->emplace(codec, m).first->second;
}

}  // namespace

StatusOr<std::vector<uint8_t>> Compressor::Compress(const Tensor& data,
                                                    double config) const {
  return RunCompress(data, [&] { return DoCompress(data, config); });
}

StatusOr<std::vector<uint8_t>> Compressor::RunCompress(
    const Tensor& data,
    const std::function<StatusOr<std::vector<uint8_t>>()>& run) const {
  FXRZ_TRACE_SPAN("codec.compress");
  const CodecMetrics& m = GetCodecMetrics(name());
  m.compress_calls->Increment();
  if (fault::Hit(fault::Site::kCompressorCompress)) {
    m.compress_failures->Increment();
    // Unavailable: the injected fault models a transient backend failure
    // (the same request can succeed a moment later), which is what the
    // serving layer's StatusIsRetryable classification keys on.
    return Status::Unavailable("injected fault: " + name() + " Compress");
  }
  if (data.empty()) {
    m.compress_failures->Increment();
    return Status::InvalidArgument(name() + ": empty tensor");
  }
  StatusOr<std::vector<uint8_t>> out = run();
  if (out.ok() && out.value().empty()) {
    out = Status::Internal(name() + ": Compress produced an empty archive");
  }
  if (!out.ok()) {
    m.compress_failures->Increment();
    return out;
  }
  const size_t archive_bytes = out.value().size();
  m.compress_bytes_in->Increment(data.size_bytes());
  m.compress_bytes_out->Increment(archive_bytes);
  m.achieved_ratio->Observe(static_cast<double>(data.size_bytes()) /
                            static_cast<double>(archive_bytes));
  return out;
}

Status Compressor::VerifyIntegrity(const uint8_t* data, size_t size) const {
  // Minimal structural floor for checksum-less streams: every FXRZ codec
  // stream starts with a 4-byte magic and a 4-byte rank.
  if (data == nullptr || size < 8) {
    return Status::Corruption(name() + ": archive too short");
  }
  return Status::Ok();
}

Status Compressor::Decompress(const uint8_t* data, size_t size,
                              Tensor* out) const {
  FXRZ_CHECK(out != nullptr);
  FXRZ_TRACE_SPAN("codec.decompress");
  const CodecMetrics& m = GetCodecMetrics(name());
  m.decompress_calls->Increment();
  if (fault::Hit(fault::Site::kCompressorDecompress)) {
    m.decompress_failures->Increment();
    return Status::Unavailable("injected fault: " + name() + " Decompress");
  }
  const WallTimer timer;
  const Status status = DoDecompress(data, size, out);
  if (!status.ok()) {
    m.decompress_failures->Increment();
    return status;
  }
  const double elapsed = timer.Seconds();
  m.decompress_bytes_in->Increment(size);
  m.decompress_bytes_out->Increment(out->size_bytes());
  if (elapsed > 0.0) {
    m.decompress_throughput->Observe(
        static_cast<double>(out->size_bytes()) / elapsed);
  }
  return status;
}

std::unique_ptr<Compressor> MakeCompressorOrNull(const std::string& name) {
  if (name == "sz") return std::make_unique<SzCompressor>();
  if (name == "sz3") return std::make_unique<Sz3Compressor>();
  if (name == "zfp") return std::make_unique<ZfpCompressor>();
  if (name == "fpzip") return std::make_unique<FpzipCompressor>();
  if (name == "mgard") return std::make_unique<MgardCompressor>();
  return nullptr;
}

std::unique_ptr<Compressor> MakeArchiveCompressorOrNull(
    const std::string& name) {
  constexpr char kChunkedSuffix[] = "-chunked";
  constexpr size_t kSuffixLen = sizeof(kChunkedSuffix) - 1;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kChunkedSuffix) ==
          0) {
    auto base = MakeCompressorOrNull(name.substr(0, name.size() - kSuffixLen));
    if (base == nullptr) return nullptr;
    return std::make_unique<ChunkedCompressor>(std::move(base));
  }
  return MakeCompressorOrNull(name);
}

std::unique_ptr<Compressor> MakeCompressor(const std::string& name) {
  std::unique_ptr<Compressor> comp = MakeCompressorOrNull(name);
  FXRZ_CHECK(comp != nullptr) << "unknown compressor: " << name;
  return comp;
}

std::vector<std::string> AllCompressorNames() {
  // The four compressors of the paper's evaluation. "sz3" (interpolation-
  // based, see src/compressors/sz3.h) is additionally available through
  // MakeCompressor and ExtendedCompressorNames.
  return {"sz", "zfp", "fpzip", "mgard"};
}

std::vector<std::string> ExtendedCompressorNames() {
  return {"sz", "sz3", "zfp", "fpzip", "mgard"};
}

namespace compressor_internal {

ConfigSpace ErrorBoundSpace(double value_range) {
  const double range = value_range > 0 ? value_range : 1.0;
  ConfigSpace space;
  space.min = 1e-6 * range;
  space.max = 0.3 * range;
  return space;
}

void AppendHeader(std::vector<uint8_t>* out, uint32_t magic,
                  const Tensor& data) {
  AppendUint32(out, magic);
  AppendUint32(out, static_cast<uint32_t>(data.rank()));
  for (size_t i = 0; i < data.rank(); ++i) {
    AppendUint64(out, data.dim(i));
  }
}

Status ParseHeader(ByteReader* reader, uint32_t magic,
                   std::vector<size_t>* dims) {
  FXRZ_CHECK(reader != nullptr && dims != nullptr);
  if (fault::Hit(fault::Site::kArchiveDecode)) {
    return Status::Corruption("injected fault: archive decode");
  }
  uint32_t got_magic = 0;
  uint32_t rank = 0;
  if (!reader->ReadU32(&got_magic) || !reader->ReadU32(&rank)) {
    return Status::Corruption("short header");
  }
  if (got_magic != magic) return Status::Corruption("bad magic");
  if (rank == 0 || rank > Tensor::kMaxRank) {
    return Status::Corruption("bad rank");
  }
  dims->resize(rank);
  size_t total = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    uint64_t dim = 0;
    if (!reader->ReadU64(&dim)) return Status::Corruption("truncated dims");
    if (dim == 0) return Status::Corruption("zero dim");
    // Guard against corrupt headers demanding absurd allocations.
    if (dim > (1ull << 32) || total > (1ull << 33) / dim) {
      return Status::Corruption("implausible dims");
    }
    (*dims)[i] = static_cast<size_t>(dim);
    total *= (*dims)[i];
  }
  return Status::Ok();
}

}  // namespace compressor_internal

}  // namespace fxrz
