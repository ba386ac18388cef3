#include "src/core/verify.h"

#include <cmath>
#include <cstdio>

#include "src/util/timer.h"

namespace fxrz {

std::string VerificationReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "round_trip=%s ratio=%.2f psnr=%.1fdB max_err=%.4g "
                "bound=%s compress=%.1fms decompress=%.1fms",
                round_trip_ok ? "ok" : "FAIL", ratio, distortion.psnr,
                distortion.max_abs_error, error_bound_ok ? "ok" : "FAIL",
                compress_seconds * 1e3, decompress_seconds * 1e3);
  return buf;
}

VerificationReport VerifyCompression(const Compressor& compressor,
                                     const Tensor& data, double config) {
  VerificationReport report;

  WallTimer compress_timer;
  const StatusOr<std::vector<uint8_t>> archive =
      compressor.Compress(data, config);
  report.compress_seconds = compress_timer.Seconds();
  if (!archive.ok()) return report;  // round_trip_ok stays false
  const std::vector<uint8_t>& bytes = archive.value();
  report.ratio =
      static_cast<double>(data.size_bytes()) / static_cast<double>(bytes.size());

  WallTimer decompress_timer;
  Tensor rec;
  const Status st = compressor.Decompress(bytes.data(), bytes.size(), &rec);
  report.decompress_seconds = decompress_timer.Seconds();
  if (!st.ok() || rec.dims() != data.dims()) {
    return report;  // round_trip_ok stays false
  }
  report.round_trip_ok = true;
  report.distortion = ComputeDistortion(data, rec);

  const SummaryStats stats = ComputeSummary(data);
  const ConfigSpace space = compressor.config_space(stats.value_range);
  if (space.integer || !space.ratio_increases) {
    // Precision/PSNR-style knobs have no absolute-error contract here.
    report.error_bound_ok = true;
  } else {
    const double slack =
        1e-5 * std::max(std::fabs(stats.min), std::fabs(stats.max)) + 1e-12;
    report.error_bound_ok = report.distortion.max_abs_error <= config + slack;
  }
  return report;
}

}  // namespace fxrz
