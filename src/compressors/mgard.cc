#include "src/compressors/mgard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/util/check.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x4D475231;  // "MGR1"

// Element-wise kernels of the transform's input, output and quantizer.

// out[i] = double(in[i]) - offset.
void ShiftToDouble(const float* in, size_t n, double offset, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(in[i]) - offset;
  }
}

// out[i] = float(in[i] + offset).
void ShiftToFloat(const double* in, size_t n, double offset, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(in[i] + offset);
  }
}

inline int32_t UnZigZag32(uint32_t u) {
  return static_cast<int32_t>((u >> 1) ^ (~(u & 1u) + 1u));
}

// out[i] = UnZigZag(codes[i]) * step, as double.
void DequantizeZigZag(const uint32_t* codes, size_t n, double step,
                      double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(UnZigZag32(codes[i])) * step;
  }
}

// codes[i] = ZigZag(rint(v[i] / step)). Returns max_i |rint(v[i] / step)| so
// the caller can reject an out-of-range quantizer before trusting the codes.
double QuantizeZigZag(const double* v, size_t n, double step, uint32_t* out) {
  double max_code = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = std::rint(v[i] / step);
    max_code = std::max(max_code, std::fabs(r));
    // A round outside int32 (or a NaN) codes as the INT32_MIN sentinel
    // rather than through an undefined cast. The caller rejects any field
    // whose max_code reaches 1e9, so no sentinel lands in an archive.
    const int32_t c = std::fabs(r) < 2147483648.0 ? static_cast<int32_t>(r)
                                                  : INT32_MIN;
    const uint32_t u = static_cast<uint32_t>(c);
    out[i] = (u << 1) ^ static_cast<uint32_t>(c >> 31);
  }
  return max_code;
}

// The lifting predict step over a contiguous run of detail points (the
// inner stride is 1): for p = lin0 + i, i in [0, count),
//   pred = has_right ? 0.5*(v[p-nbr] + v[p+nbr]) : v[p-nbr];
//   v[p] -= pred (forward) or v[p] += pred (inverse).
// The caller guarantees nbr >= count, so the run never overlaps a
// neighbor read.
void LiftPredictContiguous(double* v, size_t lin0, size_t nbr, size_t count,
                           bool has_right, bool forward) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i;
    const double left = v[p - nbr];
    const double pred = has_right ? 0.5 * (left + v[p + nbr]) : left;
    if (forward) {
      v[p] -= pred;
    } else {
      v[p] += pred;
    }
  }
}

int NumLevels(const std::vector<size_t>& dims) {
  // Levels are limited by the smallest extent > 2 and capped at 4.
  int levels = 4;
  for (size_t d : dims) {
    if (d < 3) continue;
    int l = 0;
    while ((1u << (l + 1)) < d) ++l;
    levels = std::min(levels, l);
  }
  return std::max(levels, 1);
}

// Dimension-by-dimension multilevel lifting. Values are processed in
// double precision held in `v`. `forward` subtracts the interpolation
// prediction from detail points; the inverse adds it back. The exact same
// traversal order on both sides makes the pair an exact inverse (up to the
// quantization applied between them).
class MultilevelTransform {
 public:
  MultilevelTransform(std::vector<double>* v, const std::vector<size_t>& dims)
      : v_(v), dims_(dims), rank_(dims.size()) {
    strides_.assign(rank_, 1);
    for (size_t i = rank_; i-- > 1;) {
      strides_[i - 1] = strides_[i] * dims_[i];
    }
    n_ = 1;
    for (size_t d : dims_) n_ *= d;
  }

  void Forward(int levels) {
    for (int l = 1; l <= levels; ++l) {
      for (size_t axis = 0; axis < rank_; ++axis) {
        LiftAxis(l, axis, /*forward=*/true);
      }
    }
  }

  void Inverse(int levels) {
    for (int l = levels; l >= 1; --l) {
      for (size_t axis = rank_; axis-- > 0;) {
        LiftAxis(l, axis, /*forward=*/false);
      }
    }
  }

 private:
  // Applies the predict step along `axis` at level `l` to every detail
  // point: coordinates of processed axes (b < axis) on the coarse grid
  // (% step == 0), later axes (b > axis) still on the fine grid (% half == 0),
  // and this axis' coordinate at % step == half.
  //
  // Detail points are iterated directly (no full-grid odometer scan), which
  // is valid because same-pass detail points are never each other's
  // neighbors: a neighbor sits at +/- half along `axis`, which lands on a
  // coordinate that is 0 mod step, never half mod step. Updates within a
  // pass are therefore independent and any order produces bit-identical
  // results.
  void LiftAxis(int l, size_t axis, bool forward) {
    const size_t step = 1ull << l;
    const size_t half = step >> 1;
    if (dims_[axis] <= half) return;

    const size_t last = rank_ - 1;
    const size_t nbr = half * strides_[axis];
    const size_t row = dims_[last];
    double* v = v_->data();

    // Outer odometer over axes 0..rank_-2; the inner loop walks the last
    // axis. When `axis` is an outer axis and the inner stride is 1 (level
    // 1), whole rows are contiguous detail runs and go to one kernel call.
    std::vector<size_t> coord(rank_, 0);
    std::vector<size_t> inc(rank_);
    for (size_t b = 0; b < rank_; ++b) {
      inc[b] = b == axis ? step : (b < axis ? step : half);
    }
    if (axis != last) coord[axis] = half;
    for (;;) {
      size_t base = 0;
      for (size_t b = 0; b + 1 < rank_; ++b) base += coord[b] * strides_[b];
      if (axis == last) {
        for (size_t c = half; c < row; c += step) {
          const size_t lin = base + c;
          const bool has_right = c + half < row;
          const double left = v[lin - half];
          const double pred = has_right ? 0.5 * (left + v[lin + half]) : left;
          if (forward) {
            v[lin] -= pred;
          } else {
            v[lin] += pred;
          }
        }
      } else {
        const bool has_right = coord[axis] + half < dims_[axis];
        if (half == 1) {
          LiftPredictContiguous(v, base, nbr, row, has_right, forward);
        } else {
          for (size_t c = 0; c < row; c += half) {
            const size_t lin = base + c;
            const double left = v[lin - nbr];
            const double pred = has_right ? 0.5 * (left + v[lin + nbr]) : left;
            if (forward) {
              v[lin] -= pred;
            } else {
              v[lin] += pred;
            }
          }
        }
      }
      // Advance the outer odometer (carry resets `axis` to its half start).
      size_t b = rank_ - 1;
      bool done = true;
      while (b-- > 0) {
        coord[b] += inc[b];
        if (coord[b] < dims_[b]) {
          done = false;
          break;
        }
        coord[b] = b == axis ? half : 0;
      }
      if (done) break;
    }
  }

  std::vector<double>* v_;
  std::vector<size_t> dims_;
  size_t rank_;
  std::vector<size_t> strides_;
  size_t n_ = 0;
};

}  // namespace

ConfigSpace MgardCompressor::config_space(const Tensor& data) const {
  const SummaryStats s = ComputeSummary(data);
  ConfigSpace space;
  const double range = s.value_range > 0 ? s.value_range : 1.0;
  space.min = 1e-6 * range;
  space.max = 0.3 * range;
  space.log_scale = true;
  space.integer = false;
  space.ratio_increases = true;
  return space;
}

StatusOr<std::vector<uint8_t>> MgardCompressor::DoCompress(
    const Tensor& data, double eb) const {
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::InvalidArgument(
        "mgard: error bound must be finite and > 0");
  }

  // A NaN or Inf anywhere makes the sum behind the mean non-finite.
  const SummaryStats stats = ComputeSummary(data);
  if (!std::isfinite(stats.mean)) {
    return Status::InvalidArgument("mgard: input has NaN/Inf values");
  }
  const double offset = stats.min;

  std::vector<double> v(data.size());
  ShiftToDouble(data.data(), data.size(), offset, v.data());

  const int levels = NumLevels(data.dims());
  MultilevelTransform transform(&v, data.dims());
  transform.Forward(levels);

  // Worst-case error accumulation: each of (levels * rank) predict passes
  // can add one quantization error; +1 for the point's own code.
  const double q =
      2.0 * eb / (static_cast<double>(levels) * data.rank() + 1.0);

  std::vector<uint32_t> codes(v.size());
  const double max_code = QuantizeZigZag(v.data(), v.size(), q,
                                               codes.data());
  if (!(max_code < 1e9)) {
    return Status::InvalidArgument(
        "mgard: quantization overflow; error bound too small for this data");
  }

  std::vector<double>().swap(v);

  const std::vector<uint8_t> huff = HuffmanEncode(codes);
  std::vector<uint32_t>().swap(codes);
  std::vector<uint8_t> body;
  body.reserve(8 + 8 + 1 + 8 + huff.size());
  AppendDouble(&body, eb);
  AppendDouble(&body, offset);
  body.push_back(static_cast<uint8_t>(levels));
  AppendUint64(&body, huff.size());
  body.insert(body.end(), huff.begin(), huff.end());

  const std::vector<uint8_t> packed = ZliteCompress(body);
  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

Status MgardCompressor::DoDecompress(const uint8_t* data, size_t size,
                                     Tensor* out) const {
  ByteReader archive(data, size);
  std::vector<size_t> dims;
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&archive, kMagic, &dims));

  std::vector<uint8_t> body;
  FXRZ_RETURN_IF_ERROR(
      ZliteDecompress(archive.cursor(), archive.remaining(), &body));

  ByteReader reader(body);
  double eb = 0.0, offset = 0.0;
  uint8_t levels_byte = 0;
  if (!reader.ReadF64(&eb) || !reader.ReadF64(&offset) ||
      !reader.ReadU8(&levels_byte)) {
    return Status::Corruption("mgard: short body");
  }
  const int levels = levels_byte;
  if (!std::isfinite(eb) || eb <= 0.0 || !std::isfinite(offset) ||
      levels < 1 || levels > 16) {
    return Status::Corruption("mgard: bad parameters");
  }
  const uint8_t* huff_bytes = nullptr;
  size_t huff_size = 0;
  if (!reader.ReadLengthPrefixed(&huff_bytes, &huff_size)) {
    return Status::Corruption("mgard: trunc");
  }

  std::vector<uint32_t> codes;
  FXRZ_RETURN_IF_ERROR(HuffmanDecode(huff_bytes, huff_size, &codes));

  Tensor result(dims);
  if (codes.size() != result.size()) {
    return Status::Corruption("mgard: code count mismatch");
  }

  const double q =
      2.0 * eb / (static_cast<double>(levels) * dims.size() + 1.0);
  std::vector<double> v(codes.size());
  DequantizeZigZag(codes.data(), codes.size(), q, v.data());

  MultilevelTransform transform(&v, dims);
  transform.Inverse(levels);

  ShiftToFloat(v.data(), v.size(), offset, result.data());
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
