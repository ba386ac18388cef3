#include "src/compressors/mgard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/compressors/code_stream.h"
#include "src/encoding/bit_stream.h"
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
  MultilevelTransform(double* v, const std::vector<size_t>& dims)
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
    double* v = v_;

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

  double* v_;
  std::vector<size_t> dims_;
  size_t rank_;
  std::vector<size_t> strides_;
  size_t n_ = 0;
};

}  // namespace

StatusOr<std::vector<uint8_t>> MgardCompressor::DoCompress(
    const Tensor& data, double eb) const {
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::InvalidArgument(
        "mgard: error bound must be finite and > 0");
  }

  // One pass: refuse any NaN or Inf, and take the minimum as the offset.
  double offset = data[0];
  for (size_t i = 0; i < data.size(); ++i) {
    const double v = data[i];
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("mgard: input has NaN/Inf values");
    }
    offset = std::min(offset, v);
  }

  std::vector<double> v(data.size());
  ShiftToDouble(data.data(), data.size(), offset, v.data());

  const int levels = NumLevels(data.dims());
  MultilevelTransform transform(v.data(), data.dims());
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

  CodeStreamWriter stream;
  AppendDouble(stream.params(), eb);
  AppendDouble(stream.params(), offset);
  stream.params()->push_back(static_cast<uint8_t>(levels));
  stream.AddCodes(codes);
  std::vector<uint32_t>().swap(codes);
  return std::move(stream).Finish(kMagic, data);
}

Status MgardCompressor::DoDecompress(const uint8_t* data, size_t size,
                                     Tensor* out) const {
  CodeStreamReader stream;
  FXRZ_RETURN_IF_ERROR(stream.Parse(data, size, kMagic, "mgard"));
  const std::vector<size_t>& dims = stream.dims();
  ByteReader* params = stream.params();
  double eb = 0.0, offset = 0.0;
  uint8_t levels_byte = 0;
  if (!params->ReadF64(&eb) || !params->ReadF64(&offset) ||
      !params->ReadU8(&levels_byte)) {
    return Status::Corruption("mgard: short body");
  }
  const int levels = levels_byte;
  if (!std::isfinite(eb) || eb <= 0.0 || !std::isfinite(offset) ||
      levels < 1 || levels > 16) {
    return Status::Corruption("mgard: bad parameters");
  }
  OverwriteVector<uint32_t> codes;
  FXRZ_RETURN_IF_ERROR(stream.Codes("quantization codes", &codes));

  // Dequantization writes every coefficient and the shift every output.
  Tensor result = Tensor::ForOverwrite(dims);
  if (codes.size() != result.size()) {
    return Status::Corruption("mgard: code count mismatch");
  }

  const double q =
      2.0 * eb / (static_cast<double>(levels) * dims.size() + 1.0);
  OverwriteVector<double> v(codes.size());
  DequantizeZigZag(codes.data(), codes.size(), q, v.data());

  MultilevelTransform transform(v.data(), dims);
  transform.Inverse(levels);

  ShiftToFloat(v.data(), v.size(), offset, result.data());
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
