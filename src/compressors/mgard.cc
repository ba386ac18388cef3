#include "src/compressors/mgard.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x4D475231;  // "MGR1"

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
  // pass are therefore independent and any order (including the vector
  // kernel's) produces bit-identical results.
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
    // 1), whole rows are contiguous detail runs and go to the SIMD kernel.
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
          simd::LiftPredictContiguous(v, base, nbr, row, has_right, forward);
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

  const SummaryStats stats = ComputeSummary(data);
  const double offset = stats.min;

  std::vector<double> v(data.size());
  simd::ShiftToDouble(data.data(), data.size(), offset, v.data());

  const int levels = NumLevels(data.dims());
  MultilevelTransform transform(&v, data.dims());
  transform.Forward(levels);

  // Worst-case error accumulation: each of (levels * rank) predict passes
  // can add one quantization error; +1 for the point's own code.
  const double q =
      2.0 * eb / (static_cast<double>(levels) * data.rank() + 1.0);

  std::vector<uint32_t> codes(v.size());
  const double max_code = simd::QuantizeZigZag(v.data(), v.size(), q,
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
  simd::DequantizeZigZag(codes.data(), codes.size(), q, v.data());

  MultilevelTransform transform(&v, dims);
  transform.Inverse(levels);

  simd::ShiftToFloat(v.data(), v.size(), offset, result.data());
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
