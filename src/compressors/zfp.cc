#include "src/compressors/zfp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/negabinary.h"
#include "src/util/check.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x5A465031;  // "ZFP1"
constexpr int kFixedPointBits = 26;      // q: value scale 2^q within a block
constexpr int kTotalPlanes = 32;         // bitplanes kept per coefficient
// Inverse-transform error growth safety margin (log2). The ZFP lifting gains
// at most ~2.64x per dimension; 2^5 = 32 covers 3 dimensions plus the
// accumulation of per-plane truncation.
constexpr int kGuardBits = 5;

// max_i |in[i]|, or NaN as soon as an element is NaN, so a NaN anywhere in
// a block reaches the caller's finiteness check instead of being skipped.
float MaxAbs(const float* in, size_t n) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float a = std::fabs(in[i]);
    if (std::isnan(a)) return a;
    m = std::max(m, a);
  }
  return m;
}

// out[i] = int64(rint(double(in[i]) * scale)). The caller has checked the
// block is finite, so every product fits the block-floating-point range.
void QuantizeFixedPoint(const float* in, size_t n, double scale,
                        int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(
        std::rint(static_cast<double>(in[i]) * scale));
  }
}

// zfp's 4-point lifting steps along stride `s`.
inline void FwdLift4(int64_t* p, size_t s) {
  int64_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

inline void InvLift4(int64_t* p, size_t s) {
  int64_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

// The lifting transform along every axis of a 4^nd block (x-fastest,
// nd in [1, 3]): x, then y, then z (strides 1, 4, 16); the inverse runs the
// axes in reverse.
void ZfpForwardTransform(int64_t* b, size_t nd) {
  const size_t n = 1ull << (2 * nd);
  if (nd >= 1) {
    for (size_t row = 0; row < n; row += 4) FwdLift4(b + row, 1);
  }
  if (nd >= 2) {
    const size_t planes = nd == 3 ? 4 : 1;
    for (size_t z = 0; z < planes; ++z) {
      for (size_t x = 0; x < 4; ++x) FwdLift4(b + z * 16 + x, 4);
    }
  }
  if (nd >= 3) {
    for (size_t y = 0; y < 4; ++y) {
      for (size_t x = 0; x < 4; ++x) FwdLift4(b + y * 4 + x, 16);
    }
  }
}

void ZfpInverseTransform(int64_t* b, size_t nd) {
  const size_t n = 1ull << (2 * nd);
  if (nd >= 3) {
    for (size_t y = 0; y < 4; ++y) {
      for (size_t x = 0; x < 4; ++x) InvLift4(b + y * 4 + x, 16);
    }
  }
  if (nd >= 2) {
    const size_t planes = nd == 3 ? 4 : 1;
    for (size_t z = 0; z < planes; ++z) {
      for (size_t x = 0; x < 4; ++x) InvLift4(b + z * 16 + x, 4);
    }
  }
  if (nd >= 1) {
    for (size_t row = 0; row < n; row += 4) InvLift4(b + row, 1);
  }
}

// Coefficient traversal order: by total degree i+j+k (low-frequency first),
// matching ZFP's permutation tables.
std::vector<size_t> CoefficientOrder(size_t d) {
  const size_t n = 1ull << (2 * d);  // 4^d
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto degree = [d](size_t idx) {
    size_t sum = 0;
    for (size_t k = 0; k < d; ++k) {
      sum += (idx >> (2 * k)) & 3;
    }
    return sum;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return degree(a) < degree(b); });
  return order;
}

// --- Block geometry ------------------------------------------------------

struct BlockLayout {
  size_t num_slices = 1;      // product of leading dims beyond 3
  size_t nd = 0;              // block dimensionality (1..3)
  size_t dims[3] = {1, 1, 1};  // slice extents (z, y, x aligned to last dims)
  size_t blocks[3] = {1, 1, 1};
  size_t slice_elems = 1;
  size_t block_elems = 1;     // 4^nd
};

BlockLayout MakeBlockLayout(const std::vector<size_t>& dims) {
  BlockLayout lay;
  const size_t rank = dims.size();
  lay.nd = std::min<size_t>(rank, 3);
  const size_t lead = rank - lay.nd;
  for (size_t i = 0; i < lead; ++i) lay.num_slices *= dims[i];
  for (size_t i = 0; i < lay.nd; ++i) {
    lay.dims[3 - lay.nd + i] = dims[lead + i];
  }
  for (size_t i = 0; i < 3; ++i) {
    lay.blocks[i] = (lay.dims[i] + 3) / 4;
  }
  lay.slice_elems = lay.dims[0] * lay.dims[1] * lay.dims[2];
  lay.block_elems = 1ull << (2 * lay.nd);
  return lay;
}

// Gathers a 4^nd block at block coordinates (bz, by, bx), replicating edge
// values for partial blocks. Output is ordered x fastest within the block.
void GatherBlock(const float* slice, const BlockLayout& lay, size_t bz,
                 size_t by, size_t bx, float* block) {
  const size_t nz = lay.dims[0], ny = lay.dims[1], nx = lay.dims[2];
  size_t out = 0;
  const size_t z_lo = bz * 4, y_lo = by * 4, x_lo = bx * 4;
  const size_t zs = lay.nd >= 3 ? 4 : 1;
  const size_t ys = lay.nd >= 2 ? 4 : 1;
  for (size_t z = 0; z < zs; ++z) {
    const size_t zz = std::min(z_lo + z, nz - 1);
    for (size_t y = 0; y < ys; ++y) {
      const size_t yy = std::min(y_lo + y, ny - 1);
      for (size_t x = 0; x < 4; ++x) {
        const size_t xx = std::min(x_lo + x, nx - 1);
        block[out++] = slice[(zz * ny + yy) * nx + xx];
      }
    }
  }
}

void ScatterBlock(float* slice, const BlockLayout& lay, size_t bz, size_t by,
                  size_t bx, const float* block) {
  const size_t nz = lay.dims[0], ny = lay.dims[1], nx = lay.dims[2];
  size_t in = 0;
  const size_t z_lo = bz * 4, y_lo = by * 4, x_lo = bx * 4;
  const size_t zs = lay.nd >= 3 ? 4 : 1;
  const size_t ys = lay.nd >= 2 ? 4 : 1;
  for (size_t z = 0; z < zs; ++z) {
    for (size_t y = 0; y < ys; ++y) {
      for (size_t x = 0; x < 4; ++x, ++in) {
        const size_t zz = z_lo + z, yy = y_lo + y, xx = x_lo + x;
        if (zz < nz && yy < ny && xx < nx) {
          slice[(zz * ny + yy) * nx + xx] = block[in];
        }
      }
    }
  }
}

// Forward transform of one block whose largest magnitude `maxabs` is
// finite and nonzero: float -> common exponent + negabinary coefficients in
// traversal order.
void ForwardBlock(const float* block, const BlockLayout& lay,
                  const std::vector<size_t>& order, double maxabs,
                  int* exponent, uint64_t* coeffs) {
  const size_t n = lay.block_elems;
  int e;
  std::frexp(maxabs, &e);  // maxabs = m * 2^e, m in [0.5, 1)
  *exponent = e;
  const double scale = std::ldexp(1.0, kFixedPointBits - e);

  int64_t fixed[64];
  QuantizeFixedPoint(block, n, scale, fixed);
  ZfpForwardTransform(fixed, lay.nd);
  for (size_t i = 0; i < n; ++i) {
    coeffs[i] = Int64ToNegabinary(fixed[order[i]]);
  }
}

// Inverse of ForwardBlock given (possibly truncated) negabinary coeffs.
void InverseBlock(const uint64_t* coeffs, const BlockLayout& lay,
                  const std::vector<size_t>& order, int exponent,
                  float* block) {
  const size_t n = lay.block_elems;
  int64_t fixed[64] = {0};
  for (size_t i = 0; i < n; ++i) {
    fixed[order[i]] = NegabinaryToInt64(coeffs[i]);
  }

  ZfpInverseTransform(fixed, lay.nd);

  const double scale = std::ldexp(1.0, exponent - kFixedPointBits);
  for (size_t i = 0; i < n; ++i) {
    block[i] = static_cast<float>(static_cast<double>(fixed[i]) * scale);
  }
}

// Embedded bitplane encoding of one block's coefficients from the MSB plane
// down to `min_plane` (inclusive). Stops early if `max_bits` >= 0 and the
// budget is exhausted; returns bits written.
size_t EncodePlanes(BitWriter* bw, const uint64_t* coeffs, size_t n,
                    int min_plane, int64_t max_bits) {
  size_t written = 0;
  auto write_bit = [&](uint32_t b) -> bool {
    if (max_bits >= 0 && static_cast<int64_t>(written) >= max_bits)
      return false;
    bw->WriteBit(b);
    ++written;
    return true;
  };

  uint64_t sig = 0;  // bit i set once coefficient i has become significant
  auto significant = [&sig](size_t i) { return (sig >> i) & 1u; };
  size_t insig[64];
  for (int plane = kTotalPlanes - 1; plane >= min_plane; --plane) {
    // Refinement bits for already-significant coefficients, gathered in
    // ascending index order (matching the per-bit loop) and written as one
    // batch. A budget cut mid-batch emits exactly the same prefix.
    if (sig != 0) {
      uint64_t bits = 0;
      size_t nb = 0;
      for (uint64_t m = sig; m != 0; m &= m - 1) {
        const size_t i = static_cast<size_t>(__builtin_ctzll(m));
        bits |= ((coeffs[i] >> plane) & 1u) << nb;
        ++nb;
      }
      const size_t avail =
          max_bits < 0 ? nb
                       : std::min<size_t>(
                             nb, static_cast<size_t>(std::max<int64_t>(
                                     0, max_bits -
                                            static_cast<int64_t>(written))));
      bw->WriteBits(bits, avail);
      written += avail;
      if (avail < nb) return written;
    }
    // Embedded group testing over the still-insignificant coefficients (in
    // traversal order): a "more to come" flag, then per-coefficient bits up
    // to and including the next newly-significant one. Planes with no new
    // significance cost a single bit.
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!significant(i)) insig[m++] = i;
    }
    size_t k = 0;
    while (k < m) {
      uint32_t any_rest = 0;
      for (size_t j = k; j < m; ++j) {
        if ((coeffs[insig[j]] >> plane) & 1u) {
          any_rest = 1;
          break;
        }
      }
      if (!write_bit(any_rest)) return written;
      if (!any_rest) break;
      while (k < m) {
        const size_t idx = insig[k++];
        const uint32_t b = static_cast<uint32_t>((coeffs[idx] >> plane) & 1u);
        if (!write_bit(b)) return written;
        if (b) {
          sig |= 1ull << idx;
          break;
        }
      }
    }
  }
  return written;
}

// Mirror of EncodePlanes. Reads at most max_bits (if >= 0); returns bits
// consumed. Bits past the writer's early stop decode as zero.
size_t DecodePlanes(BitReader* br, uint64_t* coeffs, size_t n, int min_plane,
                    int64_t max_bits) {
  size_t consumed = 0;
  bool exhausted = false;
  auto read_bit = [&]() -> uint32_t {
    if (max_bits >= 0 && static_cast<int64_t>(consumed) >= max_bits) {
      exhausted = true;
      return 0;
    }
    ++consumed;
    return br->ReadBit();
  };

  for (size_t i = 0; i < n; ++i) coeffs[i] = 0;
  uint64_t sig = 0;
  auto significant = [&sig](size_t i) { return (sig >> i) & 1u; };
  size_t insig[64];
  for (int plane = kTotalPlanes - 1; plane >= min_plane && !exhausted;
       --plane) {
    // Refinement bits for already-significant coefficients, read as one
    // batch and scattered in ascending index order. A budget cut mid-batch
    // consumes exactly the bits the per-bit loop would have.
    if (sig != 0) {
      const size_t nb = static_cast<size_t>(__builtin_popcountll(sig));
      const size_t avail =
          max_bits < 0 ? nb
                       : std::min<size_t>(
                             nb, static_cast<size_t>(std::max<int64_t>(
                                     0, max_bits -
                                            static_cast<int64_t>(consumed))));
      const uint64_t bits = br->ReadBits(avail);
      consumed += avail;
      uint64_t m = sig;
      for (size_t k = 0; k < avail; ++k, m &= m - 1) {
        const size_t i = static_cast<size_t>(__builtin_ctzll(m));
        coeffs[i] |= ((bits >> k) & 1u) << plane;
      }
      if (avail < nb) return consumed;
    }
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!significant(i)) insig[m++] = i;
    }
    size_t k = 0;
    while (k < m) {
      const uint32_t any_rest = read_bit();
      if (exhausted) return consumed;
      if (!any_rest) break;
      while (k < m) {
        const size_t idx = insig[k++];
        const uint64_t b = read_bit();
        if (exhausted) return consumed;
        if (b) {
          coeffs[idx] |= b << plane;
          sig |= 1ull << idx;
          break;
        }
      }
    }
  }
  return consumed;
}

enum class Mode : uint8_t { kFixedAccuracy = 0, kFixedRate = 1 };

StatusOr<std::vector<uint8_t>> CompressImpl(const Tensor& data, Mode mode,
                                            double eb, double bits_per_value) {
  FXRZ_CHECK(!data.empty());
  const BlockLayout lay = MakeBlockLayout(data.dims());
  const std::vector<size_t> order = CoefficientOrder(lay.nd);

  // Per-block bit budget in fixed-rate mode.
  const int64_t budget =
      mode == Mode::kFixedRate
          ? std::max<int64_t>(
                16, static_cast<int64_t>(
                        std::ceil(bits_per_value *
                                  static_cast<double>(lay.block_elems))))
          : -1;

  BitWriter bw;
  float block[64];
  uint64_t coeffs[64];
  for (size_t s = 0; s < lay.num_slices; ++s) {
    const float* slice = data.data() + s * lay.slice_elems;
    for (size_t bz = 0; bz < lay.blocks[0]; ++bz) {
      for (size_t by = 0; by < lay.blocks[1]; ++by) {
        for (size_t bx = 0; bx < lay.blocks[2]; ++bx) {
          GatherBlock(slice, lay, bz, by, bx, block);
          const float maxabs = MaxAbs(block, lay.block_elems);
          if (!std::isfinite(maxabs)) {
            return Status::InvalidArgument("zfp: input has NaN/Inf values");
          }
          const bool nonzero = maxabs != 0.0f;
          int exponent = 0;
          if (nonzero) {
            ForwardBlock(block, lay, order, maxabs, &exponent, coeffs);
          }

          if (mode == Mode::kFixedAccuracy) {
            if (!nonzero) {
              bw.WriteBit(0);
              continue;
            }
            bw.WriteBit(1);
            bw.WriteBits(static_cast<uint64_t>(exponent + 1024), 12);
            // Truncation below min_plane contributes error
            // < 2^(min_plane+1) * 2^(e-q) per coefficient; the inverse
            // transform can grow it by at most 2^kGuardBits.
            const double unit = std::ldexp(1.0, exponent - kFixedPointBits);
            int min_plane = 0;
            while (min_plane < kTotalPlanes &&
                   std::ldexp(unit, min_plane + 1 + kGuardBits) <= eb) {
              ++min_plane;
            }
            EncodePlanes(&bw, coeffs, lay.block_elems, min_plane, -1);
          } else {
            // Fixed rate: every block spends exactly `budget` bits,
            // including the zero flag and exponent.
            size_t used = 0;
            if (!nonzero) {
              bw.WriteBit(0);
              used = 1;
            } else {
              bw.WriteBit(1);
              bw.WriteBits(static_cast<uint64_t>(exponent + 1024), 12);
              used = 13;
              used += EncodePlanes(&bw, coeffs, lay.block_elems, 0,
                                   budget - static_cast<int64_t>(used));
            }
            for (size_t pad = used; pad < static_cast<size_t>(budget);
                 pad += 64) {
              bw.WriteBits(0, std::min<size_t>(64, budget - pad));
            }
          }
        }
      }
    }
  }

  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  out.push_back(static_cast<uint8_t>(mode));
  AppendDouble(&out, mode == Mode::kFixedAccuracy ? eb : bits_per_value);
  const std::vector<uint8_t> payload = std::move(bw).Take();
  AppendUint64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

ConfigSpace ZfpCompressor::config_space(const Tensor& data) const {
  const SummaryStats s = ComputeSummary(data);
  ConfigSpace space;
  const double range = s.value_range > 0 ? s.value_range : 1.0;
  space.min = 1e-6 * range;
  space.max = 0.3 * range;
  space.log_scale = true;
  space.integer = false;
  space.ratio_increases = true;
  space.power_of_two_steps = true;  // see min_plane in CompressImpl
  return space;
}

StatusOr<std::vector<uint8_t>> ZfpCompressor::DoCompress(
    const Tensor& data, double config) const {
  if (!std::isfinite(config) || config <= 0.0) {
    return Status::InvalidArgument("zfp: tolerance must be finite and > 0");
  }
  return CompressImpl(data, Mode::kFixedAccuracy, config, 0.0);
}

StatusOr<std::vector<uint8_t>> ZfpCompressor::CompressFixedRate(
    const Tensor& data, double bits_per_value) const {
  if (!(bits_per_value > 0.0 && bits_per_value <= 34.0)) {
    return Status::InvalidArgument("zfp: fixed rate must be in (0, 34]");
  }
  if (data.empty()) return Status::InvalidArgument("zfp: empty tensor");
  return CompressImpl(data, Mode::kFixedRate, 0.0, bits_per_value);
}

Status ZfpCompressor::DoDecompress(const uint8_t* data, size_t size,
                                   Tensor* out) const {
  ByteReader reader(data, size);
  std::vector<size_t> dims;
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&reader, kMagic, &dims));
  uint8_t mode_byte = 0;
  double param = 0.0;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  if (!reader.ReadU8(&mode_byte) || !reader.ReadF64(&param) ||
      !reader.ReadLengthPrefixed(&payload, &payload_size)) {
    return Status::Corruption("zfp: short header");
  }
  const Mode mode = static_cast<Mode>(mode_byte);
  if (mode != Mode::kFixedAccuracy && mode != Mode::kFixedRate) {
    return Status::Corruption("zfp: bad mode");
  }
  // The parameter comes from the stream: reject values the encoder can
  // never produce before they feed a float->int cast (fixed-rate budget)
  // or an unbounded min_plane loop.
  if (!std::isfinite(param) || param <= 0.0 ||
      (mode == Mode::kFixedRate && param > 64.0)) {
    return Status::Corruption("zfp: bad parameter");
  }

  Tensor result(dims);
  const BlockLayout lay = MakeBlockLayout(dims);
  const std::vector<size_t> order = CoefficientOrder(lay.nd);
  const int64_t budget =
      mode == Mode::kFixedRate
          ? std::max<int64_t>(
                16, static_cast<int64_t>(
                        std::ceil(param * static_cast<double>(lay.block_elems))))
          : -1;

  BitReader br(payload, payload_size);
  float block[64];
  uint64_t coeffs[64];
  for (size_t s = 0; s < lay.num_slices; ++s) {
    float* slice = result.data() + s * lay.slice_elems;
    for (size_t bz = 0; bz < lay.blocks[0]; ++bz) {
      for (size_t by = 0; by < lay.blocks[1]; ++by) {
        for (size_t bx = 0; bx < lay.blocks[2]; ++bx) {
          if (br.overrun()) return Status::Corruption("zfp: stream overrun");
          size_t used = 0;
          const uint32_t nonzero = br.ReadBit();
          ++used;
          if (!nonzero) {
            for (size_t i = 0; i < lay.block_elems; ++i) block[i] = 0.0f;
          } else {
            const int exponent = static_cast<int>(br.ReadBits(12)) - 1024;
            used += 12;
            int min_plane = 0;
            if (mode == Mode::kFixedAccuracy) {
              const double unit = std::ldexp(1.0, exponent - kFixedPointBits);
              while (min_plane < kTotalPlanes &&
                     std::ldexp(unit, min_plane + 1 + kGuardBits) <= param) {
                ++min_plane;
              }
            }
            used += DecodePlanes(&br, coeffs, lay.block_elems, min_plane,
                                 mode == Mode::kFixedRate
                                     ? budget - static_cast<int64_t>(used)
                                     : -1);
            InverseBlock(coeffs, lay, order, exponent, block);
          }
          if (mode == Mode::kFixedRate &&
              used < static_cast<size_t>(budget)) {
            // Skip padding to the fixed block boundary.
            br.Advance(static_cast<size_t>(budget) - used);
          }
          ScatterBlock(slice, lay, bz, by, bx, block);
        }
      }
    }
  }
  if (br.overrun()) return Status::Corruption("zfp: truncated payload");
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
