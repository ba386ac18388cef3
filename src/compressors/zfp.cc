#include "src/compressors/zfp.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "src/encoding/bit_stream.h"
#include "src/encoding/negabinary.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x5A465032;             // "ZFP2"
constexpr uint32_t kUnsegmentedMagic = 0x5A465031;  // "ZFP1"
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

  size_t slice_blocks() const { return blocks[0] * blocks[1] * blocks[2]; }
  size_t total_blocks() const { return num_slices * slice_blocks(); }
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

// The flat block index (slice, bz, by, bx) is cut into contiguous
// segments, about one per kSegmentBlocks blocks and at most kMaxSegments.
// Their number depends only on the shape: compression encodes them in
// parallel, the archive records each one's bit length, and decompression
// decodes them in parallel from those offsets, so the archive bytes do not
// depend on the host's thread count.
constexpr size_t kSegmentBlocks = 128;
constexpr size_t kMaxSegments = 256;

size_t SegmentCount(const BlockLayout& lay) {
  return std::clamp<size_t>(lay.total_blocks() / kSegmentBlocks, 1,
                            kMaxSegments);
}

// First block of segment `s` of `segments` (s == segments gives the end).
size_t SegmentBlock(const BlockLayout& lay, size_t segments, size_t s) {
  return s * lay.total_blocks() / segments;
}

// Block coordinates of flat block index `b`.
struct BlockPos {
  size_t slice, bz, by, bx;
};

BlockPos BlockAt(const BlockLayout& lay, size_t b) {
  const size_t in_slice = b % lay.slice_blocks();
  return {b / lay.slice_blocks(), in_slice / (lay.blocks[2] * lay.blocks[1]),
          in_slice / lay.blocks[2] % lay.blocks[1], in_slice % lay.blocks[2]};
}

// Per-block bit budget in fixed-rate mode (-1 in fixed-accuracy mode).
int64_t BlockBudget(Mode mode, double bits_per_value, const BlockLayout& lay) {
  if (mode != Mode::kFixedRate) return -1;
  return std::max<int64_t>(
      16, static_cast<int64_t>(std::ceil(
              bits_per_value * static_cast<double>(lay.block_elems))));
}

// Lowest bitplane a fixed-accuracy block with common exponent `exponent`
// keeps. Truncation below min_plane contributes error
// < 2^(min_plane+1) * 2^(e-q) per coefficient; the inverse transform can
// grow it by at most 2^kGuardBits.
int MinPlane(int exponent, double eb) {
  const double unit = std::ldexp(1.0, exponent - kFixedPointBits);
  int min_plane = 0;
  while (min_plane < kTotalPlanes &&
         std::ldexp(unit, min_plane + 1 + kGuardBits) <= eb) {
    ++min_plane;
  }
  return min_plane;
}

// Codes the block at `pos` of `data` into `bw`. Returns false, having
// written nothing, when the block holds a NaN or Inf. `budget` is the
// fixed-rate bits per block (unused in fixed-accuracy mode).
bool EncodeBlock(const float* data, const BlockLayout& lay,
                 const std::vector<size_t>& order, const BlockPos& pos,
                 Mode mode, double eb, int64_t budget, BitWriter* bw) {
  float block[64];
  uint64_t coeffs[64];
  GatherBlock(data + pos.slice * lay.slice_elems, lay, pos.bz, pos.by, pos.bx,
              block);
  const float maxabs = MaxAbs(block, lay.block_elems);
  if (!std::isfinite(maxabs)) return false;
  const bool nonzero = maxabs != 0.0f;
  int exponent = 0;
  if (nonzero) ForwardBlock(block, lay, order, maxabs, &exponent, coeffs);

  if (mode == Mode::kFixedAccuracy) {
    if (!nonzero) {
      bw->WriteBit(0);
      return true;
    }
    bw->WriteBit(1);
    bw->WriteBits(static_cast<uint64_t>(exponent + 1024), 12);
    EncodePlanes(bw, coeffs, lay.block_elems, MinPlane(exponent, eb), -1);
    return true;
  }
  // Fixed rate: every block spends exactly `budget` bits, including the
  // zero flag and exponent.
  size_t used = 0;
  if (!nonzero) {
    bw->WriteBit(0);
    used = 1;
  } else {
    bw->WriteBit(1);
    bw->WriteBits(static_cast<uint64_t>(exponent + 1024), 12);
    used = 13;
    used += EncodePlanes(bw, coeffs, lay.block_elems, 0,
                         budget - static_cast<int64_t>(used));
  }
  for (size_t pad = used; pad < static_cast<size_t>(budget); pad += 64) {
    bw->WriteBits(0, std::min<size_t>(64, budget - pad));
  }
  return true;
}

// Mirror of EncodeBlock: reads one block from `br` and writes its 4^nd
// values, x fastest, to `block`.
void DecodeBlock(BitReader* br, const BlockLayout& lay,
                 const std::vector<size_t>& order, Mode mode, double eb,
                 int64_t budget, float* block) {
  uint64_t coeffs[64];
  size_t used = 1;
  if (!br->ReadBit()) {
    for (size_t i = 0; i < lay.block_elems; ++i) block[i] = 0.0f;
  } else {
    const int exponent = static_cast<int>(br->ReadBits(12)) - 1024;
    used += 12;
    const int min_plane =
        mode == Mode::kFixedAccuracy ? MinPlane(exponent, eb) : 0;
    used += DecodePlanes(
        br, coeffs, lay.block_elems, min_plane,
        mode == Mode::kFixedRate ? budget - static_cast<int64_t>(used) : -1);
    InverseBlock(coeffs, lay, order, exponent, block);
  }
  if (mode == Mode::kFixedRate && used < static_cast<size_t>(budget)) {
    br->Advance(static_cast<size_t>(budget) - used);  // the block's padding
  }
}

// The segment table: a u8 holding the segment count less one, a u8 bit
// width w, then every segment's bit length in w bits, packed LSB first
// and zero-padded to a whole byte. w is the width of the longest length.
void AppendSegmentTable(const std::vector<size_t>& lengths,
                        std::vector<uint8_t>* out) {
  const size_t width = std::bit_width(
      *std::max_element(lengths.begin(), lengths.end()));
  out->push_back(static_cast<uint8_t>(lengths.size() - 1));
  out->push_back(static_cast<uint8_t>(width));
  BitWriter packed;
  for (const size_t length : lengths) packed.WriteBits(length, width);
  const std::vector<uint8_t> bytes = std::move(packed).Take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

// The segments encode in parallel into their own writers, and their bits
// are spliced into the payload at offsets from a prefix sum of their bit
// counts: the payload is bit for bit the one a single writer walking the
// blocks in order would produce.
StatusOr<std::vector<uint8_t>> CompressImpl(const Tensor& data, Mode mode,
                                            double eb, double bits_per_value) {
  FXRZ_CHECK(!data.empty());
  const BlockLayout lay = MakeBlockLayout(data.dims());
  const std::vector<size_t> order = CoefficientOrder(lay.nd);
  const int64_t budget = BlockBudget(mode, bits_per_value, lay);

  const size_t segments = SegmentCount(lay);
  std::vector<std::vector<uint8_t>> segment_bytes(segments);
  std::vector<size_t> segment_bits(segments, 0);
  // lock-free: set once by the first segment that meets a non-finite
  // block; the others poll it between blocks only to stop early.
  std::atomic<bool> nonfinite{false};
  ParallelFor(
      SharedThreadPool(), 0, segments,
      [&](size_t s) {
        BitWriter bw;
        const size_t hi = SegmentBlock(lay, segments, s + 1);
        for (size_t b = SegmentBlock(lay, segments, s); b < hi; ++b) {
          if (nonfinite.load(std::memory_order_relaxed)) return;
          if (!EncodeBlock(data.data(), lay, order, BlockAt(lay, b), mode, eb,
                           budget, &bw)) {
            nonfinite.store(true, std::memory_order_relaxed);
            return;
          }
        }
        segment_bits[s] = bw.bit_count();
        segment_bytes[s] = std::move(bw).Take();
      },
      1);
  if (nonfinite.load()) {
    return Status::InvalidArgument("zfp: input has NaN/Inf values");
  }

  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  out.push_back(static_cast<uint8_t>(mode));
  AppendDouble(&out, mode == Mode::kFixedAccuracy ? eb : bits_per_value);
  AppendSegmentTable(segment_bits, &out);
  AppendBitRanges(
      segment_bits,
      [&](size_t s, RangeBitWriter* w) {
        w->WriteStream(segment_bytes[s].data(), segment_bits[s]);
        std::vector<uint8_t>().swap(segment_bytes[s]);  // its bits are copied
      },
      &out);
  return out;
}

}  // namespace

ConfigSpace ZfpCompressor::config_space(double value_range) const {
  ConfigSpace space = compressor_internal::ErrorBoundSpace(value_range);
  space.power_of_two_steps = true;  // see MinPlane
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
  return RunCompress(data, [&]() -> StatusOr<std::vector<uint8_t>> {
    if (!(bits_per_value > 0.0 && bits_per_value <= 34.0)) {
      return Status::InvalidArgument("zfp: fixed rate must be in (0, 34]");
    }
    return CompressImpl(data, Mode::kFixedRate, 0.0, bits_per_value);
  });
}

Status ZfpCompressor::DoDecompress(const uint8_t* data, size_t size,
                                   Tensor* out) const {
  uint32_t magic = 0;
  if (ByteReader(data, size).ReadU32(&magic) && magic == kUnsegmentedMagic) {
    return Status::Corruption(
        "zfp: ZFP1 archive; the unsegmented format is no longer decoded, "
        "re-compress the source field");
  }
  ByteReader reader(data, size);
  std::vector<size_t> dims;
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&reader, kMagic, &dims));
  uint8_t mode_byte = 0;
  double param = 0.0;
  uint8_t stored_segments = 0;
  uint8_t width = 0;
  if (!reader.ReadU8(&mode_byte) || !reader.ReadF64(&param) ||
      !reader.ReadU8(&stored_segments) || !reader.ReadU8(&width)) {
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
  const BlockLayout lay = MakeBlockLayout(dims);
  const size_t segments = SegmentCount(lay);
  if (size_t{stored_segments} + 1 != segments) {
    return Status::Corruption(
        "zfp: " + std::to_string(size_t{stored_segments} + 1) +
        " segments where the shape implies " + std::to_string(segments));
  }
  const uint8_t* table = nullptr;
  const size_t table_bytes = (segments * width + 7) / 8;
  if (width > 64 || !reader.ReadSpan(table_bytes, &table)) {
    return Status::Corruption("zfp: bad segment table");
  }
  uint64_t lengths[kMaxSegments];
  BitReader table_bits(table, table_bytes);
  for (size_t s = 0; s < segments; ++s) {
    lengths[s] = table_bits.ReadBits(width);
  }
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  if (!reader.ReadLengthPrefixed(&payload, &payload_size)) {
    return Status::Corruption("zfp: truncated payload");
  }

  // Every segment's span is validated against the payload, and its length
  // against its block count, before the output is allocated: a block is
  // at least its one-bit zero flag, and exactly `budget` bits at a fixed
  // rate.
  const int64_t budget = BlockBudget(mode, param, lay);
  const uint64_t payload_bits = uint64_t{payload_size} * 8;
  uint64_t start[kMaxSegments + 1];
  start[0] = 0;
  for (size_t s = 0; s < segments; ++s) {
    if (lengths[s] > payload_bits - start[s]) {
      return Status::Corruption("zfp: segment " + std::to_string(s) +
                                " runs past the payload");
    }
    start[s + 1] = start[s] + lengths[s];
    const uint64_t blocks =
        SegmentBlock(lay, segments, s + 1) - SegmentBlock(lay, segments, s);
    if (mode == Mode::kFixedRate
            ? lengths[s] != blocks * static_cast<uint64_t>(budget)
            : lengths[s] < blocks) {
      return Status::Corruption(
          "zfp: segment " + std::to_string(s) + " records " +
          std::to_string(lengths[s]) + " bits for " + std::to_string(blocks) +
          " blocks");
    }
  }
  if ((start[segments] + 7) / 8 != payload_size) {
    return Status::Corruption(
        "zfp: segment lengths sum to " + std::to_string(start[segments]) +
        " bits where the payload holds " + std::to_string(payload_size) +
        " bytes");
  }

  // The segments decode in parallel, each from its own offset, scattering
  // its blocks straight into the output: blocks cover disjoint points, and
  // every point is written by its block.
  Tensor result = Tensor::ForOverwrite(dims);
  const std::vector<size_t> order = CoefficientOrder(lay.nd);
  std::vector<Status> segment_status(segments);
  ParallelFor(
      SharedThreadPool(), 0, segments,
      [&](size_t s) {
        BitReader br(payload, payload_size);
        br.Advance(start[s]);
        float block[64];
        const size_t hi = SegmentBlock(lay, segments, s + 1);
        for (size_t b = SegmentBlock(lay, segments, s); b < hi; ++b) {
          DecodeBlock(&br, lay, order, mode, param, budget, block);
          if (br.position() > start[s + 1]) break;
          const BlockPos pos = BlockAt(lay, b);
          ScatterBlock(result.data() + pos.slice * lay.slice_elems, lay,
                       pos.bz, pos.by, pos.bx, block);
        }
        if (br.overrun() || br.position() != start[s + 1]) {
          segment_status[s] = Status::Corruption(
              "zfp: segment " + std::to_string(s) + " decodes " +
              (br.position() < start[s + 1] ? "short of" : "past") +
              " its recorded " + std::to_string(lengths[s]) + " bits");
        }
      },
      1);
  for (const Status& st : segment_status) FXRZ_RETURN_IF_ERROR(st);
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
