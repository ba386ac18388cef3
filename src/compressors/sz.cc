#include "src/compressors/sz.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/compressors/code_stream.h"
#include "src/encoding/bit_stream.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x535A4C33;  // "SZL3"
constexpr int64_t kRadius = 32768;       // quantization capacity 2^16
constexpr size_t kBlock = 6;             // SZ2's 6^d prediction blocks

// Lorenzo predictor over the last (up to) 3 dimensions of a hyperslice,
// reading already-reconstructed values. Out-of-range neighbors predict 0.
class LorenzoSlice {
 public:
  LorenzoSlice(const float* recon, size_t nd, const size_t* strides)
      : recon_(recon), nd_(nd), strides_(strides) {}

  // Interior points (every lagged neighbor in range) take a direct-offset
  // fast path; the sums keep the same left-to-right evaluation order as the
  // generic boundary form, so both produce bit-identical predictions.
  double Predict(const size_t* idx, size_t linear) const {
    const float* r = recon_;
    const size_t* s = strides_;
    switch (nd_) {
      case 1:
        return idx[0] >= 1 ? static_cast<double>(r[linear - s[0]]) : 0.0;
      case 2:
        if (idx[0] >= 1 && idx[1] >= 1) {
          return static_cast<double>(r[linear - s[1]]) + r[linear - s[0]] -
                 r[linear - s[0] - s[1]];
        }
        break;
      default:
        if (idx[0] >= 1 && idx[1] >= 1 && idx[2] >= 1) {
          const size_t s0 = s[0], s1 = s[1], s2 = s[2];
          return static_cast<double>(r[linear - s2]) + r[linear - s1] +
                 r[linear - s0] - r[linear - s1 - s2] - r[linear - s0 - s2] -
                 r[linear - s0 - s1] + r[linear - s0 - s1 - s2];
        }
        break;
    }
    return PredictBoundary(idx, linear);
  }

 private:
  double PredictBoundary(const size_t* idx, size_t linear) const {
    auto value = [&](size_t dz, size_t dy, size_t dx) -> double {
      const size_t offs[3] = {dz, dy, dx};
      size_t lin = linear;
      for (size_t d = 0; d < nd_; ++d) {
        const size_t back = offs[3 - nd_ + d];
        if (back == 0) continue;
        if (idx[d] < back) return 0.0;
        lin -= back * strides_[d];
      }
      return recon_[lin];
    };
    switch (nd_) {
      case 1:
        return value(0, 0, 1);
      case 2:
        return value(0, 0, 1) + value(0, 1, 0) - value(0, 1, 1);
      default:
        // 3D Lorenzo (paper Eq. 2).
        return value(0, 0, 1) + value(0, 1, 0) + value(1, 0, 0) -
               value(0, 1, 1) - value(1, 0, 1) - value(1, 1, 0) +
               value(1, 1, 1);
    }
  }

  const float* recon_;
  size_t nd_;
  const size_t* strides_;
};

// Hyperslice decomposition: leading dims become independent slices; the
// last nd (<=3) dims carry the prediction structure.
struct SliceLayout {
  size_t num_slices = 1;
  size_t slice_elems = 1;
  size_t nd = 0;
  size_t dims[3] = {1, 1, 1};
  size_t strides[3] = {1, 1, 1};
};

SliceLayout MakeSliceLayout(const std::vector<size_t>& dims) {
  SliceLayout lay;
  const size_t rank = dims.size();
  lay.nd = std::min<size_t>(rank, 3);
  const size_t lead = rank - lay.nd;
  for (size_t i = 0; i < lead; ++i) lay.num_slices *= dims[i];
  for (size_t i = 0; i < lay.nd; ++i) {
    lay.dims[i] = dims[lead + i];
    lay.slice_elems *= lay.dims[i];
  }
  lay.strides[lay.nd - 1] = 1;
  for (size_t i = lay.nd - 1; i-- > 0;) {
    lay.strides[i] = lay.strides[i + 1] * lay.dims[i + 1];
  }
  return lay;
}

// First-order (hyperplane) regression predictor for one block, as in SZ2.
// v(dz,dy,dx) ~ c0 + cz*dz + cy*dy + cx*dx with block-local coordinates.
struct RegressionCoefs {
  double c0 = 0, cz = 0, cy = 0, cx = 0;
};

using sz_internal::BlockShape;

// Per-block scratch reused across blocks: the block's values gathered
// contiguous (x-fastest), so the plane kernels run unstrided over them and
// the block shape's tables, and a regression block's plane predictions.
// Capacity is kBlock^3.
struct BlockScratch {
  std::vector<float> vals;
  std::vector<double> pred;
};

// Copies the block's values row-by-row into contiguous scratch. The last
// dimension always has stride 1, so each x-run is one memcpy.
void GatherBlockValues(const float* data, const size_t* strides,
                       const size_t* lo, const size_t* hi, BlockScratch* s) {
  const size_t nx = hi[2] - lo[2];
  s->vals.resize((hi[0] - lo[0]) * (hi[1] - lo[1]) * nx);
  size_t i = 0;
  for (size_t z = lo[0]; z < hi[0]; ++z) {
    for (size_t y = lo[1]; y < hi[1]; ++y) {
      const float* row =
          data + z * strides[0] + y * strides[1] + lo[2] * strides[2];
      std::memcpy(s->vals.data() + i, row, nx * sizeof(float));
      i += nx;
    }
  }
}

// Regression plane kernels over a gathered block: vals[i] with centered
// coordinates (ccz[i], ccy[i], ccx[i]). The sums are lane-partitioned: lane j
// accumulates elements j, j+4, j+8, ... and the lanes fold as
// (l0+l2)+(l1+l3). The archive bytes depend on that order (the fitted
// coefficients are quantized into the stream, and the error sum picks each
// block's predictor), so it must not change.
inline double ReduceLanes4(const double l[4]) {
  return (l[0] + l[2]) + (l[1] + l[3]);
}

// sums[0..3] = {sum v, sum ccz*v, sum ccy*v, sum ccx*v}. The sums of
// squares of the centred coordinates come from the block shape's tables.
void PlaneFitSums(const float* vals, const BlockShape& shape, double sums[4]) {
  const double* cz = shape.ccz.data();
  const double* cy = shape.ccy.data();
  const double* cx = shape.ccx.data();
  double acc[4][4] = {};
  for (size_t i = 0; i < shape.n; ++i) {
    const size_t l = i & 3;
    const double v = vals[i];
    acc[0][l] += v;
    acc[1][l] += cz[i] * v;
    acc[2][l] += cy[i] * v;
    acc[3][l] += cx[i] * v;
  }
  for (int k = 0; k < 4; ++k) sums[k] = ReduceLanes4(acc[k]);
}

// pred[i] = c0 + az*cz[i] + ay*cy[i] + ax*cx[i], evaluated left to right.
// Encode and decode evaluate whole blocks through it.
void PlanePredict(const double* cz, const double* cy, const double* cx,
                  size_t n, double c0, double az, double ay, double ax,
                  double* pred) {
  for (size_t i = 0; i < n; ++i) {
    pred[i] = c0 + az * cz[i] + ay * cy[i] + ax * cx[i];
  }
}

// sum_i |vals[i] - (c0 + az*cz[i] + ay*cy[i] + ax*cx[i])|, lane-partitioned.
double PlaneAbsErr(const float* vals, const double* cz, const double* cy,
                   const double* cx, size_t n, double c0, double az, double ay,
                   double ax) {
  double acc[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const double p = c0 + az * cz[i] + ay * cy[i] + ax * cx[i];
    acc[i & 3] += std::fabs(static_cast<double>(vals[i]) - p);
  }
  return ReduceLanes4(acc);
}

// Least-squares plane fit over one gathered block. On a regular grid the
// normal equations decouple: each slope is cov(coord, v) / var(coord).
RegressionCoefs FitBlock(const float* vals, const BlockShape& shape) {
  double sums[4];
  PlaneFitSums(vals, shape, sums);
  RegressionCoefs c;
  const double mean = sums[0] / static_cast<double>(shape.n);
  c.cz = shape.szz > 0 ? sums[1] / shape.szz : 0.0;
  c.cy = shape.syy > 0 ? sums[2] / shape.syy : 0.0;
  c.cx = shape.sxx > 0 ? sums[3] / shape.sxx : 0.0;
  // Express the intercept at block-local (0,0,0).
  c.c0 = mean - c.cz * shape.mz - c.cy * shape.my - c.cx * shape.mx;
  return c;
}

uint32_t ZigZag(int64_t v) {
  return static_cast<uint32_t>(v >= 0 ? 2 * v : -2 * v - 1);
}

int64_t UnZigZag(uint32_t u) {
  return (u & 1) ? -static_cast<int64_t>((u + 1) / 2)
                 : static_cast<int64_t>(u / 2);
}

// Coefficient quantization steps relative to the error bound, mirroring
// SZ2's idea: the intercept matters most, the slopes are scaled by the
// block extent so their worst-case positional error stays ~eb/2.
void CoefSteps(double eb, double steps[4]) {
  steps[0] = eb * 0.5;
  steps[1] = steps[2] = steps[3] = eb * 0.5 / static_cast<double>(kBlock);
}

// Parallel work units depend only on the input's shape: selection takes
// 32 blocks per unit, quantization one row of blocks. A field below
// kMinSplitPoints is one unit per stage: its stages are too short to gain
// from other threads.
constexpr size_t kSelectGrain = 32;
constexpr size_t kMinSplitPoints = size_t{1} << 16;

// The blocks of every slice, numbered slice-major and then (z, y, x): the
// order the archive stores them in.
struct BlockGrid {
  explicit BlockGrid(const SliceLayout& lay) : lay(lay) {
    for (int d = 0; d < 3; ++d) n[d] = (lay.dims[d] + kBlock - 1) / kBlock;
    per_slice = n[0] * n[1] * n[2];
    total = per_slice * lay.num_slices;
  }

  // Sets the block's bounds within its slice and returns the slice's first
  // element.
  size_t Bounds(size_t b, size_t* lo, size_t* hi) const {
    const size_t s = b / per_slice;
    const size_t r = b % per_slice;
    const size_t idx[3] = {r / (n[1] * n[2]), (r / n[2]) % n[1], r % n[2]};
    for (int d = 0; d < 3; ++d) {
      lo[d] = idx[d] * kBlock;
      hi[d] = std::min(lo[d] + kBlock, lay.dims[d]);
    }
    return s * lay.slice_elems;
  }

  size_t Elements(size_t b) const {
    size_t lo[3], hi[3];
    Bounds(b, lo, hi);
    return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
  }

  // Rows of blocks along x: row r holds blocks [r * n[2], (r + 1) * n[2]).
  size_t rows() const { return total / n[2]; }

  const SliceLayout& lay;
  size_t n[3];
  size_t per_slice = 0;
  size_t total = 0;
};

// The order in which rows of blocks are quantized. A Lorenzo prediction
// reads reconstructed neighbours at offsets (dz, dy, dx) in {0, 1}^3, which
// lie in the point's own block or in a block whose index is the same or one
// lower along each axis; a regression block reads no reconstructed values
// at all. A row of blocks along x, quantized in x order, keeps the
// dependencies along x inside the row, so row (bz, by) of a slice needs
// only rows (bz - 1, by), (bz, by - 1) and (bz - 1, by - 1) done, and the
// last of these is a dependency of each of the first two. Each row counts
// its unfinished dependencies; the row that finishes a dependent's last one
// publishes it in the next free slot of `ready_`. Whoever takes slot i
// quantizes that row. No row waits for rows it does not read, so a thread
// that stalls (its vCPU descheduled by the host) holds back only the rows
// below and right of its own, not a whole diagonal.
class RowSchedule {
 public:
  static constexpr size_t kAbandoned = std::numeric_limits<size_t>::max();

  explicit RowSchedule(const BlockGrid& grid)
      : nz_(grid.n[0]), ny_(grid.n[1]), pending_(grid.rows()),
        ready_(grid.rows()) {
    for (size_t r = 0; r < pending_.size(); ++r) {
      const size_t in_slice = r % (nz_ * ny_);
      pending_[r].store((in_slice >= ny_ ? 1 : 0) + (in_slice % ny_ ? 1 : 0),
                        std::memory_order_relaxed);
      if (in_slice == 0) Publish(r);
    }
  }

  // The row published in slot i; waits until some thread publishes it.
  // Returns kAbandoned once Abandon() was called.
  size_t Take(size_t i) const {
    for (unsigned spins = 1;; ++spins) {
      const size_t slot = ready_[i].load(std::memory_order_acquire);
      if (slot != 0) return slot - 1;
      if (abandoned_.load(std::memory_order_relaxed)) return kAbandoned;
      if (spins % 64 == 0) std::this_thread::yield();
    }
  }

  // Row r is quantized: counts it off its dependents' pending dependencies.
  void Finish(size_t r) {
    const size_t in_slice = r % (nz_ * ny_);
    if (in_slice % ny_ + 1 < ny_) Release(r + 1);    // row (bz, by + 1)
    if (in_slice / ny_ + 1 < nz_) Release(r + ny_);  // row (bz + 1, by)
  }

  // A row failed: every waiting Take returns kAbandoned, since the rows
  // that depend on it will never be published.
  void Abandon() { abandoned_.store(true, std::memory_order_relaxed); }

 private:
  void Release(size_t r) {
    if (pending_[r].fetch_sub(1, std::memory_order_acq_rel) == 1) Publish(r);
  }

  void Publish(size_t r) {
    const size_t slot = published_.fetch_add(1, std::memory_order_relaxed);
    ready_[slot].store(r + 1, std::memory_order_release);
  }

  const size_t nz_, ny_;
  // lock-free: per-row countdown; the acq_rel decrements chain the writes
  // of both dependencies to the thread that publishes the row.
  std::vector<std::atomic<uint8_t>> pending_;
  // lock-free: slot i holds row + 1 once published (release), 0 before;
  // Take's acquire load pairs with it.
  std::vector<std::atomic<size_t>> ready_;
  // lock-free: next free slot of ready_; each slot is claimed exactly once.
  std::atomic<size_t> published_{0};
  // lock-free: set once on failure, read by waiting threads; it carries no
  // data.
  std::atomic<bool> abandoned_{false};
};

// Runs row_fn(row, &scratch) once for every row of blocks, each once the
// rows it reads are done (see RowSchedule), on the calling thread and the
// pool; a grid that is not `split` runs as one unit on the calling thread.
// ParallelForBlocked hands out slot indices in increasing order, so every
// slot below a claimed one is claimed by a running thread and a waiting
// Take always ends.
template <typename RowFn>
void RunRowWavefront(ThreadPool* pool, const BlockGrid& grid, bool split,
                     RowFn&& row_fn) {
  RowSchedule schedule(grid);
  ParallelForBlocked(
      pool, 0, grid.rows(),
      [&](size_t first, size_t last) {
        BlockScratch scratch;
        for (size_t k = first; k < last; ++k) {
          const size_t row = schedule.Take(k);
          if (row == RowSchedule::kAbandoned) return;
          try {
            row_fn(row, &scratch);
          } catch (...) {
            schedule.Abandon();
            throw;
          }
          schedule.Finish(row);
        }
      },
      split ? 1 : grid.rows());
}

// Calls fn(idx, i, lin) for each point of a block in (z, y, x) order: idx
// is the point's coordinates in its slice, i counts points within the
// block, lin is the point's offset within the slice.
template <typename Fn>
void ForEachPoint(const SliceLayout& lay, const size_t* lo, const size_t* hi,
                  Fn&& fn) {
  size_t i = 0;
  for (size_t z = lo[0]; z < hi[0]; ++z) {
    for (size_t y = lo[1]; y < hi[1]; ++y) {
      size_t lin =
          z * lay.strides[0] + y * lay.strides[1] + lo[2] * lay.strides[2];
      for (size_t x = lo[2]; x < hi[2]; ++x, ++i, ++lin) {
        const size_t idx[3] = {z, y, x};
        fn(idx, i, lin);
      }
    }
  }
}

// One block's predictor: regression with quantized coefficients qc, or
// Lorenzo.
struct BlockChoice {
  bool regression = false;
  int64_t qc[4] = {0, 0, 0, 0};
};

RegressionCoefs Dequantize(const int64_t* qc, const double* coef_steps) {
  RegressionCoefs dq;
  dq.c0 = static_cast<double>(qc[0]) * coef_steps[0];
  dq.cz = static_cast<double>(qc[1]) * coef_steps[1];
  dq.cy = static_cast<double>(qc[2]) * coef_steps[2];
  dq.cx = static_cast<double>(qc[3]) * coef_steps[3];
  return dq;
}

// Picks the block's predictor by mean absolute prediction error on the
// original data. Lorenzo is estimated with original neighbours (the
// standard SZ2 approximation of its online behaviour); the regression
// plane is judged after coefficient quantization, as the decoder sees it.
BlockChoice SelectPredictor(const float* in, const SliceLayout& lay,
                            const size_t* lo, const size_t* hi,
                            const BlockShape& shape, const double* coef_steps,
                            BlockScratch* scratch) {
  GatherBlockValues(in, lay.strides, lo, hi, scratch);
  const RegressionCoefs coefs = FitBlock(scratch->vals.data(), shape);
  BlockChoice choice;
  const double raw_coefs[4] = {coefs.c0, coefs.cz, coefs.cy, coefs.cx};
  bool coef_ok = true;
  for (int k = 0; k < 4; ++k) {
    const double q = std::round(raw_coefs[k] / coef_steps[k]);
    if (!(std::fabs(q) < 1e18)) {
      coef_ok = false;
      break;
    }
    choice.qc[k] = static_cast<int64_t>(q);
    if (std::llabs(choice.qc[k]) > (1ll << 30)) {
      coef_ok = false;
      break;
    }
  }
  if (!coef_ok) return BlockChoice{};

  double err_lorenzo = 0.0;
  const LorenzoSlice lorenzo_orig(in, lay.nd, lay.strides);
  ForEachPoint(lay, lo, hi, [&](const size_t* idx, size_t, size_t lin) {
    err_lorenzo += std::fabs(in[lin] - lorenzo_orig.Predict(idx, lin));
  });
  const RegressionCoefs dq = Dequantize(choice.qc, coef_steps);
  const double err_reg =
      PlaneAbsErr(scratch->vals.data(), shape.cz.data(), shape.cy.data(),
                  shape.cx.data(), shape.n, dq.c0, dq.cz, dq.cy, dq.cx);
  choice.regression = err_reg < err_lorenzo;
  return choice;
}

// Fills scratch->pred with a regression block's dequantized plane.
void PredictPlane(const BlockShape& shape, const BlockChoice& choice,
                  const double* coef_steps, BlockScratch* scratch) {
  const RegressionCoefs dq = Dequantize(choice.qc, coef_steps);
  scratch->pred.resize(shape.n);
  PlanePredict(shape.cz.data(), shape.cy.data(), shape.cx.data(), shape.n,
               dq.c0, dq.cz, dq.cy, dq.cx, scratch->pred.data());
}

// Quantizes one block against its chosen predictor, writing its codes to
// `codes` (block-local order) and its reconstruction to `out`. Returns the
// number of unpredictable points (code 0), stored verbatim.
uint32_t QuantizeBlock(const float* in, float* out, const SliceLayout& lay,
                       const size_t* lo, const size_t* hi,
                       const BlockShape& shape, const BlockChoice& choice,
                       const double* coef_steps, double eb, double bin,
                       BlockScratch* scratch, uint32_t* codes) {
  if (choice.regression) PredictPlane(shape, choice, coef_steps, scratch);
  const LorenzoSlice lorenzo(out, lay.nd, lay.strides);
  uint32_t raw = 0;
  ForEachPoint(lay, lo, hi, [&](const size_t* idx, size_t i, size_t lin) {
    const double pred =
        choice.regression ? scratch->pred[i] : lorenzo.Predict(idx, lin);
    const double val = in[lin];
    const double code_d = std::round((val - pred) / bin);
    if (std::fabs(code_d) < static_cast<double>(kRadius)) {
      const float r = static_cast<float>(pred + code_d * bin);
      if (std::isfinite(r) && std::fabs(r - val) <= eb) {
        codes[i] =
            static_cast<uint32_t>(static_cast<int64_t>(code_d) + kRadius);
        out[lin] = r;
        return;
      }
    }
    codes[i] = 0;  // reserved: unpredictable
    out[lin] = in[lin];
    ++raw;
  });
  return raw;
}

// Reconstructs one block from its codes (block-local order) into `out`,
// with the same floating-point operations QuantizeBlock used to
// reconstruct it; each unpredictable point (code 0) takes the next
// verbatim float of `raw`. Returns the number of verbatim floats read.
uint32_t ReconstructBlock(float* out, const SliceLayout& lay,
                          const size_t* lo, const size_t* hi,
                          const BlockShape& shape, const BlockChoice& choice,
                          const double* coef_steps, double bin,
                          const uint32_t* codes, const uint8_t* raw,
                          BlockScratch* scratch) {
  if (choice.regression) PredictPlane(shape, choice, coef_steps, scratch);
  const LorenzoSlice lorenzo(out, lay.nd, lay.strides);
  uint32_t used = 0;
  ForEachPoint(lay, lo, hi, [&](const size_t* idx, size_t i, size_t lin) {
    const uint32_t sym = codes[i];
    if (sym == 0) {
      out[lin] = std::bit_cast<float>(ReadUint32(raw + 4 * used));
      ++used;
      return;
    }
    const double pred =
        choice.regression ? scratch->pred[i] : lorenzo.Predict(idx, lin);
    const int64_t code = static_cast<int64_t>(sym) - kRadius;
    out[lin] = static_cast<float>(pred + static_cast<double>(code) * bin);
  });
  return used;
}

// Bit b of the selection bits: 1 when block b uses the regression
// predictor.
bool SelectsRegression(const uint8_t* selection, size_t b) {
  return ((selection[b >> 3] >> (b & 7)) & 1u) != 0;
}

}  // namespace

namespace sz_internal {

BlockShapes::BlockShapes(const std::vector<size_t>& dims) {
  const SliceLayout lay = MakeSliceLayout(dims);
  for (size_t k = 0; k < shapes_.size(); ++k) {
    // Bit d of k: a remainder along axis d (see Of).
    size_t ext[3];
    for (size_t d = 0; d < 3; ++d) {
      ext[d] = ((k >> d) & 1) != 0 ? lay.dims[d] % kBlock : kBlock;
    }
    BlockShape& s = shapes_[k];
    s.n = ext[0] * ext[1] * ext[2];
    s.mz = (static_cast<double>(ext[0]) - 1) / 2.0;
    s.my = (static_cast<double>(ext[1]) - 1) / 2.0;
    s.mx = (static_cast<double>(ext[2]) - 1) / 2.0;
    for (std::vector<double>* v : {&s.cz, &s.cy, &s.cx, &s.ccz, &s.ccy,
                                   &s.ccx}) {
      v->resize(s.n);
    }
    double acc[3][4] = {};
    size_t i = 0;
    for (size_t z = 0; z < ext[0]; ++z) {
      for (size_t y = 0; y < ext[1]; ++y) {
        for (size_t x = 0; x < ext[2]; ++x, ++i) {
          s.cz[i] = static_cast<double>(z);
          s.cy[i] = static_cast<double>(y);
          s.cx[i] = static_cast<double>(x);
          s.ccz[i] = s.cz[i] - s.mz;
          s.ccy[i] = s.cy[i] - s.my;
          s.ccx[i] = s.cx[i] - s.mx;
          acc[0][i & 3] += s.ccz[i] * s.ccz[i];
          acc[1][i & 3] += s.ccy[i] * s.ccy[i];
          acc[2][i & 3] += s.ccx[i] * s.ccx[i];
        }
      }
    }
    s.szz = ReduceLanes4(acc[0]);
    s.syy = ReduceLanes4(acc[1]);
    s.sxx = ReduceLanes4(acc[2]);
  }
}

const BlockShape& BlockShapes::Of(const size_t* lo, const size_t* hi) const {
  size_t k = 0;
  for (size_t d = 0; d < 3; ++d) {
    if (hi[d] - lo[d] != kBlock) k |= size_t{1} << d;
  }
  return shapes_[k];
}

}  // namespace sz_internal

StatusOr<std::vector<uint8_t>> SzCompressor::DoCompress(
    const Tensor& data, double eb) const {
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::InvalidArgument("sz: error bound must be finite and > 0");
  }
  const double bin = 2.0 * eb;
  double coef_steps[4];
  CoefSteps(eb, coef_steps);

  const SliceLayout lay = MakeSliceLayout(data.dims());
  const BlockGrid grid(lay);
  ThreadPool* pool = SharedThreadPool();
  const bool split = data.size() >= kMinSplitPoints;
  const size_t select_grain = split ? kSelectGrain : grid.total;
  const sz_internal::BlockShapes shapes(data.dims());

  // --- Phase 1: predictor selection on the original data (like SZ2). It
  // reads only the input, so every block is independent.
  std::vector<BlockChoice> choice(grid.total);
  ParallelForBlocked(
      pool, 0, grid.total,
      [&](size_t first, size_t last) {
        BlockScratch scratch;
        for (size_t b = first; b < last; ++b) {
          size_t lo[3], hi[3];
          const float* in = data.data() + grid.Bounds(b, lo, hi);
          choice[b] = SelectPredictor(in, lay, lo, hi, shapes.Of(lo, hi),
                                      coef_steps, &scratch);
        }
      },
      select_grain);

  // Every block's codes start at a fixed offset: blocks are stored in
  // block order, each point in (z, y, x) order within its block.
  std::vector<size_t> code_offset(grid.total + 1, 0);
  for (size_t b = 0; b < grid.total; ++b) {
    code_offset[b + 1] = code_offset[b] + grid.Elements(b);
  }

  // --- Phase 2: quantization, one row of blocks per unit, each row once
  // the rows it reads are done (see RowSchedule). Each block writes only
  // its own codes (at its fixed offset) and its own reconstructed points,
  // so the codes come out exactly as a serial pass in block order writes
  // them, whatever order the rows run in.
  //
  // recon and codes live until the archive is built. Freeing them early
  // lets the archive, which the caller keeps, land in their freed space
  // and split it; under glibc that raised the steady-state resident size
  // of a serving loop by ~3 MB at 128^3. They are not zero-filled: the
  // wavefront writes every element, and is the first to touch it.
  const auto recon = std::make_unique_for_overwrite<float[]>(data.size());
  const auto codes = std::make_unique_for_overwrite<uint32_t[]>(data.size());
  std::vector<uint32_t> raw_count(grid.total, 0);
  RunRowWavefront(pool, grid, split, [&](size_t row, BlockScratch* scratch) {
    const size_t row_end = (row + 1) * grid.n[2];
    for (size_t b = row_end - grid.n[2]; b < row_end; ++b) {
      size_t lo[3], hi[3];
      const size_t base = grid.Bounds(b, lo, hi);
      raw_count[b] = QuantizeBlock(data.data() + base, recon.get() + base,
                                   lay, lo, hi, shapes.Of(lo, hi), choice[b],
                                   coef_steps, eb, bin, scratch,
                                   codes.get() + code_offset[b]);
    }
  });

  // Verbatim floats for unpredictable points, in block order.
  std::vector<size_t> raw_offset(grid.total + 1, 0);
  for (size_t b = 0; b < grid.total; ++b) {
    raw_offset[b + 1] = raw_offset[b] + raw_count[b];
  }
  std::vector<uint8_t> raw(raw_offset.back() * 4);
  if (!raw.empty()) {
    ParallelForBlocked(
        pool, 0, grid.total,
        [&](size_t first, size_t last) {
          for (size_t b = first; b < last; ++b) {
            if (raw_count[b] == 0) continue;
            size_t lo[3], hi[3];
            const float* in = data.data() + grid.Bounds(b, lo, hi);
            const uint32_t* c = codes.get() + code_offset[b];
            uint8_t* dst = raw.data() + raw_offset[b] * 4;
            auto copy_raw = [&](const size_t*, size_t i, size_t lin) {
              if (c[i] != 0) return;
              const uint32_t bits = std::bit_cast<uint32_t>(in[lin]);
              for (int k = 0; k < 4; ++k) {
                *dst++ = static_cast<uint8_t>(bits >> (8 * k));
              }
            };
            ForEachPoint(lay, lo, hi, copy_raw);
          }
        },
        select_grain);
  }

  // Selection bits (1 = regression predictor) and coefficient codes.
  BitWriter selection;
  std::vector<uint32_t> coef_codes;
  for (const BlockChoice& c : choice) {
    selection.WriteBit(c.regression ? 1u : 0u);
    if (!c.regression) continue;
    for (int k = 0; k < 4; ++k) coef_codes.push_back(ZigZag(c.qc[k]));
  }

  CodeStreamWriter stream;
  AppendDouble(stream.params(), eb);
  stream.AddBytes(std::move(selection).Take());
  stream.AddCodes(coef_codes);
  stream.AddCodes({codes.get(), data.size()});
  stream.AddBytes(std::move(raw));
  return std::move(stream).Finish(kMagic, data);
}

Status SzCompressor::DoDecompress(const uint8_t* data, size_t size,
                                  Tensor* out) const {
  CodeStreamReader stream;
  FXRZ_RETURN_IF_ERROR(stream.Parse(data, size, kMagic, "sz"));
  const std::vector<size_t>& dims = stream.dims();
  double eb = 0.0;
  if (!stream.params()->ReadF64(&eb)) {
    return Status::Corruption("sz: short body");
  }
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::Corruption("sz: bad error bound");
  }
  const double bin = 2.0 * eb;
  double coef_steps[4];
  CoefSteps(eb, coef_steps);

  // Up to four coefficient codes per regression block the selection bits
  // name, and one code per point.
  const SliceLayout lay = MakeSliceLayout(dims);
  const BlockGrid grid(lay);
  const size_t elements = stream.elements();
  const uint8_t* sel_bytes = nullptr;
  size_t sel_size = 0;
  FXRZ_RETURN_IF_ERROR(stream.Bytes("selection bits", &sel_bytes, &sel_size));
  if (sel_size < (grid.total + 7) / 8) {
    return Status::Corruption("sz: truncated block metadata");
  }
  size_t regression_blocks = 0;
  for (size_t b = 0; b < grid.total; ++b) {
    regression_blocks += SelectsRegression(sel_bytes, b) ? 1 : 0;
  }
  OverwriteVector<uint32_t> coef_codes;
  FXRZ_RETURN_IF_ERROR(stream.Codes("coefficient codes", 0,
                                    4 * regression_blocks, &coef_codes));
  OverwriteVector<uint32_t> codes;
  FXRZ_RETURN_IF_ERROR(
      stream.Codes("quantization codes", elements, elements, &codes));
  const uint8_t* raw = nullptr;
  size_t raw_size = 0;
  FXRZ_RETURN_IF_ERROR(stream.Bytes("raw floats", &raw, &raw_size));

  // Where each row of blocks starts in the three per-block sections: its
  // codes at an offset fixed by the shape, its coefficients after those of
  // the regression blocks before it, its verbatim floats after the zero
  // codes before it. A row holds consecutive blocks, so a block's offsets
  // follow from its row's. The coefficient and raw sections' lengths are
  // checked here, once (the selection bits' above): a section too short
  // for the blocks that read it is the "truncated block metadata" a
  // block-order decode would meet at its end.
  const size_t rows = grid.rows();
  struct RowStart {
    size_t code = 0, coef = 0, raw = 0;
  };
  std::vector<RowStart> starts(rows + 1);
  for (size_t r = 0; r < rows; ++r) {
    size_t lo[3], hi[3];
    grid.Bounds(r * grid.n[2], lo, hi);
    size_t regression = 0;
    for (size_t b = r * grid.n[2]; b < (r + 1) * grid.n[2]; ++b) {
      regression += SelectsRegression(sel_bytes, b) ? 1 : 0;
    }
    starts[r + 1].code =
        starts[r].code + (hi[0] - lo[0]) * (hi[1] - lo[1]) * lay.dims[2];
    starts[r + 1].coef = starts[r].coef + 4 * regression;
  }
  ThreadPool* pool = SharedThreadPool();
  const bool split = elements >= kMinSplitPoints;
  ParallelFor(
      pool, 0, rows,
      [&](size_t r) {
        starts[r + 1].raw = static_cast<size_t>(
            std::count(codes.begin() + starts[r].code,
                       codes.begin() + starts[r + 1].code, 0u));
      },
      split ? kSelectGrain : rows);
  for (size_t r = 0; r < rows; ++r) starts[r + 1].raw += starts[r].raw;
  if (starts[rows].coef > coef_codes.size() ||
      starts[rows].raw > raw_size / 4) {
    return Status::Corruption("sz: truncated block metadata");
  }

  // Rows reconstruct in the quantizer's wavefront: a point reads the same
  // reconstructed neighbours the quantizer read, so it runs the same
  // floating-point operations as a serial pass in block order. Every block
  // writes each of its points, so the wavefront is the first to touch the
  // output's pages.
  const sz_internal::BlockShapes shapes(dims);
  Tensor result = Tensor::ForOverwrite(dims);
  RunRowWavefront(pool, grid, split, [&](size_t row, BlockScratch* scratch) {
    RowStart at = starts[row];
    const size_t row_end = (row + 1) * grid.n[2];
    for (size_t b = row_end - grid.n[2]; b < row_end; ++b) {
      size_t lo[3], hi[3];
      const size_t base = grid.Bounds(b, lo, hi);
      BlockChoice choice;
      if (SelectsRegression(sel_bytes, b)) {
        choice.regression = true;
        for (int k = 0; k < 4; ++k) {
          choice.qc[k] = UnZigZag(coef_codes[at.coef++]);
        }
      }
      at.raw += ReconstructBlock(result.data() + base, lay, lo, hi,
                                 shapes.Of(lo, hi), choice, coef_steps, bin,
                                 codes.data() + at.code, raw + 4 * at.raw,
                                 scratch);
      at.code += (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    }
  });
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
