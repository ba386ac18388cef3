// sz's block-shape tables against the per-block computation they replace:
// every block's coordinates, centred coordinates and sums of squares, bit
// for bit, for every extent 1..6 along each axis and for ranks 1-4.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/compressors/sz.h"

namespace fxrz {
namespace {

using sz_internal::BlockShape;
using sz_internal::BlockShapes;

constexpr size_t kBlock = 6;

// What a block of extents (nz, ny, nx) computed for itself: the block-local
// coordinates, the same centred, and the centred coordinates' squares
// summed in four lanes (lane j takes points j, j+4, ...) folded as
// (l0+l2)+(l1+l3).
BlockShape PerBlock(size_t nz, size_t ny, size_t nx) {
  BlockShape s;
  s.n = nz * ny * nx;
  s.mz = (static_cast<double>(nz) - 1) / 2.0;
  s.my = (static_cast<double>(ny) - 1) / 2.0;
  s.mx = (static_cast<double>(nx) - 1) / 2.0;
  for (size_t z = 0; z < nz; ++z) {
    for (size_t y = 0; y < ny; ++y) {
      for (size_t x = 0; x < nx; ++x) {
        s.cz.push_back(static_cast<double>(z));
        s.cy.push_back(static_cast<double>(y));
        s.cx.push_back(static_cast<double>(x));
      }
    }
  }
  for (size_t i = 0; i < s.n; ++i) {
    s.ccz.push_back(s.cz[i] - s.mz);
    s.ccy.push_back(s.cy[i] - s.my);
    s.ccx.push_back(s.cx[i] - s.mx);
  }
  double acc[3][4] = {};
  for (size_t i = 0; i < s.n; ++i) {
    acc[0][i & 3] += s.ccz[i] * s.ccz[i];
    acc[1][i & 3] += s.ccy[i] * s.ccy[i];
    acc[2][i & 3] += s.ccx[i] * s.ccx[i];
  }
  auto fold = [](const double l[4]) { return (l[0] + l[2]) + (l[1] + l[3]); };
  s.szz = fold(acc[0]);
  s.syy = fold(acc[1]);
  s.sxx = fold(acc[2]);
  return s;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return SameBits(x, y); });
}

// Checks the table of every block of a field with dimensions `dims`. sz
// predicts along the last min(rank, 3) dimensions; the leading ones are
// independent slices, and the axes a lower rank lacks have extent 1.
void ExpectTablesMatch(const std::vector<size_t>& dims) {
  const size_t nd = std::min<size_t>(dims.size(), 3);
  size_t extent[3] = {1, 1, 1};
  for (size_t d = 0; d < nd; ++d) extent[d] = dims[dims.size() - nd + d];
  std::ostringstream dims_text;
  for (size_t d : dims) dims_text << " " << d;
  const std::string where = "dims" + dims_text.str();

  const BlockShapes shapes(dims);
  size_t lo[3], hi[3];
  for (lo[0] = 0; lo[0] < extent[0]; lo[0] += kBlock) {
    for (lo[1] = 0; lo[1] < extent[1]; lo[1] += kBlock) {
      for (lo[2] = 0; lo[2] < extent[2]; lo[2] += kBlock) {
        for (size_t d = 0; d < 3; ++d) {
          hi[d] = std::min(lo[d] + kBlock, extent[d]);
        }
        const BlockShape want =
            PerBlock(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
        const BlockShape& got = shapes.Of(lo, hi);
        ASSERT_EQ(got.n, want.n) << where;
        EXPECT_TRUE(SameBits(got.mz, want.mz) && SameBits(got.my, want.my) &&
                    SameBits(got.mx, want.mx))
            << where;
        EXPECT_TRUE(SameBits(got.cz, want.cz) && SameBits(got.cy, want.cy) &&
                    SameBits(got.cx, want.cx))
            << where;
        EXPECT_TRUE(SameBits(got.ccz, want.ccz) &&
                    SameBits(got.ccy, want.ccy) &&
                    SameBits(got.ccx, want.ccx))
            << where;
        EXPECT_TRUE(SameBits(got.szz, want.szz) &&
                    SameBits(got.syy, want.syy) &&
                    SameBits(got.sxx, want.sxx))
            << where;
      }
    }
  }
}

// Each axis takes extent e alone (every block a remainder of e) and
// kBlock + e (a full block, then a remainder of e, or two full blocks).
std::vector<size_t> AxisSizes() {
  std::vector<size_t> sizes;
  for (size_t e = 1; e <= kBlock; ++e) {
    sizes.push_back(e);
    sizes.push_back(kBlock + e);
  }
  return sizes;
}

TEST(SzBlockShapeTest, Rank1) {
  for (size_t a : AxisSizes()) ExpectTablesMatch({a});
}

TEST(SzBlockShapeTest, Rank2) {
  for (size_t a : AxisSizes()) {
    for (size_t b : AxisSizes()) ExpectTablesMatch({a, b});
  }
}

TEST(SzBlockShapeTest, Rank3) {
  for (size_t a : AxisSizes()) {
    for (size_t b : AxisSizes()) {
      for (size_t c : AxisSizes()) ExpectTablesMatch({a, b, c});
    }
  }
}

TEST(SzBlockShapeTest, Rank4) {
  for (size_t a : AxisSizes()) {
    for (size_t b : AxisSizes()) {
      for (size_t c : AxisSizes()) ExpectTablesMatch({2, a, b, c});
    }
  }
}

}  // namespace
}  // namespace fxrz
