#include "src/compressors/sz3.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "src/compressors/code_stream.h"
#include "src/encoding/bit_stream.h"
#include "src/util/check.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x535A3331;  // "SZ31"
constexpr int64_t kRadius = 32768;

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

// Largest half-step: the refinement ladder starts from a base grid of
// spacing 2*h_max.
size_t MaxHalfStep(const SliceLayout& lay) {
  size_t max_dim = 1;
  for (size_t i = 0; i < lay.nd; ++i) max_dim = std::max(max_dim, lay.dims[i]);
  size_t h = 1;
  while (h * 4 < max_dim) h *= 2;
  return h;
}

// Row kernels over points p_i = lin0 + i*pt_step, with neighbors at +/- nbr
// (and +/- 3*nbr for cubic) in the same flat array. Each repeats
// InterpolatePrediction's arithmetic exactly, down to the linear predictor
// adding its two neighbors in float before widening: the archive bytes
// depend on it.

// pred[i] = -1/16*rec[p-3s] + 9/16*rec[p-s] + 9/16*rec[p+s] - 1/16*rec[p+3s].
void CubicPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                  size_t count, double* pred) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i * pt_step;
    pred[i] = -1.0 / 16.0 * rec[p - 3 * nbr] + 9.0 / 16.0 * rec[p - nbr] +
              9.0 / 16.0 * rec[p + nbr] - 1.0 / 16.0 * rec[p + 3 * nbr];
  }
}

// pred[i] = 0.5 * (rec[p-s] + rec[p+s]).
void LinearPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                   size_t count, double* pred) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i * pt_step;
    pred[i] = 0.5 * (rec[p - nbr] + rec[p + nbr]);
  }
}

// Cubic (4-point spline) interpolation along `axis` at spacing `h`, reading
// already-reconstructed values from `rec`. Falls back to linear/copy at
// boundaries.
double InterpolatePrediction(const float* rec, const SliceLayout& lay,
                             const size_t* idx, size_t lin, size_t axis,
                             size_t h) {
  const size_t coord = idx[axis];
  const size_t extent = lay.dims[axis];
  const size_t stride = lay.strides[axis];
  const bool has_l1 = coord >= h;
  const bool has_r1 = coord + h < extent;
  const bool has_l3 = coord >= 3 * h;
  const bool has_r3 = coord + 3 * h < extent;
  if (has_l3 && has_r3) {
    return -1.0 / 16.0 * rec[lin - 3 * h * stride] +
           9.0 / 16.0 * rec[lin - h * stride] +
           9.0 / 16.0 * rec[lin + h * stride] -
           1.0 / 16.0 * rec[lin + 3 * h * stride];
  }
  if (has_l1 && has_r1) {
    return 0.5 * (rec[lin - h * stride] + rec[lin + h * stride]);
  }
  if (has_l1) return rec[lin - h * stride];
  if (has_r1) return rec[lin + h * stride];
  return 0.0;
}

// Walks the multi-level interpolation schedule, invoking
// fn(linear_offset, prediction) for every point of the slice exactly once,
// in an order identical for compression and decompression. `rec` must be
// updated by fn before the next call reads it.
template <typename Fn>
void ForEachPredictedPoint(const float* rec, const SliceLayout& lay, Fn&& fn) {
  const size_t h_max = MaxHalfStep(lay);
  const size_t base_step = 2 * h_max;

  // Base grid: raster order, predicted by the previous base point.
  {
    bool first = true;
    size_t prev_lin = 0;
    for (size_t z = 0; z < lay.dims[0]; z += base_step) {
      for (size_t y = 0; y < lay.dims[1]; y += base_step) {
        for (size_t x = 0; x < lay.dims[2]; x += base_step) {
          const size_t lin =
              z * lay.strides[0] + y * lay.strides[1] + x * lay.strides[2];
          fn(lin, first ? 0.0 : static_cast<double>(rec[prev_lin]));
          prev_lin = lin;
          first = false;
        }
      }
    }
  }

  // Refinement levels, coarse to fine; within a level, axis by axis. A
  // point belongs to (h, axis a) when coord[a] == h (mod 2h), earlier axes
  // are already on the h grid, later axes still on the 2h grid.
  //
  // Rows along the last axis always advance by 2h (the last axis is either
  // the prediction axis with spacing 2h, or a later axis still on the 2h
  // grid). A same-pass point is never another's interpolation neighbor
  // (neighbors sit at coord +/- h or +/- 3h along the prediction axis,
  // which is 0 mod 2h, not h mod 2h), so a whole row's predictions can be
  // computed from `rec` up front by the row kernels before fn() consumes
  // them in the original point order.
  const size_t last = lay.nd - 1;
  std::vector<double> pred(lay.dims[last] / 2 + 2);

  // Row whose prediction axis differs from the last axis: the boundary
  // ladder depends only on the (fixed) coordinate along `axis`, so one
  // kernel covers the row.
  auto row_across = [&](size_t coord, size_t lin0, size_t axis, size_t h) {
    const size_t pt_step = 2 * h;  // stride along the last axis is 1
    const size_t count = (lay.dims[last] + pt_step - 1) / pt_step;
    const size_t extent = lay.dims[axis];
    const size_t nbr = h * lay.strides[axis];
    const bool has_l1 = coord >= h;
    const bool has_r1 = coord + h < extent;
    if (coord >= 3 * h && coord + 3 * h < extent) {
      CubicPredict(rec, lin0, pt_step, nbr, count, pred.data());
    } else if (has_l1 && has_r1) {
      LinearPredict(rec, lin0, pt_step, nbr, count, pred.data());
    } else if (has_l1) {
      for (size_t k = 0; k < count; ++k) {
        pred[k] = rec[lin0 + k * pt_step - nbr];
      }
    } else if (has_r1) {
      for (size_t k = 0; k < count; ++k) {
        pred[k] = rec[lin0 + k * pt_step + nbr];
      }
    } else {
      std::fill_n(pred.begin(), count, 0.0);
    }
    for (size_t k = 0; k < count; ++k) fn(lin0 + k * pt_step, pred[k]);
  };

  // Row whose prediction axis IS the last axis: the ladder varies along
  // the row. The first point (coord h < 3h) and at most two tail points
  // lack the full cubic stencil; everything between is one cubic run.
  auto row_along = [&](size_t row_base, size_t h) {
    const size_t extent = lay.dims[last];
    if (extent <= h) return;
    const size_t pt_step = 2 * h;
    size_t idx[3] = {0, 0, 0};
    idx[last] = h;
    fn(row_base + h,
       InterpolatePrediction(rec, lay, idx, row_base + h, last, h));
    const size_t n_cubic =
        extent > 4 * h ? (extent - 4 * h - 1) / pt_step : 0;
    if (n_cubic > 0) {
      const size_t lin0 = row_base + 3 * h;
      CubicPredict(rec, lin0, pt_step, h, n_cubic, pred.data());
      for (size_t k = 0; k < n_cubic; ++k) fn(lin0 + k * pt_step, pred[k]);
    }
    for (size_t c = h + (n_cubic + 1) * pt_step; c < extent; c += pt_step) {
      idx[last] = c;
      fn(row_base + c,
         InterpolatePrediction(rec, lay, idx, row_base + c, last, h));
    }
  };

  for (size_t h = h_max; h >= 1; h /= 2) {
    for (size_t axis = 0; axis < lay.nd; ++axis) {
      // dims/strides are left-aligned: axis indexes them directly.
      size_t mods[3];
      for (size_t b = 0; b < lay.nd; ++b) {
        mods[b] = b < axis ? h : 2 * h;
      }
      if (axis == last) {
        if (lay.nd == 1) {
          row_along(0, h);
        } else if (lay.nd == 2) {
          for (size_t z = 0; z < lay.dims[0]; z += mods[0]) {
            row_along(z * lay.strides[0], h);
          }
        } else {
          for (size_t z = 0; z < lay.dims[0]; z += mods[0]) {
            const size_t zoff = z * lay.strides[0];
            for (size_t y = 0; y < lay.dims[1]; y += mods[1]) {
              row_along(zoff + y * lay.strides[1], h);
            }
          }
        }
      } else if (axis == 0) {
        for (size_t z = h; z < lay.dims[0]; z += 2 * h) {
          const size_t zoff = z * lay.strides[0];
          if (lay.nd == 2) {
            row_across(z, zoff, 0, h);
          } else {
            for (size_t y = 0; y < lay.dims[1]; y += mods[1]) {
              row_across(z, zoff + y * lay.strides[1], 0, h);
            }
          }
        }
      } else {  // axis == 1, lay.nd == 3
        for (size_t z = 0; z < lay.dims[0]; z += mods[0]) {
          const size_t zoff = z * lay.strides[0];
          for (size_t y = h; y < lay.dims[1]; y += 2 * h) {
            row_across(y, zoff + y * lay.strides[1], 1, h);
          }
        }
      }
    }
  }
}

}  // namespace

StatusOr<std::vector<uint8_t>> Sz3Compressor::DoCompress(
    const Tensor& data, double eb) const {
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::InvalidArgument("sz3: error bound must be finite and > 0");
  }
  const double bin = 2.0 * eb;

  std::vector<float> recon(data.size());
  std::vector<uint32_t> codes(data.size());
  std::vector<uint8_t> raw;

  const SliceLayout lay = MakeSliceLayout(data.dims());
  for (size_t s = 0; s < lay.num_slices; ++s) {
    const size_t base = s * lay.slice_elems;
    const float* in = data.data() + base;
    float* rec = recon.data() + base;

    size_t emitted = 0;
    ForEachPredictedPoint(rec, lay, [&](size_t lin, double pred) {
      const double val = in[lin];
      const double code_d = std::round((val - pred) / bin);
      bool predictable = std::fabs(code_d) < static_cast<double>(kRadius);
      if (predictable) {
        const int64_t code = static_cast<int64_t>(code_d);
        const float r = static_cast<float>(pred + code_d * bin);
        if (std::isfinite(r) && std::fabs(r - val) <= eb) {
          codes[base + lin] = static_cast<uint32_t>(code + kRadius);
          rec[lin] = r;
        } else {
          predictable = false;
        }
      }
      if (!predictable) {
        codes[base + lin] = 0;
        rec[lin] = in[lin];
        AppendUint32(&raw, std::bit_cast<uint32_t>(in[lin]));
      }
      ++emitted;
    });
    FXRZ_CHECK_EQ(emitted, lay.slice_elems)
        << "interpolation schedule must cover every point exactly once";
  }

  std::vector<float>().swap(recon);

  CodeStreamWriter stream;
  AppendDouble(stream.params(), eb);
  stream.AddCodes(codes);
  std::vector<uint32_t>().swap(codes);
  stream.AddBytes(std::move(raw));
  return std::move(stream).Finish(kMagic, data);
}

Status Sz3Compressor::DoDecompress(const uint8_t* data, size_t size,
                                   Tensor* out) const {
  CodeStreamReader stream;
  FXRZ_RETURN_IF_ERROR(stream.Parse(data, size, kMagic, "sz3"));
  double eb = 0.0;
  if (!stream.params()->ReadF64(&eb)) {
    return Status::Corruption("sz3: short body");
  }
  if (!std::isfinite(eb) || eb <= 0.0) {
    return Status::Corruption("sz3: bad error bound");
  }
  const double bin = 2.0 * eb;
  OverwriteVector<uint32_t> codes;
  FXRZ_RETURN_IF_ERROR(stream.Codes("quantization codes", &codes));
  const uint8_t* raw = nullptr;
  size_t raw_size = 0;
  FXRZ_RETURN_IF_ERROR(stream.Bytes("raw floats", &raw, &raw_size));
  size_t raw_used = 0;

  // Every point is predicted and written once, in the predictor's order.
  Tensor result = Tensor::ForOverwrite(stream.dims());
  if (codes.size() != result.size()) {
    return Status::Corruption("sz3: code count mismatch");
  }

  bool corrupt = false;
  const SliceLayout lay = MakeSliceLayout(stream.dims());
  for (size_t s = 0; s < lay.num_slices; ++s) {
    const size_t base = s * lay.slice_elems;
    float* rec = result.data() + base;
    ForEachPredictedPoint(rec, lay, [&](size_t lin, double pred) {
      // Past a short raw section the decode fails, but every point is
      // still written: later predictions read it.
      if (corrupt) {
        rec[lin] = 0.0f;
        return;
      }
      const uint32_t sym = codes[base + lin];
      if (sym == 0) {
        if (raw_used + 4 > raw_size) {
          corrupt = true;
          rec[lin] = 0.0f;
          return;
        }
        rec[lin] = std::bit_cast<float>(ReadUint32(raw + raw_used));
        raw_used += 4;
      } else {
        const int64_t code = static_cast<int64_t>(sym) - kRadius;
        rec[lin] = static_cast<float>(pred + static_cast<double>(code) * bin);
      }
    });
  }
  if (corrupt) return Status::Corruption("sz3: raw underflow");
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
