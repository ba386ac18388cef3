#include "src/compressors/fpzip.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "src/encoding/arith.h"
#include "src/encoding/bit_stream.h"
#include "src/util/check.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x46505A31;  // "FPZ1"

// Monotone map float -> uint32: ordered integers compare like the floats.
uint32_t FloatToOrdered(float f) {
  uint32_t u = std::bit_cast<uint32_t>(f);
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

// Inverse of FloatToOrdered.
float OrderedToFloat(uint32_t o) {
  return std::bit_cast<float>((o & 0x80000000u) ? (o & 0x7FFFFFFFu) : ~o);
}

// Precision reduction: keep the top `p` bits of the ordered representation.
uint32_t Truncate(uint32_t o, int p) {
  if (p >= 32) return o;
  const uint32_t mask = ~((1u << (32 - p)) - 1u);
  return o & mask;
}

// Context set for residual coding: one bit tree over the 6-bit magnitude
// class (leading-bit position), plus a sign context per class.
struct ResidualModel {
  // 63 nodes of a binary tree over 6 bits (indices 1..63).
  BitContext klass[64];
  BitContext sign[33];
};

void EncodeResidual(ArithEncoder* enc, ResidualModel* m, int64_t r) {
  const uint64_t mag = static_cast<uint64_t>(r < 0 ? -r : r);
  // k = number of significant bits of |r| (0 for r == 0), k <= 33.
  const int k = mag == 0 ? 0 : 64 - std::countl_zero(mag);
  FXRZ_DCHECK(k <= 33);
  // Binary-tree coding of k as 6 bits, MSB first, with per-node contexts.
  uint32_t node = 1;
  for (int b = 5; b >= 0; --b) {
    const uint32_t bit = (static_cast<uint32_t>(k) >> b) & 1u;
    enc->EncodeBit(&m->klass[node], bit);
    node = node * 2 + bit;
    if (node > 63) node = 63;  // keep in range for k=33 (needs 6 bits: <=63)
  }
  if (k == 0) return;
  enc->EncodeBit(&m->sign[std::min(k, 32)], r < 0 ? 1u : 0u);
  if (k > 1) {
    // Bits below the implicit leading 1.
    enc->EncodeRaw(mag & ((1ull << (k - 1)) - 1ull), k - 1);
  }
}

// Upper bound on the elements a residual payload of `payload_bytes` bytes
// can encode. Every element costs at least the six class-tree decisions,
// and a BitContext's P(bit) saturates where its update step
// (kProbMax - p) >> kMoveBits reaches zero, so no decision costs less than
// -log2(saturated / kProbMax) bits (~0.022; ~61 elements per byte). The
// bound doubles that density and adds a constant for the coder's flush
// bytes, so every archive the encoder can produce passes while a header
// claiming more elements is rejected before any allocation.
uint64_t MaxEncodableElements(size_t payload_bytes) {
  constexpr double kSaturated =
      BitContext::kProbMax - ((1u << BitContext::kMoveBits) - 1u);
  const double min_bits_per_element =
      6.0 * -std::log2(kSaturated / BitContext::kProbMax);
  const double per_byte = 2.0 * 8.0 / min_bits_per_element;
  return static_cast<uint64_t>(per_byte * static_cast<double>(payload_bytes)) +
         4096;
}

// Decodes one residual into *r. Returns false when the stream encodes a
// magnitude class the encoder can never emit (k > 33): on corrupt input
// the class tree decodes freely up to k = 63, and the resulting magnitude
// would overflow the int64 residual-times-step arithmetic downstream.
bool DecodeResidual(ArithDecoder* dec, ResidualModel* m, int64_t* r) {
  uint32_t node = 1;
  uint32_t k = 0;
  for (int b = 5; b >= 0; --b) {
    const uint32_t bit = dec->DecodeBit(&m->klass[node]);
    k = (k << 1) | bit;
    node = node * 2 + bit;
    if (node > 63) node = 63;
  }
  if (k == 0) {
    *r = 0;
    return true;
  }
  if (k > 33) return false;
  const uint32_t sign = dec->DecodeBit(&m->sign[std::min<uint32_t>(k, 32)]);
  uint64_t mag = 1ull << (k - 1);
  if (k > 1) mag |= dec->DecodeRaw(k - 1);
  *r = sign ? -static_cast<int64_t>(mag) : static_cast<int64_t>(mag);
  return true;
}

// Lorenzo prediction in ordered-integer space over the last <=3 dims.
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

int64_t PredictOrdered(const uint32_t* slice, const SliceLayout& lay,
                       const size_t* idx, size_t linear) {
  auto value = [&](size_t dz, size_t dy, size_t dx) -> int64_t {
    const size_t offs[3] = {dz, dy, dx};
    size_t lin = linear;
    for (size_t d = 0; d < lay.nd; ++d) {
      const size_t back = offs[3 - lay.nd + d];
      if (back == 0) continue;
      if (idx[d] < back) return static_cast<int64_t>(FloatToOrdered(0.0f));
      lin -= back * lay.strides[d];
    }
    return static_cast<int64_t>(slice[lin]);
  };
  int64_t pred;
  switch (lay.nd) {
    case 1:
      pred = value(0, 0, 1);
      break;
    case 2:
      pred = value(0, 0, 1) + value(0, 1, 0) - value(0, 1, 1);
      break;
    default:
      pred = value(0, 0, 1) + value(0, 1, 0) + value(1, 0, 0) -
             value(0, 1, 1) - value(1, 0, 1) - value(1, 1, 0) + value(1, 1, 1);
      break;
  }
  // Clamp into the representable ordered range.
  return std::clamp<int64_t>(pred, 0, 0xFFFFFFFFll);
}

// Invokes fn(linear, pred) for every point of the slice in raster order.
// Interior points (every backward neighbor present) take a direct-offset
// Lorenzo predictor; boundary points use PredictOrdered's checked lambda.
// Integer sums are exact, so the two paths agree wherever both apply.
// Decoders write slice[linear] inside fn before the next point's prediction
// reads it (the Lorenzo recurrence is inherently sequential). Stops and
// returns false when fn returns false.
template <typename Fn>
bool ForEachLorenzoPoint(const uint32_t* slice, const SliceLayout& lay,
                         Fn&& fn) {
  if (lay.nd == 1) {
    for (size_t x = 0; x < lay.dims[0]; ++x) {
      const int64_t pred =
          x == 0 ? static_cast<int64_t>(FloatToOrdered(0.0f))
                 : std::clamp<int64_t>(static_cast<int64_t>(slice[x - 1]), 0,
                                       0xFFFFFFFFll);
      if (!fn(x, pred)) return false;
    }
    return true;
  }
  if (lay.nd == 2) {
    const size_t sy = lay.strides[0];
    size_t lin = 0;
    for (size_t y = 0; y < lay.dims[0]; ++y) {
      for (size_t x = 0; x < lay.dims[1]; ++x, ++lin) {
        int64_t pred;
        if (y > 0 && x > 0) {
          pred = static_cast<int64_t>(slice[lin - 1]) +
                 static_cast<int64_t>(slice[lin - sy]) -
                 static_cast<int64_t>(slice[lin - sy - 1]);
          pred = std::clamp<int64_t>(pred, 0, 0xFFFFFFFFll);
        } else {
          const size_t idx[3] = {y, x, 0};
          pred = PredictOrdered(slice, lay, idx, lin);
        }
        if (!fn(lin, pred)) return false;
      }
    }
    return true;
  }
  const size_t sz = lay.strides[0], sy = lay.strides[1];
  size_t lin = 0;
  for (size_t z = 0; z < lay.dims[0]; ++z) {
    for (size_t y = 0; y < lay.dims[1]; ++y) {
      for (size_t x = 0; x < lay.dims[2]; ++x, ++lin) {
        int64_t pred;
        if (z > 0 && y > 0 && x > 0) {
          pred = static_cast<int64_t>(slice[lin - 1]) +
                 static_cast<int64_t>(slice[lin - sy]) +
                 static_cast<int64_t>(slice[lin - sz]) -
                 static_cast<int64_t>(slice[lin - sy - 1]) -
                 static_cast<int64_t>(slice[lin - sz - 1]) -
                 static_cast<int64_t>(slice[lin - sz - sy]) +
                 static_cast<int64_t>(slice[lin - sz - sy - 1]);
          pred = std::clamp<int64_t>(pred, 0, 0xFFFFFFFFll);
        } else {
          const size_t idx[3] = {z, y, x};
          pred = PredictOrdered(slice, lay, idx, lin);
        }
        if (!fn(lin, pred)) return false;
      }
    }
  }
  return true;
}

}  // namespace

ConfigSpace FpzipCompressor::config_space(double /*value_range*/) const {
  ConfigSpace space;
  space.min = kMinPrecision;
  space.max = kMaxPrecision;
  space.log_scale = false;
  space.integer = true;
  space.ratio_increases = false;  // higher precision => lower ratio
  return space;
}

StatusOr<std::vector<uint8_t>> FpzipCompressor::DoCompress(
    const Tensor& data, double config) const {
  if (!(config >= kMinPrecision - 0.5 && config < kMaxPrecision + 0.5)) {
    return Status::InvalidArgument("fpzip: precision out of range");
  }
  const int p = static_cast<int>(std::lround(config));

  // Precision-reduce the whole field first; both sides of the codec then
  // agree on the exact integer stream.
  std::vector<uint32_t> ordered(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ordered[i] = Truncate(FloatToOrdered(data[i]), p);
  }

  ArithEncoder enc;
  ResidualModel model;
  const SliceLayout lay = MakeSliceLayout(data.dims());
  // Residual in units of the truncation step keeps magnitudes small.
  const int64_t step = 1ll << (32 - p);
  for (size_t s = 0; s < lay.num_slices; ++s) {
    const uint32_t* slice = ordered.data() + s * lay.slice_elems;
    ForEachLorenzoPoint(slice, lay, [&](size_t i, int64_t pred) {
      const int64_t actual = static_cast<int64_t>(slice[i]);
      const int64_t r =
          (actual - Truncate(static_cast<uint32_t>(pred), p)) / step;
      EncodeResidual(&enc, &model, r);
      return true;
    });
  }

  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  out.push_back(static_cast<uint8_t>(p));
  const std::vector<uint8_t> payload = std::move(enc).Finish();
  AppendUint64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status FpzipCompressor::DoDecompress(const uint8_t* data, size_t size,
                                     Tensor* out) const {
  ByteReader reader(data, size);
  std::vector<size_t> dims;
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&reader, kMagic, &dims));
  uint8_t precision = 0;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  if (!reader.ReadU8(&precision) ||
      !reader.ReadLengthPrefixed(&payload, &payload_size)) {
    return Status::Corruption("fpzip: short header");
  }
  const int p = precision;
  if (p < kMinPrecision || p > kMaxPrecision) {
    return Status::Corruption("fpzip: bad precision");
  }
  uint64_t elements = 1;
  for (const size_t d : dims) elements *= d;  // ParseHeader caps at 2^33
  if (elements > MaxEncodableElements(payload_size)) {
    return Status::Corruption("fpzip: element count exceeds what the " +
                              std::to_string(payload_size) +
                              "-byte payload can encode");
  }

  Tensor result(dims);
  std::vector<uint32_t> ordered(result.size());

  ArithDecoder dec(payload, payload_size);
  ResidualModel model;
  const SliceLayout lay = MakeSliceLayout(dims);
  const int64_t step = 1ll << (32 - p);
  for (size_t s = 0; s < lay.num_slices; ++s) {
    uint32_t* slice = ordered.data() + s * lay.slice_elems;
    bool bad_class = false;
    const bool done =
        ForEachLorenzoPoint(slice, lay, [&](size_t i, int64_t pred) {
          int64_t r = 0;
          if (!DecodeResidual(&dec, &model, &r)) {
            bad_class = true;
            return false;
          }
          const int64_t actual =
              static_cast<int64_t>(Truncate(static_cast<uint32_t>(pred), p)) +
              r * step;
          if (actual < 0 || actual > 0xFFFFFFFFll || dec.overrun()) {
            return false;
          }
          slice[i] = static_cast<uint32_t>(actual);
          return true;
        });
    if (!done) {
      return Status::Corruption(bad_class ? "fpzip: bad residual class"
                                          : "fpzip: bad residual stream");
    }
  }

  for (size_t i = 0; i < ordered.size(); ++i) {
    result[i] = OrderedToFloat(ordered[i]);
  }
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
