#include "src/compressors/fpzip.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/encoding/arith.h"
#include "src/encoding/bit_stream.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

constexpr uint32_t kMagic = 0x46505A32;              // "FPZ2"
constexpr uint32_t kSingleStreamMagic = 0x46505A31;  // "FPZ1"

// Segmentation of the residual stream: about one segment per
// kSegmentElems elements, at most kMaxSegments, never more than planes.
constexpr size_t kSegmentElems = 32768;
constexpr size_t kMaxSegments = 64;

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

// Context set for one segment's residual coding: one bit tree over the
// 6-bit magnitude class (leading-bit position), plus a sign context per
// class.
struct ResidualModel {
  // 63 nodes of a binary tree over 6 bits (indices 1..63).
  BitContext klass[64];
  BitContext sign[33];
};

// Codes residual `r` (|r| < 2^32): its class k and sign through the range
// coder, the k - 1 bits below its leading one raw into `raw`.
void EncodeResidual(ArithEncoder* enc, ResidualModel* m, BitWriter* raw,
                    int64_t r) {
  const uint64_t mag = static_cast<uint64_t>(r < 0 ? -r : r);
  // k = number of significant bits of |r| (0 for r == 0).
  const int k = mag == 0 ? 0 : 64 - std::countl_zero(mag);
  FXRZ_DCHECK(k <= 32);
  // Binary-tree coding of k as 6 bits, MSB first, with per-node contexts.
  uint32_t node = 1;
  for (int b = 5; b >= 0; --b) {
    const uint32_t bit = (static_cast<uint32_t>(k) >> b) & 1u;
    enc->EncodeBit(&m->klass[node], bit);
    node = node * 2 + bit;
  }
  if (k == 0) return;
  enc->EncodeBit(&m->sign[k], r < 0 ? 1u : 0u);
  if (k > 1) raw->WriteBits(mag, static_cast<size_t>(k - 1));
}

// Upper bound on the elements a class stream of `payload_bytes` bytes can
// encode. Every element costs at least the six class-tree decisions, and a
// BitContext's P(bit) saturates where its update step
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

// Decodes one residual r into *offset as the ordered-domain offset it adds
// to the truncated prediction, r * 2^(32 - p) modulo 2^32. Returns false
// on a class k > p: |r| < 2^p, so no valid stream holds one, and on
// corrupt input the class tree decodes freely up to k = 63.
bool DecodeResidual(ArithDecoder* dec, ResidualModel* m, BitReader* raw,
                    int p, uint32_t* offset) {
  uint32_t node = 1;
  for (int b = 0; b < 6; ++b) {
    node = node * 2 + dec->DecodeBit(&m->klass[node]);
  }
  const uint32_t k = node - 64;
  if (k == 0) {
    *offset = 0;
    return true;
  }
  if (k > static_cast<uint32_t>(p)) return false;
  const uint32_t sign = dec->DecodeBit(&m->sign[k]);
  uint64_t mag = 1ull << (k - 1);
  if (k > 1) mag |= raw->ReadBits(k - 1);
  const uint32_t step = static_cast<uint32_t>(mag << (32 - p));
  *offset = sign ? 0u - step : step;
  return true;
}

// Lorenzo prediction in ordered-integer space over the last <=3 dims. A
// plane is one index of the outermost of those dims (a 2-D plane of a 3-D
// slice, a row of a 2-D one, an element of a 1-D one); the planes of all
// slices are numbered in raster order.
struct SliceLayout {
  size_t num_slices = 1;
  size_t slice_elems = 1;
  size_t nd = 0;
  size_t dims[3] = {1, 1, 1};
  size_t strides[3] = {1, 1, 1};

  size_t plane_elems() const { return strides[0]; }
  size_t planes() const { return num_slices * dims[0]; }
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

// The residual stream is cut into segments at plane boundaries, each coded
// with its own models and streams. Their number depends only on the shape,
// so the archive bytes do not depend on the host's thread count.
size_t SegmentCount(const SliceLayout& lay) {
  const size_t elements = lay.num_slices * lay.slice_elems;
  return std::clamp<size_t>(elements / kSegmentElems, 1,
                            std::min(kMaxSegments, lay.planes()));
}

// First plane of segment `s` of `segments` (s == segments gives the end).
size_t SegmentPlane(const SliceLayout& lay, size_t segments, size_t s) {
  return s * lay.planes() / segments;
}

// Invokes fn(i, pred) for every point i of planes [plane_begin, plane_end)
// of `field` in raster order, i counted from the start of the field; fn
// returns field[i]. The predictor is the Lorenzo sum over the point's
// backward neighbors at offsets {0, 1}^nd, where a neighbor outside the
// slice reads as the ordered image of 0.0f, clamped into the ordered range.
// Integer sums are exact, so the prediction does not depend on the order
// the terms are added in. Within a row the left neighbors are the values
// carried from the point before (the left one is what fn returned), so the
// decoder's serial recurrence never waits on a store it just made. The
// decoder writes field[i] inside fn before a later point's prediction
// reads it (the Lorenzo recurrence is inherently sequential).
template <typename Fn>
void ForEachLorenzoPoint(const uint32_t* field, const SliceLayout& lay,
                         size_t plane_begin, size_t plane_end, Fn&& fn) {
  const uint32_t zero = FloatToOrdered(0.0f);
  const size_t nx = lay.dims[lay.nd - 1];
  const std::vector<uint32_t> zero_row(nx, zero);
  for (size_t g = plane_begin; g < plane_end; ++g) {
    const size_t base = g / lay.dims[0] * lay.slice_elems;
    const size_t outer = g % lay.dims[0];
    if (lay.nd == 1) {
      fn(base + outer, outer == 0 ? zero : field[base + outer - 1]);
      continue;
    }
    // A 2-D plane is one row (y = outer); a 3-D plane has dims[1] rows.
    const size_t z = lay.nd == 3 ? outer : 0;
    const size_t rows = lay.nd == 3 ? lay.dims[1] : 1;
    const size_t sy = lay.strides[lay.nd - 2];
    const size_t sz = lay.nd == 3 ? lay.strides[0] : 0;
    for (size_t r = 0; r < rows; ++r) {
      const size_t y = lay.nd == 3 ? r : outer;
      const size_t lin = base + z * sz + y * sy;
      const uint32_t* up = y > 0 ? field + lin - sy : zero_row.data();
      const uint32_t* back = z > 0 ? field + lin - sz : zero_row.data();
      const uint32_t* back_up =
          z > 0 && y > 0 ? field + lin - sz - sy : zero_row.data();
      int64_t left = zero, up_left = zero, back_left = zero,
              back_up_left = zero;
      for (size_t x = 0; x < nx; ++x) {
        const int64_t u = up[x], b = back[x], bu = back_up[x];
        // The left neighbor is added last: it is the only term on the
        // decoder's serial dependency chain.
        const int64_t pred =
            (u + b + back_up_left - up_left - back_left - bu) + left;
        left = fn(lin + x, std::clamp<int64_t>(pred, 0, 0xFFFFFFFFll));
        up_left = u;
        back_left = b;
        back_up_left = bu;
      }
    }
  }
}

// One segment's two streams as they sit in an archive.
struct SegmentSpans {
  const uint8_t* klass = nullptr;
  size_t klass_size = 0;
  const uint8_t* raw = nullptr;
  size_t raw_size = 0;
};

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
  ThreadPool* pool = SharedThreadPool();

  // Precision-reduce the whole field first: the prediction reads only the
  // truncated values, so every segment encodes from it independently.
  const std::unique_ptr<uint32_t[]> ordered =
      std::make_unique_for_overwrite<uint32_t[]>(data.size());
  ParallelForBlocked(
      pool, 0, data.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          ordered[i] = Truncate(FloatToOrdered(data[i]), p);
        }
      },
      size_t{1} << 16);

  const SliceLayout lay = MakeSliceLayout(data.dims());
  const size_t segments = SegmentCount(lay);
  std::vector<std::vector<uint8_t>> klass(segments), raw(segments);
  // Residual in units of the truncation step keeps magnitudes small.
  const int64_t step = 1ll << (32 - p);
  const uint32_t mask = Truncate(0xFFFFFFFFu, p);
  ParallelFor(
      pool, 0, segments,
      [&](size_t s) {
        ArithEncoder enc;
        ResidualModel model;
        BitWriter bits;
        ForEachLorenzoPoint(
            ordered.get(), lay, SegmentPlane(lay, segments, s),
            SegmentPlane(lay, segments, s + 1), [&](size_t i, int64_t pred) {
              const uint32_t actual = ordered[i];
              const int64_t r = (static_cast<int64_t>(actual) -
                                 (static_cast<uint32_t>(pred) & mask)) /
                                step;
              EncodeResidual(&enc, &model, &bits, r);
              return actual;
            });
        klass[s] = std::move(enc).Finish();
        raw[s] = std::move(bits).Take();
      },
      1);

  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  size_t archive_bytes = out.size() + 1 + 4;
  for (size_t s = 0; s < segments; ++s) {
    archive_bytes += 16 + klass[s].size() + raw[s].size();
  }
  out.reserve(archive_bytes);
  out.push_back(static_cast<uint8_t>(p));
  AppendUint32(&out, static_cast<uint32_t>(segments));
  for (size_t s = 0; s < segments; ++s) {
    AppendUint64(&out, klass[s].size());
    out.insert(out.end(), klass[s].begin(), klass[s].end());
    AppendUint64(&out, raw[s].size());
    out.insert(out.end(), raw[s].begin(), raw[s].end());
  }
  return out;
}

Status FpzipCompressor::DoDecompress(const uint8_t* data, size_t size,
                                     Tensor* out) const {
  ByteReader reader(data, size);
  uint32_t magic = 0;
  if (ByteReader(data, size).ReadU32(&magic) && magic == kSingleStreamMagic) {
    return Status::Corruption(
        "fpzip: FPZ1 archive; the single-stream format is no longer decoded, "
        "re-compress the source field");
  }
  std::vector<size_t> dims;
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&reader, kMagic, &dims));
  uint8_t precision = 0;
  if (!reader.ReadU8(&precision)) {
    return Status::Corruption("fpzip: short header");
  }
  const int p = precision;
  if (p < kMinPrecision || p > kMaxPrecision) {
    return Status::Corruption("fpzip: bad precision");
  }
  // The whole payload bounds the element count first; each segment's class
  // stream bounds its own elements below.
  uint64_t elements = 1;
  for (const size_t d : dims) elements *= d;  // ParseHeader caps at 2^33
  if (elements > MaxEncodableElements(reader.remaining())) {
    return Status::Corruption("fpzip: element count exceeds what the " +
                              std::to_string(reader.remaining()) +
                              "-byte payload can encode");
  }

  // Every segment's spans are validated against the payload, and its
  // element count against its class stream, before any allocation.
  const SliceLayout lay = MakeSliceLayout(dims);
  const size_t segments = SegmentCount(lay);
  uint32_t stored_segments = 0;
  if (!reader.ReadU32(&stored_segments)) {
    return Status::Corruption("fpzip: short header");
  }
  if (stored_segments != segments) {
    return Status::Corruption(
        "fpzip: " + std::to_string(stored_segments) +
        " segments where the shape implies " + std::to_string(segments));
  }
  SegmentSpans spans[kMaxSegments];
  for (size_t s = 0; s < segments; ++s) {
    SegmentSpans& span = spans[s];
    if (!reader.ReadLengthPrefixed(&span.klass, &span.klass_size) ||
        !reader.ReadLengthPrefixed(&span.raw, &span.raw_size)) {
      return Status::Corruption("fpzip: segment " + std::to_string(s) +
                                " overruns the payload");
    }
    const uint64_t planes = SegmentPlane(lay, segments, s + 1) -
                            SegmentPlane(lay, segments, s);
    if (planes * lay.plane_elems() > MaxEncodableElements(span.klass_size)) {
      return Status::Corruption(
          "fpzip: segment " + std::to_string(s) +
          " element count exceeds what its " +
          std::to_string(span.klass_size) + "-byte payload can encode");
    }
  }

  // Entropy-decode the segments in parallel, each residual into its slot
  // of `ordered` as the offset it adds to the truncated prediction. Every
  // slot is written by its segment's decode, and every output element by
  // the final conversion, so neither is zeroed first: their pages are
  // first touched by the parallel passes.
  Tensor result = Tensor::ForOverwrite(dims);
  OverwriteVector<uint32_t> ordered(result.size());
  std::vector<Status> segment_status(segments);
  ParallelFor(
      SharedThreadPool(), 0, segments,
      [&](size_t s) {
        const SegmentSpans& span = spans[s];
        ArithDecoder dec(span.klass, span.klass_size);
        BitReader bits(span.raw, span.raw_size);
        ResidualModel model;
        const size_t lo = SegmentPlane(lay, segments, s) * lay.plane_elems();
        const size_t hi =
            SegmentPlane(lay, segments, s + 1) * lay.plane_elems();
        for (size_t i = lo; i < hi; ++i) {
          if (!DecodeResidual(&dec, &model, &bits, p, &ordered[i])) {
            segment_status[s] = Status::Corruption("fpzip: bad residual class");
            return;
          }
        }
        if (dec.overrun() || bits.overrun()) {
          segment_status[s] = Status::Corruption("fpzip: bad residual stream");
        }
      },
      1);
  for (const Status& st : segment_status) FXRZ_RETURN_IF_ERROR(st);

  // Reconstruct in place in raster order: each point's offset becomes its
  // value once its backward neighbors are final. Arithmetic is modulo
  // 2^32, which for a valid stream is exact.
  const uint32_t mask = Truncate(0xFFFFFFFFu, p);
  ForEachLorenzoPoint(ordered.data(), lay, 0, lay.planes(),
                      [&](size_t i, int64_t pred) {
                        ordered[i] += static_cast<uint32_t>(pred) & mask;
                        return ordered[i];
                      });

  ParallelForBlocked(
      SharedThreadPool(), 0, result.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) result[i] = OrderedToFloat(ordered[i]);
      },
      size_t{1} << 16);
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
