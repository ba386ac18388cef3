#include "src/compressors/chunked.h"

#include <algorithm>
#include <cstring>

#include "src/encoding/bit_stream.h"
#include "src/util/check.h"
#include "src/util/checksum.h"
#include "src/util/metrics.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace fxrz {

namespace {

// Archive verify outcomes: the guard's checksum-only tier and fxrz_verify
// both land here, so pass/fail counts show how often at-rest corruption is
// actually being caught.
metrics::Counter& VerifyChecks() {
  static metrics::Counter& c = metrics::GetCounter(
      "fxrz_chunked_verify_total",
      "Chunked-archive integrity verifications (index + per-chunk CRCs)");
  return c;
}

metrics::Counter& VerifyFailures() {
  static metrics::Counter& c = metrics::GetCounter(
      "fxrz_chunked_verify_failures_total",
      "Chunked-archive integrity verifications that found corruption");
  return c;
}

constexpr uint32_t kMagic = 0x43484B32;  // "CHK2": checksummed TOC

// Byte extent of one chunk's payload inside the archive, plus its
// integrity metadata.
struct ChunkSpan {
  size_t offset = 0;  // first payload byte
  size_t size = 0;
  uint32_t rows = 0;  // slab extent along dim 0
  uint32_t crc = 0;
};

struct ChunkIndex {
  std::vector<size_t> dims;
  std::vector<ChunkSpan> spans;
};

// Walks the archive once, validating framing and collecting every chunk's
// payload span. Every span is validated against the archive extent before
// any chunk decode is dispatched: spans are carved sequentially from the
// remaining bytes, so they can neither overlap, escape the archive, nor
// leave trailing bytes.
//
// The archive frames a table of contents first -- `u64 size | u32 rows |
// u32 crc` per chunk, sealed by a CRC32C over header+TOC -- then the
// payloads, so index corruption is detected directly rather than inferred
// from framing drift, and decode can cross-check each slab's row count
// against the index.
Status ParseChunkIndex(const uint8_t* data, size_t size, ChunkIndex* index) {
  if (size < 4) return Status::Corruption("chunked: short archive");
  if (ReadUint32(data) != kMagic) {
    return Status::Corruption("chunked: bad magic");
  }

  ByteReader reader(data, size);
  FXRZ_RETURN_IF_ERROR(
      compressor_internal::ParseHeader(&reader, kMagic, &index->dims));
  // Each chunk costs at least its 16-byte TOC entry, which bounds how many
  // chunks the remaining bytes can hold -- reject forged counts before the
  // reserve below allocates for them.
  uint32_t num_chunks = 0;
  if (!reader.ReadCountU32(&num_chunks, /*min_bytes_per_item=*/16)) {
    return Status::Corruption("chunked: bad chunk count");
  }
  index->spans.clear();
  index->spans.reserve(num_chunks);
  for (uint32_t c = 0; c < num_chunks; ++c) {
    ChunkSpan span;
    uint64_t chunk_size = 0;
    if (!reader.ReadU64(&chunk_size) || !reader.ReadU32(&span.rows) ||
        !reader.ReadU32(&span.crc)) {
      return Status::Corruption("chunked: truncated index");
    }
    span.size = static_cast<size_t>(chunk_size);
    index->spans.push_back(span);
  }
  const size_t toc_end = reader.position();
  uint32_t index_crc = 0;
  if (!reader.ReadU32(&index_crc)) {
    return Status::Corruption("chunked: truncated index checksum");
  }
  if (!Crc32cMatches(data, toc_end, index_crc)) {
    return Status::Corruption("chunked: index checksum mismatch");
  }
  for (ChunkSpan& span : index->spans) {
    const uint8_t* payload = nullptr;
    if (!reader.ReadSpan(span.size, &payload)) {
      return Status::Corruption("chunked: truncated chunk");
    }
    span.offset = static_cast<size_t>(payload - data);
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("chunked: trailing bytes after last chunk");
  }
  return Status::Ok();
}

Status ChunkChecksumStatus(const uint8_t* data, const ChunkSpan& span,
                           size_t chunk) {
  if (Crc32cMatches(data + span.offset, span.size, span.crc)) {
    return Status::Ok();
  }
  return Status::Corruption("chunked: checksum mismatch in chunk " +
                            std::to_string(chunk));
}

}  // namespace

ChunkedCompressor::ChunkedCompressor(std::unique_ptr<Compressor> base,
                                     size_t target_chunk_elems)
    : base_(std::move(base)), target_chunk_elems_(target_chunk_elems) {
  FXRZ_CHECK(base_ != nullptr);
  FXRZ_CHECK_GT(target_chunk_elems_, 0u);
}

StatusOr<std::vector<uint8_t>> ChunkedCompressor::DoCompress(
    const Tensor& data, double config) const {
  const size_t row_elems = data.size() / data.dim(0);
  const size_t rows_per_chunk =
      std::max<size_t>(1, target_chunk_elems_ / row_elems);
  const size_t num_chunks =
      (data.dim(0) + rows_per_chunk - 1) / rows_per_chunk;

  // Compress every chunk into its own buffer, then concatenate in chunk
  // order -- the archive is byte-identical at any thread count.
  std::vector<std::vector<uint8_t>> chunks(num_chunks);
  std::vector<Status> statuses(num_chunks, Status::Ok());
  std::vector<uint32_t> chunk_rows(num_chunks);
  auto compress_chunk = [&](size_t c) {
    const size_t row_lo = c * rows_per_chunk;
    const size_t rows = std::min(rows_per_chunk, data.dim(0) - row_lo);
    chunk_rows[c] = static_cast<uint32_t>(rows);
    std::vector<size_t> slab_dims = data.dims();
    slab_dims[0] = rows;
    Tensor slab = Tensor::ForOverwrite(std::move(slab_dims));
    std::memcpy(slab.data(), data.data() + row_lo * row_elems,
                slab.size_bytes());
    StatusOr<std::vector<uint8_t>> chunk = base_->Compress(slab, config);
    if (chunk.ok()) {
      chunks[c] = std::move(chunk).value();
    } else {
      statuses[c] = chunk.status();
    }
  };
  ParallelFor(SharedThreadPool(), 0, num_chunks, compress_chunk, /*grain=*/1);

  std::vector<uint8_t> out;
  compressor_internal::AppendHeader(&out, kMagic, data);
  AppendUint32(&out, static_cast<uint32_t>(num_chunks));
  for (size_t c = 0; c < num_chunks; ++c) {
    FXRZ_RETURN_IF_ERROR(statuses[c]);
    AppendUint64(&out, chunks[c].size());
    AppendUint32(&out, chunk_rows[c]);
    AppendUint32(&out, Crc32c::Compute(chunks[c].data(), chunks[c].size()));
  }
  // Seal the header+TOC so index corruption is detected directly.
  AppendUint32(&out, Crc32c::Compute(out.data(), out.size()));
  for (const std::vector<uint8_t>& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

Status ChunkedCompressor::VerifyIntegrity(const uint8_t* data,
                                          size_t size) const {
  FXRZ_TRACE_SPAN("chunked.verify");
  VerifyChecks().Increment();
  const Status status = [&]() -> Status {
    ChunkIndex index;
    FXRZ_RETURN_IF_ERROR(ParseChunkIndex(data, size, &index));
    for (size_t c = 0; c < index.spans.size(); ++c) {
      FXRZ_RETURN_IF_ERROR(ChunkChecksumStatus(data, index.spans[c], c));
    }
    return Status::Ok();
  }();
  if (!status.ok()) VerifyFailures().Increment();
  return status;
}

Status ChunkedCompressor::DoDecompress(const uint8_t* data, size_t size,
                                       Tensor* out) const {
  ChunkIndex index;
  FXRZ_RETURN_IF_ERROR(ParseChunkIndex(data, size, &index));
  const std::vector<ChunkSpan>& spans = index.spans;
  if (spans.empty()) return Status::Corruption("chunked: no chunks");

  // Phase 1: decompress every chunk (independently, in parallel), each
  // checksum-verified *before* its payload reaches the entropy decoder.
  // Slab row counts are only known from each chunk's own header, so
  // placement into the output waits for phase 2.
  std::vector<Tensor> slabs(spans.size());
  std::vector<Status> statuses(spans.size(), Status::Ok());
  auto decompress_chunk = [&](size_t c) {
    statuses[c] = ChunkChecksumStatus(data, spans[c], c);
    if (!statuses[c].ok()) return;
    statuses[c] =
        base_->Decompress(data + spans[c].offset, spans[c].size, &slabs[c]);
  };
  ParallelFor(SharedThreadPool(), 0, spans.size(), decompress_chunk,
              /*grain=*/1);

  // Phase 2: validate shapes in chunk order and stitch the slabs together;
  // every row is copied from its slab, or the decode fails.
  Tensor result = Tensor::ForOverwrite(index.dims);
  const size_t row_elems = result.size() / result.dim(0);
  size_t row = 0;
  for (size_t c = 0; c < slabs.size(); ++c) {
    FXRZ_RETURN_IF_ERROR(statuses[c]);
    const Tensor& slab = slabs[c];
    if (slab.rank() != result.rank() || row + slab.dim(0) > result.dim(0)) {
      return Status::Corruption("chunked: slab shape mismatch");
    }
    if (slab.dim(0) != spans[c].rows) {
      return Status::Corruption("chunked: slab row count disagrees with index");
    }
    for (size_t d = 1; d < result.rank(); ++d) {
      if (slab.dim(d) != result.dim(d)) {
        return Status::Corruption("chunked: slab shape mismatch");
      }
    }
    std::memcpy(result.data() + row * row_elems, slab.data(),
                slab.size() * sizeof(float));
    row += slab.dim(0);
  }
  if (row != result.dim(0)) return Status::Corruption("chunked: missing rows");
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace fxrz
