#include "src/encoding/huffman.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <queue>
#include <unordered_map>

#include "src/encoding/bit_stream.h"
#include "src/util/byte_reader.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

constexpr size_t kMaxCodeLength = 48;

// Primary decode table: direct lookup on the next kTableBits bits of the
// stream. 2^11 entries keeps the table in L1 while still resolving the vast
// majority of real code lengths in one probe.
constexpr size_t kTableBits = 11;
constexpr size_t kTableSize = 1u << kTableBits;

// Parallel encoder work units; they depend only on the input's length and
// alphabet.
constexpr size_t kEncodeRange = size_t{1} << 16;  // symbols per encode range
constexpr size_t kHistogramUnits = 8;  // most partial histograms
constexpr size_t kMinHistogramUnit = size_t{1} << 16;
// Alphabets below kDenseLimit count and look up through dense tables,
// unless the input is too short to pay for zeroing them (more than
// kMaxBinsPerSymbol bins per input symbol).
constexpr size_t kDenseLimit = size_t{1} << 20;
constexpr size_t kMaxBinsPerSymbol = 16;

struct SymbolLength {
  uint32_t symbol;
  uint8_t length;
};

// Computes Huffman code lengths for (symbol, frequency) pairs. Frequencies
// are rescaled and the tree rebuilt if a pathological distribution exceeds
// kMaxCodeLength.
std::vector<SymbolLength> ComputeCodeLengths(
    std::vector<std::pair<uint32_t, uint64_t>> freqs) {
  FXRZ_CHECK(!freqs.empty());
  if (freqs.size() == 1) {
    return {{freqs[0].first, 1}};
  }

  for (;;) {
    // Build the tree with a min-heap over (freq, node id).
    struct Node {
      uint64_t freq;
      int left = -1, right = -1;
    };
    std::vector<Node> nodes;
    nodes.reserve(freqs.size() * 2);
    using HeapItem = std::pair<uint64_t, int>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    for (const auto& [sym, f] : freqs) {
      (void)sym;
      nodes.push_back({f});
      heap.emplace(f, static_cast<int>(nodes.size() - 1));
    }
    while (heap.size() > 1) {
      const auto [fa, a] = heap.top();
      heap.pop();
      const auto [fb, b] = heap.top();
      heap.pop();
      nodes.push_back({fa + fb, a, b});
      heap.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
    }

    // Depth-first traversal to assign lengths; leaves are the first
    // freqs.size() nodes in insertion order.
    std::vector<uint8_t> lengths(freqs.size(), 0);
    size_t max_len = 0;
    // Iterative DFS: (node, depth).
    std::vector<std::pair<int, uint8_t>> stack;
    stack.emplace_back(static_cast<int>(nodes.size() - 1), 0);
    while (!stack.empty()) {
      const auto [id, depth] = stack.back();
      stack.pop_back();
      const Node& nd = nodes[id];
      if (nd.left < 0) {
        lengths[id] = std::max<uint8_t>(depth, 1);
        max_len = std::max<size_t>(max_len, lengths[id]);
      } else {
        stack.emplace_back(nd.left, depth + 1);
        stack.emplace_back(nd.right, depth + 1);
      }
    }

    if (max_len <= kMaxCodeLength) {
      std::vector<SymbolLength> out(freqs.size());
      for (size_t i = 0; i < freqs.size(); ++i) {
        out[i] = {freqs[i].first, lengths[i]};
      }
      return out;
    }
    // Flatten the distribution and retry.
    for (auto& [sym, f] : freqs) {
      (void)sym;
      f = (f >> 1) + 1;
    }
  }
}

// Canonical code assignment: sort by (length, symbol) and hand out
// lexicographically increasing codes. Returns codes aligned with the sorted
// order; `sorted` is the sort of the input.
struct CanonicalTable {
  std::vector<SymbolLength> sorted;      // by (length, symbol)
  std::vector<uint64_t> codes;           // canonical code per sorted entry
  size_t max_length = 0;
};

CanonicalTable BuildCanonical(std::vector<SymbolLength> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SymbolLength& a, const SymbolLength& b) {
              if (a.length != b.length) return a.length < b.length;
              return a.symbol < b.symbol;
            });
  CanonicalTable t;
  t.codes.resize(entries.size());
  uint64_t code = 0;
  uint8_t prev_len = entries.empty() ? 0 : entries[0].length;
  for (size_t i = 0; i < entries.size(); ++i) {
    code <<= (entries[i].length - prev_len);
    t.codes[i] = code;
    ++code;
    prev_len = entries[i].length;
    t.max_length = std::max<size_t>(t.max_length, entries[i].length);
  }
  t.sorted = std::move(entries);
  return t;
}

// Reverses the low `len` bits of `v`. Canonical codes are MSB-first values;
// the bit stream is LSB-first, so codes are emitted (and looked up)
// bit-reversed.
uint64_t ReverseBits(uint64_t v, size_t len) {
  uint64_t r = 0;
  for (size_t i = 0; i < len; ++i) {
    r = (r << 1) | (v & 1u);
    v >>= 1;
  }
  return r;
}

// Canonical range arrays shared by the table fallback and the reference
// decoder.
struct CanonicalRanges {
  std::vector<uint64_t> first_code;
  std::vector<size_t> first_index;
  std::vector<size_t> count;
};

CanonicalRanges BuildRanges(const CanonicalTable& table) {
  CanonicalRanges r;
  r.first_code.assign(table.max_length + 2, 0);
  r.first_index.assign(table.max_length + 2, 0);
  r.count.assign(table.max_length + 2, 0);
  for (const SymbolLength& e : table.sorted) ++r.count[e.length];
  uint64_t code = 0;
  size_t index = 0;
  for (size_t len = 1; len <= table.max_length; ++len) {
    r.first_code[len] = code;
    r.first_index[len] = index;
    code = (code + r.count[len]) << 1;
    index += r.count[len];
  }
  return r;
}

// Parses and validates the shared stream header up to (but excluding) the
// payload. On success the canonical table is rebuilt from the stored
// (symbol, length) pairs.
Status ParseHeader(ByteReader* reader, uint64_t* num_symbols,
                   CanonicalTable* table) {
  uint32_t num_entries = 0;
  if (!reader->ReadU64(num_symbols) ||
      !reader->ReadCountU32(&num_entries, /*min_bytes_per_item=*/5)) {
    return Status::Corruption("huffman: short header");
  }
  if (*num_symbols == 0) return Status::Ok();
  if (num_entries == 0) return Status::Corruption("huffman: empty table");
  // Every symbol costs at least one payload bit, so a valid stream can
  // never claim more symbols than the bytes after the table could encode.
  // Rejecting here keeps a forged count from driving a huge allocation.
  if (*num_symbols > reader->remaining() * 8) {
    return Status::Corruption("huffman: implausible symbol count");
  }

  std::vector<SymbolLength> entries(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    if (!reader->ReadU32(&entries[i].symbol) ||
        !reader->ReadU8(&entries[i].length)) {
      return Status::Corruption("huffman: truncated table");
    }
    if (entries[i].length == 0 || entries[i].length > kMaxCodeLength) {
      return Status::Corruption("huffman: bad code length");
    }
  }
  *table = BuildCanonical(std::move(entries));

  // Kraft validation: an oversubscribed length profile cannot be a prefix
  // code; decoding it would alias distinct symbols onto the same bits.
  // (Undersubscribed tables are fine: unused codes simply never decode.)
  uint64_t kraft = 0;
  const uint64_t full = 1ull << table->max_length;
  for (const SymbolLength& e : table->sorted) {
    kraft += 1ull << (table->max_length - e.length);
    if (kraft > full) {
      return Status::Corruption("huffman: oversubscribed code table");
    }
  }
  return Status::Ok();
}

// Multi-range decoding (see huffman.h): streams of at least two
// kMinDecodeRangeBits-bit ranges are cut into at most kMaxDecodeRanges
// equal ranges, and each range but the first records the positions of its
// first kSyncMarks codeword boundaries for the resynchronization pass.
constexpr size_t kMinDecodeRangeBits = size_t{1} << 16;
constexpr size_t kMaxDecodeRanges = 64;
constexpr size_t kSyncMarks = 256;

// What a decode from an arbitrary bit position met, codeword by codeword,
// in the range [start, end) of the payload.
struct RangeScan {
  uint64_t count = 0;  // codewords that begin in [start, end)
  size_t exit = 0;     // the first codeword boundary at or after end
  std::vector<size_t> marks;  // the first boundaries, as offsets from start
  bool ok = false;  // false: an invalid or truncated code was met
};

// The decode side of one stream: the direct lookup table, the canonical
// ranges for codes longer than the table, and the payload.
class StreamDecoder {
 public:
  enum class Step : uint8_t { kOk, kInvalid, kTruncated };

  StreamDecoder(const CanonicalTable& table, const uint8_t* payload,
                size_t payload_bytes)
      : table_(table),
        ranges_(BuildRanges(table)),
        lut_(kTableSize),
        payload_(payload),
        payload_bytes_(payload_bytes) {
    // Short codes fill every slot sharing their reversed-bit prefix; slots
    // covered only by >kTableBits codes get the sentinel kLongCode; slots
    // no code reaches stay invalid (len 0).
    for (size_t i = 0; i < table.sorted.size(); ++i) {
      const uint8_t len = table.sorted[i].length;
      if (len <= kTableBits) {
        const uint64_t rev = ReverseBits(table.codes[i], len);
        for (size_t j = rev; j < kTableSize; j += (1u << len)) {
          lut_[j] = {table.sorted[i].symbol, len};
        }
      } else {
        // Mark the slot for the code's first kTableBits bits as "long".
        const uint64_t prefix = table.codes[i] >> (len - kTableBits);
        lut_[ReverseBits(prefix, kTableBits)].len = kLongCode;
      }
    }
    // Dominant-symbol fast path: the first canonical entry has the
    // shortest code, which is always the all-zero code, so a run of k
    // dominant symbols is k * len zero bits.
    dom_symbol_ = table.sorted[0].symbol;
    dom_len_ = table.sorted[0].length;
    dom_mask_ = (uint64_t{1} << dom_len_) - 1;
    for (size_t zeros = 0; zeros <= BitReader::kPeekMax; ++zeros) {
      run_length_[zeros] = static_cast<uint8_t>(zeros / dom_len_);
    }
  }

  size_t total_bits() const { return payload_bytes_ * 8; }

  BitReader ReaderAt(size_t bit) const {
    BitReader br(payload_, payload_bytes_);
    br.Advance(bit);
    return br;
  }

  // Decodes `count` symbols from br's position into dst.
  Status Decode(BitReader* br, uint64_t count, uint32_t* dst) const {
    uint64_t produced = 0;
    while (produced < count) {
      const uint64_t window = br->PeekBits(BitReader::kPeekMax);
      const uint64_t run =
          std::min<uint64_t>(Run(*br, window), count - produced);
      if (run > 0) {
        std::fill_n(dst + produced, run, dom_symbol_);
        produced += run;
        br->Advance(run * dom_len_);
        continue;
      }
      const Step step = DecodeOne(br, window, dst + produced);
      if (step == Step::kInvalid) {
        return Status::Corruption("huffman: invalid code");
      }
      if (step == Step::kTruncated) {
        return Status::Corruption("huffman: truncated code stream");
      }
      ++produced;
    }
    return Status::Ok();
  }

  // Decodes from `start`, whether or not a codeword begins there, counting
  // the codewords that begin before `end` and recording the first
  // `max_marks` boundaries.
  void Scan(size_t start, size_t end, size_t max_marks,
            RangeScan* scan) const {
    BitReader br = ReaderAt(start);
    uint64_t count = 0;
    uint32_t symbol = 0;
    scan->marks.clear();
    scan->ok = false;
    while (br.position() < end && scan->marks.size() < max_marks) {
      scan->marks.push_back(br.position() - start);
      if (DecodeOne(&br, br.PeekBits(BitReader::kPeekMax), &symbol) !=
          Step::kOk) {
        return;
      }
      ++count;
    }
    while (br.position() < end) {
      const uint64_t window = br.PeekBits(BitReader::kPeekMax);
      // A run counts only the dominant codewords that begin before end.
      const uint64_t run = std::min<uint64_t>(
          Run(br, window), (end - br.position() + dom_len_ - 1) / dom_len_);
      if (run > 0) {
        count += run;
        br.Advance(run * dom_len_);
        continue;
      }
      if (DecodeOne(&br, window, &symbol) != Step::kOk) return;
      ++count;
    }
    scan->count = count;
    scan->exit = br.position();
    scan->ok = true;
  }

  // Re-anchors `scan`, taken from `start`, at the range's true entry: walks
  // codewords from `entry` until one begins at a boundary the scan
  // recorded, from where the scan's codewords are the stream's, and
  // corrects the count. A walk that passes every recorded boundary decodes
  // the rest of the range afresh. Returns false on an invalid or truncated
  // code.
  bool Resync(size_t entry, size_t start, size_t end, RangeScan* scan) const {
    BitReader br = ReaderAt(entry);
    uint64_t walked = 0;
    uint32_t symbol = 0;
    size_t j = 0;
    while (br.position() < end) {
      const size_t at = br.position() - start;
      while (j < scan->marks.size() && scan->marks[j] < at) ++j;
      if (j < scan->marks.size() && scan->marks[j] == at) {
        scan->count = scan->count - j + walked;
        return true;
      }
      if (j == scan->marks.size() && scan->count > j) {
        RangeScan rest;
        Scan(br.position(), end, 0, &rest);
        if (!rest.ok) return false;
        scan->count = walked + rest.count;
        scan->exit = rest.exit;
        return true;
      }
      if (DecodeOne(&br, br.PeekBits(BitReader::kPeekMax), &symbol) !=
          Step::kOk) {
        return false;
      }
      ++walked;
    }
    scan->count = walked;
    scan->exit = br.position();
    return true;
  }

 private:
  static constexpr uint8_t kLongCode = 0xFF;
  struct TableEntry {
    uint32_t symbol = 0;
    uint8_t len = 0;
  };

  // The number of whole dominant codewords that begin at br's position
  // and end inside the payload; `window` is PeekBits(kPeekMax) there.
  size_t Run(const BitReader& br, uint64_t window) const {
    if ((window & dom_mask_) != 0) return 0;
    const size_t zeros =
        window == 0 ? BitReader::kPeekMax
                    : static_cast<size_t>(std::countr_zero(window));
    return run_length_[std::min(zeros, br.bits_remaining())];
  }

  // Decodes the codeword at br's position into *symbol; `window` is
  // PeekBits(kPeekMax) there.
  Step DecodeOne(BitReader* br, uint64_t window, uint32_t* symbol) const {
    const TableEntry e = lut_[window & (kTableSize - 1)];
    if (e.len == 0) return Step::kInvalid;
    if (e.len != kLongCode) {
      if (e.len > br->bits_remaining()) return Step::kTruncated;
      br->Advance(e.len);
      *symbol = e.symbol;
      return Step::kOk;
    }
    // Long-code fallback: walk the canonical ranges beyond kTableBits.
    uint64_t code = 0;
    for (size_t len = 1; len <= table_.max_length; ++len) {
      code = (code << 1) | ((window >> (len - 1)) & 1u);
      if (len <= kTableBits) continue;
      if (ranges_.count[len] > 0 && code >= ranges_.first_code[len] &&
          code < ranges_.first_code[len] + ranges_.count[len]) {
        if (len > br->bits_remaining()) return Step::kTruncated;
        const size_t idx =
            ranges_.first_index[len] + (code - ranges_.first_code[len]);
        br->Advance(len);
        *symbol = table_.sorted[idx].symbol;
        return Step::kOk;
      }
    }
    return Step::kInvalid;
  }

  const CanonicalTable& table_;
  const CanonicalRanges ranges_;
  std::vector<TableEntry> lut_;
  const uint8_t* payload_;
  size_t payload_bytes_;
  uint32_t dom_symbol_ = 0;
  size_t dom_len_ = 0;
  uint64_t dom_mask_ = 0;  // the dominant code's bits
  uint8_t run_length_[BitReader::kPeekMax + 1] = {};  // zeros -> codewords
};

// Decodes `num_symbols` symbols into dst in `ranges` ranges (see
// huffman.h). Returns false, with dst partly written, on any anomaly: the
// caller then decodes the stream as one range, which reports its Status.
bool DecodeRanges(const StreamDecoder& decoder, size_t ranges,
                  uint64_t num_symbols, uint32_t* dst) {
  ThreadPool* pool = SharedThreadPool();
  const size_t width = decoder.total_bits() / ranges;
  auto range_end = [&](size_t k) {
    return k + 1 == ranges ? decoder.total_bits() : (k + 1) * width;
  };

  // Pass 1: every range but the last decodes from its start, counting.
  // The marks are allocated here, so pool threads' malloc arenas keep
  // nothing.
  std::vector<RangeScan> scans(ranges - 1);
  for (size_t k = 1; k < scans.size(); ++k) scans[k].marks.reserve(kSyncMarks);
  ParallelFor(
      pool, 0, ranges - 1,
      [&](size_t k) {
        decoder.Scan(k * width, range_end(k), k == 0 ? 0 : kSyncMarks,
                     &scans[k]);
      },
      1);

  // Pass 2: each range's true entry is the previous range's true exit;
  // range 0 starts at bit 0. The last range takes whatever symbols remain.
  std::vector<size_t> entry(ranges, 0);
  std::vector<uint64_t> first(ranges + 1, 0);
  for (size_t k = 0; k + 1 < ranges; ++k) {
    RangeScan& scan = scans[k];
    if (!scan.ok) return false;
    if (k > 0 && !decoder.Resync(entry[k], k * width, range_end(k), &scan)) {
      return false;
    }
    entry[k + 1] = scan.exit;
    first[k + 1] = first[k] + scan.count;
    if (first[k + 1] > num_symbols) return false;
  }
  first[ranges] = num_symbols;

  // Pass 3: every range decodes into its slot of dst.
  std::vector<uint8_t> ok(ranges, 0);
  ParallelFor(
      pool, 0, ranges,
      [&](size_t k) {
        BitReader br = decoder.ReaderAt(entry[k]);
        ok[k] = decoder.Decode(&br, first[k + 1] - first[k], dst + first[k])
                    .ok();
      },
      1);
  return std::all_of(ok.begin(), ok.end(), [](uint8_t b) { return b != 0; });
}

// A stream parsed up to its payload.
struct ParsedStream {
  uint64_t num_symbols = 0;
  CanonicalTable table;
  const uint8_t* payload = nullptr;  // unset when num_symbols is 0
  size_t payload_bytes = 0;
};

Status ParseStream(const uint8_t* data, size_t size, ParsedStream* stream) {
  ByteReader reader(data, size);
  FXRZ_RETURN_IF_ERROR(
      ParseHeader(&reader, &stream->num_symbols, &stream->table));
  if (stream->num_symbols == 0) return Status::Ok();
  if (!reader.ReadLengthPrefixed(&stream->payload, &stream->payload_bytes)) {
    return Status::Corruption("huffman: truncated payload");
  }
  if (stream->num_symbols > stream->payload_bytes * 8) {
    return Status::Corruption("huffman: implausible symbol count");
  }
  return Status::Ok();
}

// The number of ranges a stream's payload decodes in; it depends only on
// the payload's size.
size_t RangeCount(const ParsedStream& stream) {
  const size_t ranges = std::min(
      kMaxDecodeRanges, stream.payload_bytes * 8 / kMinDecodeRangeBits);
  return std::max<size_t>(ranges, 1);
}

// Decodes a parsed stream into dst, which holds num_symbols elements, in
// `ranges` ranges (1: on the calling thread). With `fallback`, a
// multi-range decode that meets an anomaly decodes the stream again as one
// range.
Status DecodeStream(const ParsedStream& stream, size_t ranges, bool fallback,
                    uint32_t* dst) {
  if (stream.num_symbols == 0) return Status::Ok();
  const StreamDecoder decoder(stream.table, stream.payload,
                              stream.payload_bytes);
  if (ranges >= 2) {
    if (DecodeRanges(decoder, ranges, stream.num_symbols, dst)) {
      return Status::Ok();
    }
    if (!fallback) {
      return Status::Internal("huffman: multi-range decode fell back");
    }
  }
  BitReader br = decoder.ReaderAt(0);
  return decoder.Decode(&br, stream.num_symbols, dst);
}

// Parses the stream, sizes *out for its symbols and decodes into it in
// `ranges` ranges (0: RangeCount's). *out is empty on any error. Only this
// wrapper is instantiated per vector type; the decode runs through dst.
template <typename Vector>
Status DecodeInto(const uint8_t* data, size_t size, size_t ranges,
                  bool fallback, Vector* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ParsedStream stream;
  FXRZ_RETURN_IF_ERROR(ParseStream(data, size, &stream));
  out->resize(stream.num_symbols);
  const Status status =
      DecodeStream(stream, ranges == 0 ? RangeCount(stream) : ranges,
                   fallback, out->data());
  if (!status.ok()) out->clear();
  return status;
}

}  // namespace

std::vector<uint8_t> HuffmanEncode(std::span<const uint32_t> symbols) {
  std::vector<uint8_t> out;
  AppendUint64(&out, symbols.size());
  if (symbols.empty()) {
    AppendUint32(&out, 0);  // zero table entries
    return out;
  }

  ThreadPool* pool = SharedThreadPool();
  const size_t n = symbols.size();
  const uint32_t* sym = symbols.data();
  const size_t ranges = (n + kEncodeRange - 1) / kEncodeRange;
  std::vector<uint32_t> range_max(ranges, 0);
  ParallelFor(
      pool, 0, ranges,
      [&](size_t r) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        range_max[r] = *std::max_element(sym + lo, sym + hi);
      },
      1);
  const uint32_t max_symbol =
      *std::max_element(range_max.begin(), range_max.end());

  // Frequencies sorted by symbol. Compact alphabets (the quantization-code
  // case) count into per-unit dense histograms, merged in unit order; other
  // inputs count into a hash map.
  std::vector<std::pair<uint32_t, uint64_t>> freqs;
  const bool use_dense =
      max_symbol < kDenseLimit && max_symbol / kMaxBinsPerSymbol < n;
  if (use_dense) {
    const size_t bins = static_cast<size_t>(max_symbol) + 1;
    // At most kHistogramUnits units, each at least eight symbols per bin,
    // so the partial histograms never outweigh the input.
    const size_t unit_len =
        std::max({kMinHistogramUnit, 8 * bins,
                  (n + kHistogramUnits - 1) / kHistogramUnits});
    const size_t units = (n + unit_len - 1) / unit_len;
    // One block on the calling thread holds every partial histogram.
    std::vector<uint64_t> partial(units * bins, 0);
    ParallelFor(
        pool, 0, units,
        [&](size_t u) {
          uint64_t* h = partial.data() + u * bins;
          const size_t lo = u * unit_len, hi = std::min(n, lo + unit_len);
          for (size_t i = lo; i < hi; ++i) ++h[sym[i]];
        },
        1);
    for (size_t u = 1; u < units; ++u) {
      for (size_t b = 0; b < bins; ++b) partial[b] += partial[u * bins + b];
    }
    for (size_t b = 0; b < bins; ++b) {
      if (partial[b] != 0) {
        freqs.emplace_back(static_cast<uint32_t>(b), partial[b]);
      }
    }
  } else {
    std::unordered_map<uint32_t, uint64_t> freq_map;
    for (uint32_t s : symbols) ++freq_map[s];
    freqs.assign(freq_map.begin(), freq_map.end());
    std::sort(freqs.begin(), freqs.end());
  }

  const CanonicalTable table = BuildCanonical(ComputeCodeLengths(freqs));

  // Header: entry count, then (symbol: u32, length: u8) pairs.
  AppendUint32(&out, static_cast<uint32_t>(table.sorted.size()));
  for (const SymbolLength& e : table.sorted) {
    AppendUint32(&out, e.symbol);
    out.push_back(e.length);
  }

  // Symbol -> (bit-reversed code | length << 56) lookup: direct-index for
  // compact alphabets, hash map otherwise.
  constexpr uint64_t kLenShift = 56;
  std::vector<uint64_t> dense;
  std::unordered_map<uint32_t, uint64_t> sparse;
  if (use_dense) {
    dense.assign(static_cast<size_t>(max_symbol) + 1, 0);
  } else {
    sparse.reserve(table.sorted.size() * 2);
  }
  for (size_t i = 0; i < table.sorted.size(); ++i) {
    const uint8_t len = table.sorted[i].length;
    const uint64_t packed = ReverseBits(table.codes[i], len) |
                            (static_cast<uint64_t>(len) << kLenShift);
    if (use_dense) {
      dense[table.sorted[i].symbol] = packed;
    } else {
      sparse[table.sorted[i].symbol] = packed;
    }
  }

  // Fixed-size symbol ranges encode in parallel straight into the payload:
  // a first pass sums each range's code lengths, so every range knows the
  // bit offset it starts at, and the second writes the codes.
  auto packed_code = [&](uint32_t s) {
    return use_dense ? dense[s] : sparse.at(s);
  };
  std::vector<size_t> range_bits(ranges, 0);
  ParallelFor(
      pool, 0, ranges,
      [&](size_t r) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        size_t bits = 0;
        for (size_t i = lo; i < hi; ++i) {
          bits += packed_code(sym[i]) >> kLenShift;
        }
        range_bits[r] = bits;
      },
      1);
  AppendBitRanges(
      range_bits,
      [&](size_t r, RangeBitWriter* w) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        for (size_t i = lo; i < hi; ++i) {
          const uint64_t packed = packed_code(sym[i]);
          w->WriteBits(packed & ((uint64_t{1} << kLenShift) - 1),
                       static_cast<size_t>(packed >> kLenShift));
        }
      },
      &out);
  return out;
}

Status HuffmanDecode(const uint8_t* data, size_t size,
                     std::vector<uint32_t>* out) {
  return DecodeInto(data, size, 0, /*fallback=*/true, out);
}

Status HuffmanDecode(const uint8_t* data, size_t size,
                     OverwriteVector<uint32_t>* out) {
  return DecodeInto(data, size, 0, /*fallback=*/true, out);
}

namespace huffman_internal {

Status DecodeReference(const uint8_t* data, size_t size,
                       std::vector<uint32_t>* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ParsedStream stream;
  FXRZ_RETURN_IF_ERROR(ParseStream(data, size, &stream));
  if (stream.num_symbols == 0) return Status::Ok();
  const CanonicalTable& table = stream.table;
  const CanonicalRanges ranges = BuildRanges(table);
  BitReader br(stream.payload, stream.payload_bytes);

  out->reserve(stream.num_symbols);
  for (uint64_t i = 0; i < stream.num_symbols; ++i) {
    uint64_t code = 0;
    size_t len = 0;
    for (;;) {
      uint32_t bit = 0;
      if (!br.ReadBitChecked(&bit)) {
        return Status::Corruption("huffman: truncated code stream");
      }
      code = (code << 1) | bit;
      ++len;
      if (len > table.max_length) {
        return Status::Corruption("huffman: invalid code");
      }
      if (ranges.count[len] > 0 && code < ranges.first_code[len] + ranges.count[len] &&
          code >= ranges.first_code[len]) {
        const size_t idx = ranges.first_index[len] + (code - ranges.first_code[len]);
        out->push_back(table.sorted[idx].symbol);
        break;
      }
    }
  }
  return Status::Ok();
}

Status DecodeInRanges(const uint8_t* data, size_t size, size_t ranges,
                      std::vector<uint32_t>* out) {
  FXRZ_CHECK(ranges >= 1);
  return DecodeInto(data, size, ranges, /*fallback=*/false, out);
}

size_t DecodeRangeCount(const uint8_t* data, size_t size) {
  ParsedStream stream;
  return ParseStream(data, size, &stream).ok() ? RangeCount(stream) : 0;
}

}  // namespace huffman_internal

}  // namespace fxrz
