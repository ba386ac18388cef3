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

// A run-coded stream writes a run of the dominant symbol as at most this
// many digits: a run of up to 2^49 - 2 symbols, far beyond any tensor.
constexpr size_t kMaxRunDigits = 48;

struct SymbolLength {
  uint32_t symbol;
  uint8_t length;
  uint8_t digit = 0;  // 0: a symbol; 1 (RUNA) or 2 (RUNB): a run digit
};

// Computes Huffman code lengths for the given frequencies, in their order.
// Frequencies are rescaled and the tree rebuilt if a pathological
// distribution exceeds kMaxCodeLength.
std::vector<uint8_t> ComputeCodeLengths(std::vector<uint64_t> freqs) {
  FXRZ_CHECK(!freqs.empty());
  if (freqs.size() == 1) return {1};

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
    for (const uint64_t f : freqs) {
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

    if (max_len <= kMaxCodeLength) return lengths;
    // Flatten the distribution and retry.
    for (uint64_t& f : freqs) f = (f >> 1) + 1;
  }
}

// Canonical code assignment: sort by (length, digit, symbol) and hand out
// lexicographically increasing codes. Returns codes aligned with the sorted
// order; `sorted` is the sort of the input.
struct CanonicalTable {
  std::vector<SymbolLength> sorted;      // by (length, digit, symbol)
  std::vector<uint64_t> codes;           // canonical code per sorted entry
  size_t max_length = 0;
};

CanonicalTable BuildCanonical(std::vector<SymbolLength> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SymbolLength& a, const SymbolLength& b) {
              if (a.length != b.length) return a.length < b.length;
              if (a.digit != b.digit) return a.digit < b.digit;
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

// How a stream codes its dominant symbol: a plain stream (HuffmanEncode)
// as any other symbol, a run-coded one (HuffmanEncodeRuns) in runs of
// RUNA/RUNB digits. A plain stream bounds its symbol count by its payload
// (a symbol costs at least one bit); a run-coded one cannot, so its caller
// bounds it.
struct Format {
  bool runs = false;
  uint64_t min_symbols = 0;  // run-coded streams only
  uint64_t max_symbols = 0;
};

// A stream parsed up to its payload.
struct ParsedStream {
  uint64_t num_symbols = 0;
  uint32_t dominant = 0;  // the symbol a run repeats
  CanonicalTable table;
  const uint8_t* payload = nullptr;  // unset when num_symbols is 0
  size_t payload_bits = 0;
};

// Parses and validates a stream's header and payload framing. The plain
// header is `u64 count | u32 entries | (u32 symbol, u8 length)*`; the
// run-coded one is `u64 count | u32 dominant | u8 RUNA length | u8 RUNB
// length | u32 entries | (u32 symbol, u8 length)* | u8 padding bits`,
// where a digit of length 0 does not occur. Both end in `u64 payload bytes
// | payload`. A count of 0 ends a run-coded stream.
Status ParseStream(const uint8_t* data, size_t size, const Format& format,
                   ParsedStream* stream) {
  ByteReader reader(data, size);
  uint64_t& num_symbols = stream->num_symbols;
  uint32_t num_entries = 0;
  std::vector<SymbolLength> entries;
  if (format.runs) {
    uint8_t digit_length[2] = {0, 0};
    if (!reader.ReadU64(&num_symbols)) {
      return Status::Corruption("huffman: short header");
    }
    if (num_symbols < format.min_symbols ||
        num_symbols > format.max_symbols) {
      return Status::Corruption("huffman: implausible symbol count");
    }
    if (num_symbols == 0) return Status::Ok();
    if (!reader.ReadU32(&stream->dominant) ||
        !reader.ReadU8(&digit_length[0]) || !reader.ReadU8(&digit_length[1]) ||
        !reader.ReadCountU32(&num_entries, /*min_bytes_per_item=*/5)) {
      return Status::Corruption("huffman: short header");
    }
    for (uint8_t digit = 1; digit <= 2; ++digit) {
      const uint8_t length = digit_length[digit - 1];
      if (length > kMaxCodeLength) {
        return Status::Corruption("huffman: bad code length");
      }
      if (length != 0) entries.push_back({stream->dominant, length, digit});
    }
  } else {
    if (!reader.ReadU64(&num_symbols) ||
        !reader.ReadCountU32(&num_entries, /*min_bytes_per_item=*/5)) {
      return Status::Corruption("huffman: short header");
    }
    if (num_symbols == 0) return Status::Ok();
    if (num_entries == 0) return Status::Corruption("huffman: empty table");
    // Every symbol costs at least one payload bit, so a valid stream can
    // never claim more symbols than the bytes after the table could
    // encode. Rejecting here keeps a forged count from driving a huge
    // allocation.
    if (num_symbols > reader.remaining() * 8) {
      return Status::Corruption("huffman: implausible symbol count");
    }
  }

  for (uint32_t i = 0; i < num_entries; ++i) {
    SymbolLength e{};
    if (!reader.ReadU32(&e.symbol) || !reader.ReadU8(&e.length)) {
      return Status::Corruption("huffman: truncated table");
    }
    if (e.length == 0 || e.length > kMaxCodeLength) {
      return Status::Corruption("huffman: bad code length");
    }
    entries.push_back(e);
  }
  if (entries.empty()) return Status::Corruption("huffman: empty table");
  CanonicalTable& table = stream->table;
  table = BuildCanonical(std::move(entries));

  // Kraft validation: an oversubscribed length profile cannot be a prefix
  // code; decoding it would alias distinct symbols onto the same bits.
  // (Undersubscribed tables are fine: unused codes simply never decode.)
  uint64_t kraft = 0;
  const uint64_t full = 1ull << table.max_length;
  for (const SymbolLength& e : table.sorted) {
    kraft += 1ull << (table.max_length - e.length);
    if (kraft > full) {
      return Status::Corruption("huffman: oversubscribed code table");
    }
  }

  uint8_t padding = 0;
  size_t payload_bytes = 0;
  if (format.runs && !reader.ReadU8(&padding)) {
    return Status::Corruption("huffman: truncated payload");
  }
  if (!reader.ReadLengthPrefixed(&stream->payload, &payload_bytes)) {
    return Status::Corruption("huffman: truncated payload");
  }
  if (padding > 7 || (padding != 0 && payload_bytes == 0)) {
    return Status::Corruption("huffman: bad padding");
  }
  stream->payload_bits = payload_bytes * 8 - padding;
  if (!format.runs && num_symbols > stream->payload_bits) {
    return Status::Corruption("huffman: implausible symbol count");
  }
  return Status::Ok();
}

// Multi-range decoding (see huffman.h): streams of at least two
// kMinDecodeRangeBits-bit ranges are cut into at most kMaxDecodeRanges
// equal ranges, and each range but the first records the positions of its
// first kSyncMarks symbol codewords for the resynchronization pass.
constexpr size_t kMinDecodeRangeBits = size_t{1} << 16;
constexpr size_t kMaxDecodeRanges = 64;
constexpr size_t kSyncMarks = 256;

// A symbol codeword's start, as an offset from where a scan began, and
// the symbols the scan had counted before it.
struct SyncMark {
  size_t offset = 0;
  uint64_t count = 0;
};

// What a decode from an arbitrary bit position met, codeword by codeword,
// in the range [start, end) of the payload.
struct RangeScan {
  uint64_t count = 0;  // symbols of the codewords that begin in [start, end)
  size_t exit = 0;     // the first boundary at or after end past any run
  std::vector<SyncMark> marks;  // the first symbol codewords
  bool ok = false;  // false: an invalid or truncated code, or too many symbols
};

// The length of a run, read one RUNA/RUNB digit at a time.
struct RunLength {
  uint64_t length = 0;
  size_t digits = 0;

  // Adds the next digit (1 or 2); false past kMaxRunDigits digits.
  [[nodiscard]] bool Add(uint8_t digit) {
    if (digits == kMaxRunDigits) return false;
    length += uint64_t{digit} << digits++;
    return true;
  }
};

// The decode side of one stream: the direct lookup table, the canonical
// ranges for codes longer than the table, and the payload.
class StreamDecoder {
 public:
  enum class Step : uint8_t { kOk, kInvalid, kTruncated };

  explicit StreamDecoder(const ParsedStream& stream)
      : table_(stream.table),
        ranges_(BuildRanges(stream.table)),
        lut_(kTableSize),
        payload_(stream.payload),
        total_bits_(stream.payload_bits),
        run_symbol_(stream.dominant) {
    // Short codes fill every slot sharing their reversed-bit prefix; slots
    // covered only by >kTableBits codes get the sentinel kLongCode; slots
    // no code reaches stay invalid (len 0).
    for (size_t i = 0; i < table_.sorted.size(); ++i) {
      const SymbolLength& e = table_.sorted[i];
      if (e.length <= kTableBits) {
        const uint64_t rev = ReverseBits(table_.codes[i], e.length);
        for (size_t j = rev; j < kTableSize; j += (1u << e.length)) {
          lut_[j] = {e.symbol, e.length, e.digit};
        }
      } else {
        // Mark the slot for the code's first kTableBits bits as "long".
        const uint64_t prefix = table_.codes[i] >> (e.length - kTableBits);
        lut_[ReverseBits(prefix, kTableBits)].len = kLongCode;
      }
    }
  }

  size_t total_bits() const { return total_bits_; }

  BitReader ReaderAt(size_t bit) const {
    BitReader br(payload_, (total_bits_ + 7) / 8);
    br.Advance(bit);
    return br;
  }

  // Decodes `count` symbols from br's position into dst, each written
  // once.
  Status Decode(BitReader* br, uint64_t count, uint32_t* dst) const {
    uint64_t produced = 0;
    RunLength run;
    while (produced + run.length < count) {
      TableEntry e;
      const Step step = DecodeOne(br, &e);
      if (step == Step::kInvalid) {
        return Status::Corruption("huffman: invalid code");
      }
      if (step == Step::kTruncated) {
        return Status::Corruption("huffman: truncated code stream");
      }
      if (e.digit != 0) {
        if (!run.Add(e.digit) || run.length > count - produced) {
          return Status::Corruption("huffman: run past symbol count");
        }
        continue;
      }
      std::fill_n(dst + produced, run.length, run_symbol_);
      produced += run.length;
      run = {};
      dst[produced++] = e.symbol;
    }
    std::fill_n(dst + produced, run.length, run_symbol_);
    return Status::Ok();
  }

  // Decodes from `start`, whether or not a codeword begins there, counting
  // the symbols of the codewords that begin before `end` (and of the rest
  // of a run whose first digit does) and recording the first `max_marks`
  // symbol codewords. Fails past `max_count` symbols.
  void Scan(size_t start, size_t end, size_t max_marks, uint64_t max_count,
            RangeScan* scan) const {
    BitReader br = ReaderAt(start);
    uint64_t count = 0;
    RunLength run;
    scan->marks.clear();
    scan->ok = false;
    while (br.position() < end) {
      const size_t at = br.position();
      TableEntry e;
      if (DecodeOne(&br, &e) != Step::kOk) return;
      if (e.digit != 0) {
        if (!run.Add(e.digit)) return;
        continue;
      }
      count += run.length;
      run = {};
      if (scan->marks.size() < max_marks) {
        scan->marks.push_back({at - start, count});
      }
      if (++count > max_count) return;
    }
    if (!FinishRun(&br, &run)) return;
    scan->count = count + run.length;
    scan->exit = br.position();
    scan->ok = scan->count <= max_count;
  }

  // Re-anchors `scan`, taken from `start`, at the range's true entry: walks
  // codewords from `entry` until a symbol codeword begins at a boundary
  // the scan recorded, from where the scan's codewords and runs are the
  // stream's, and corrects the count. A walk that passes every recorded
  // boundary decodes the rest of the range afresh. Returns false on an
  // invalid or truncated code, or past `max_count` symbols.
  bool Resync(size_t entry, size_t start, size_t end, uint64_t max_count,
              RangeScan* scan) const {
    BitReader br = ReaderAt(entry);
    uint64_t walked = 0;
    RunLength run;
    size_t j = 0;
    while (br.position() < end) {
      const size_t at = br.position();
      TableEntry e;
      if (DecodeOne(&br, &e) != Step::kOk) return false;
      if (e.digit != 0) {
        if (!run.Add(e.digit)) return false;
        continue;
      }
      walked += run.length;
      run = {};
      if (walked > max_count) return false;
      while (j < scan->marks.size() && scan->marks[j].offset < at - start) ++j;
      if (j < scan->marks.size() && scan->marks[j].offset == at - start) {
        scan->count = scan->count - scan->marks[j].count + walked;
        return true;
      }
      if (j == scan->marks.size()) {
        RangeScan rest;
        Scan(at, end, 0, max_count, &rest);
        if (!rest.ok) return false;
        scan->count = walked + rest.count;
        scan->exit = rest.exit;
        return true;
      }
      ++walked;
    }
    if (!FinishRun(&br, &run)) return false;
    scan->count = walked + run.length;
    scan->exit = br.position();
    return true;
  }

 private:
  static constexpr uint8_t kLongCode = 0xFF;
  struct TableEntry {
    uint32_t symbol = 0;
    uint8_t len = 0;
    uint8_t digit = 0;
  };

  // Adds to a pending run the digits that follow br's position, up to the
  // first codeword that is not one. False past kMaxRunDigits digits.
  bool FinishRun(BitReader* br, RunLength* run) const {
    while (run->digits > 0 && br->position() < total_bits_) {
      BitReader next = *br;
      TableEntry e;
      if (DecodeOne(&next, &e) != Step::kOk || e.digit == 0) break;
      if (!run->Add(e.digit)) return false;
      *br = next;
    }
    return true;
  }

  // Decodes the codeword at br's position into *e.
  Step DecodeOne(BitReader* br, TableEntry* e) const {
    const uint64_t window = br->PeekBits(BitReader::kPeekMax);
    const size_t bits_left = total_bits_ - br->position();
    *e = lut_[window & (kTableSize - 1)];
    if (e->len == 0) return Step::kInvalid;
    if (e->len != kLongCode) {
      if (e->len > bits_left) return Step::kTruncated;
      br->Advance(e->len);
      return Step::kOk;
    }
    // Long-code fallback: walk the canonical ranges beyond kTableBits.
    uint64_t code = 0;
    for (size_t len = 1; len <= table_.max_length; ++len) {
      code = (code << 1) | ((window >> (len - 1)) & 1u);
      if (len <= kTableBits) continue;
      if (ranges_.count[len] > 0 && code >= ranges_.first_code[len] &&
          code < ranges_.first_code[len] + ranges_.count[len]) {
        if (len > bits_left) return Step::kTruncated;
        const SymbolLength& s = table_.sorted[ranges_.first_index[len] +
                                              (code - ranges_.first_code[len])];
        br->Advance(len);
        *e = {s.symbol, s.length, s.digit};
        return Step::kOk;
      }
    }
    return Step::kInvalid;
  }

  const CanonicalTable& table_;
  const CanonicalRanges ranges_;
  std::vector<TableEntry> lut_;
  const uint8_t* payload_;
  size_t total_bits_;
  uint32_t run_symbol_;  // the symbol a run of digits repeats
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
                     num_symbols, &scans[k]);
      },
      1);

  // Pass 2: each range's true entry is the previous range's true exit;
  // range 0 starts at bit 0. The last range takes whatever symbols remain.
  std::vector<size_t> entry(ranges, 0);
  std::vector<uint64_t> first(ranges + 1, 0);
  for (size_t k = 0; k + 1 < ranges; ++k) {
    RangeScan& scan = scans[k];
    if (!scan.ok) return false;
    if (k > 0 && !decoder.Resync(entry[k], k * width, range_end(k),
                                 num_symbols, &scan)) {
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

// The number of ranges a stream's payload decodes in; it depends only on
// the payload's size.
size_t RangeCount(const ParsedStream& stream) {
  const size_t ranges =
      std::min(kMaxDecodeRanges, stream.payload_bits / kMinDecodeRangeBits);
  return std::max<size_t>(ranges, 1);
}

// Decodes a parsed stream into dst, which holds num_symbols elements, in
// `ranges` ranges (1: on the calling thread). With `fallback`, a
// multi-range decode that meets an anomaly decodes the stream again as one
// range.
Status DecodeStream(const ParsedStream& stream, size_t ranges, bool fallback,
                    uint32_t* dst) {
  if (stream.num_symbols == 0) return Status::Ok();
  const StreamDecoder decoder(stream);
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
Status DecodeInto(const uint8_t* data, size_t size, const Format& format,
                  size_t ranges, bool fallback, Vector* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ParsedStream stream;
  FXRZ_RETURN_IF_ERROR(ParseStream(data, size, format, &stream));
  out->resize(stream.num_symbols);
  const Status status =
      DecodeStream(stream, ranges == 0 ? RangeCount(stream) : ranges,
                   fallback, out->data());
  if (!status.ok()) out->clear();
  return status;
}

// Every symbol's frequency, in symbol order, and how the encoder looks a
// symbol up.
struct Histogram {
  std::vector<std::pair<uint32_t, uint64_t>> freqs;
  uint32_t max_symbol = 0;
  bool dense = false;  // a table of max_symbol + 1 entries, else a hash map
};

Histogram CountSymbols(std::span<const uint32_t> symbols) {
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
  Histogram h;
  h.max_symbol = *std::max_element(range_max.begin(), range_max.end());

  // Compact alphabets (the quantization-code case) count into per-unit
  // dense histograms, merged in unit order; other inputs count into a hash
  // map.
  h.dense = h.max_symbol < kDenseLimit && h.max_symbol / kMaxBinsPerSymbol < n;
  if (h.dense) {
    const size_t bins = static_cast<size_t>(h.max_symbol) + 1;
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
          uint64_t* p = partial.data() + u * bins;
          const size_t lo = u * unit_len, hi = std::min(n, lo + unit_len);
          for (size_t i = lo; i < hi; ++i) ++p[sym[i]];
        },
        1);
    for (size_t u = 1; u < units; ++u) {
      for (size_t b = 0; b < bins; ++b) partial[b] += partial[u * bins + b];
    }
    for (size_t b = 0; b < bins; ++b) {
      if (partial[b] != 0) {
        h.freqs.emplace_back(static_cast<uint32_t>(b), partial[b]);
      }
    }
  } else {
    std::unordered_map<uint32_t, uint64_t> freq_map;
    for (uint32_t s : symbols) ++freq_map[s];
    h.freqs.assign(freq_map.begin(), freq_map.end());
    std::sort(h.freqs.begin(), h.freqs.end());
  }
  return h;
}

// The canonical table of `entries`, whose frequencies are `freqs`.
CanonicalTable BuildTable(std::vector<SymbolLength> entries,
                          std::vector<uint64_t> freqs) {
  const std::vector<uint8_t> lengths = ComputeCodeLengths(std::move(freqs));
  for (size_t i = 0; i < entries.size(); ++i) entries[i].length = lengths[i];
  return BuildCanonical(std::move(entries));
}

// Each codeword of a table as the encoder writes it: the bit-reversed code
// in the low bits, the length from bit kLenShift.
class CodeBook {
 public:
  CodeBook(const CanonicalTable& table, const Histogram& h) : dense_(h.dense) {
    if (dense_) {
      table_.assign(static_cast<size_t>(h.max_symbol) + 1, 0);
    } else {
      map_.reserve(table.sorted.size() * 2);
    }
    for (size_t i = 0; i < table.sorted.size(); ++i) {
      const SymbolLength& e = table.sorted[i];
      const uint64_t packed = ReverseBits(table.codes[i], e.length) |
                              (static_cast<uint64_t>(e.length) << kLenShift);
      if (e.digit != 0) {
        digits_[e.digit - 1] = packed;
      } else if (dense_) {
        table_[e.symbol] = packed;
      } else {
        map_[e.symbol] = packed;
      }
    }
  }

  uint64_t symbol(uint32_t s) const { return dense_ ? table_[s] : map_.at(s); }
  uint64_t digit(uint8_t d) const { return digits_[d - 1]; }

  static size_t Length(uint64_t packed) { return packed >> kLenShift; }
  template <typename Writer>
  static void Write(uint64_t packed, Writer* w) {
    w->WriteBits(packed & kCodeMask, Length(packed));
  }

 private:
  static constexpr uint64_t kLenShift = 56;
  static constexpr uint64_t kCodeMask = (uint64_t{1} << kLenShift) - 1;
  bool dense_;
  std::vector<uint64_t> table_;
  std::unordered_map<uint32_t, uint64_t> map_;
  uint64_t digits_[2] = {0, 0};
};

// Appends `(u32 symbol, u8 length)` for each symbol entry of `table`, in
// canonical order.
void AppendSymbolEntries(const CanonicalTable& table,
                         std::vector<uint8_t>* out) {
  for (const SymbolLength& e : table.sorted) {
    if (e.digit != 0) continue;
    AppendUint32(out, e.symbol);
    out->push_back(e.length);
  }
}

// Calls digit(d) for each digit of `length` in bijective base 2, least
// significant first: the bits of length + 1 below its leading one, a 0 bit
// being RUNA (1) and a 1 bit RUNB (2).
template <typename Digit>
void ForEachDigit(uint64_t length, const Digit& digit) {
  const uint64_t v = length + 1;
  const int digits = std::bit_width(v) - 1;
  for (int i = 0; i < digits; ++i) {
    digit(static_cast<uint8_t>(1 + ((v >> i) & 1)));
  }
}

// Calls symbol(s) for each symbol of sym[begin, end) other than `dom`, and
// run(length) for each run of `dom`, in order.
template <typename Symbol, typename Run>
void ForEachToken(const uint32_t* sym, size_t begin, size_t end, uint32_t dom,
                  const Symbol& symbol, const Run& run) {
  for (size_t i = begin; i < end;) {
    if (sym[i] != dom) {
      symbol(sym[i++]);
      continue;
    }
    const size_t from = i;
    while (++i < end && sym[i] == dom) {
    }
    run(i - from);
  }
}

// The codes encode range r of a run-coded stream writes: sym[begin, end),
// which holds `symbols` codes other than the dominant one and runs of
// `digits` RUNA and RUNB digits. A run of the dominant symbol belongs to
// the range it starts in, which reads past its own end to the run's end;
// every range it reaches after that skips it.
struct RunRange {
  size_t begin = 0, end = 0;
  uint64_t symbols = 0;
  uint64_t digits[2] = {0, 0};
};

RunRange ScanRunRange(const uint32_t* sym, size_t n, uint32_t dom, size_t r) {
  const size_t lo = r * kEncodeRange;
  const size_t hi = std::min(n, lo + kEncodeRange);
  auto past_run = [&](size_t i) {
    while (i < n && sym[i] == dom) ++i;
    return i;
  };
  RunRange rr;
  rr.begin = lo > 0 && sym[lo - 1] == dom ? past_run(lo) : lo;
  if (rr.begin >= hi) {
    rr.end = rr.begin;
    return rr;
  }
  rr.end = sym[hi - 1] == dom ? past_run(hi) : hi;

  // Branch-free: the l-th code of a run (l = 1, 2, ...) adds a digit when
  // l + 1 is a power of two, and 1 - ctz(l + 1) RUNB digits, so a run of
  // L ends with bit_width(L + 1) - 1 digits, popcount(L + 1) - 1 of them
  // RUNB. The codes past hi all extend the last run.
  uint64_t run = 0, digits = 0, symbols = 0;
  int64_t runb = 0;
  for (size_t i = rr.begin; i < hi; ++i) {
    const uint64_t in_run = sym[i] == dom ? 1 : 0;
    run = (run + 1) & (0 - in_run);
    const uint64_t next = run + 1;
    digits += in_run & ((next & run) == 0 ? 1 : 0);
    runb += static_cast<int64_t>(in_run) * (1 - std::countr_zero(next));
    symbols += 1 - in_run;
  }
  if (rr.end > hi) {
    const uint64_t before = run + 1, after = run + (rr.end - hi) + 1;
    digits += static_cast<uint64_t>(std::bit_width(after) -
                                    std::bit_width(before));
    runb += std::popcount(after) - std::popcount(before);
  }
  rr.symbols = symbols;
  rr.digits[1] = static_cast<uint64_t>(runb);
  rr.digits[0] = digits - rr.digits[1];
  return rr;
}

}  // namespace

std::vector<uint8_t> HuffmanEncode(std::span<const uint32_t> symbols) {
  std::vector<uint8_t> out;
  AppendUint64(&out, symbols.size());
  if (symbols.empty()) {
    AppendUint32(&out, 0);  // zero table entries
    return out;
  }

  const Histogram h = CountSymbols(symbols);
  std::vector<SymbolLength> entries;
  std::vector<uint64_t> freqs;
  for (const auto& [s, f] : h.freqs) {
    entries.push_back({s, 0});
    freqs.push_back(f);
  }
  const CanonicalTable table = BuildTable(std::move(entries), std::move(freqs));

  // Header: entry count, then (symbol: u32, length: u8) pairs.
  AppendUint32(&out, static_cast<uint32_t>(table.sorted.size()));
  AppendSymbolEntries(table, &out);

  // Fixed-size symbol ranges encode in parallel straight into the payload:
  // a first pass sums each range's code lengths, so every range knows the
  // bit offset it starts at, and the second writes the codes.
  const CodeBook book(table, h);
  const size_t n = symbols.size();
  const uint32_t* sym = symbols.data();
  const size_t ranges = (n + kEncodeRange - 1) / kEncodeRange;
  std::vector<size_t> range_bits(ranges, 0);
  ParallelFor(
      SharedThreadPool(), 0, ranges,
      [&](size_t r) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        size_t bits = 0;
        for (size_t i = lo; i < hi; ++i) {
          bits += CodeBook::Length(book.symbol(sym[i]));
        }
        range_bits[r] = bits;
      },
      1);
  AppendBitRanges(
      range_bits,
      [&](size_t r, RangeBitWriter* w) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        for (size_t i = lo; i < hi; ++i) CodeBook::Write(book.symbol(sym[i]), w);
      },
      &out);
  return out;
}

std::vector<uint8_t> HuffmanEncodeRuns(std::span<const uint32_t> symbols) {
  std::vector<uint8_t> out;
  AppendUint64(&out, symbols.size());
  if (symbols.empty()) return out;

  // The dominant symbol is the most frequent, the smallest of a tie. Its
  // runs replace it in the alphabet; each range counts its runs' digits.
  const Histogram h = CountSymbols(symbols);
  const uint32_t dom =
      std::max_element(h.freqs.begin(), h.freqs.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  const size_t n = symbols.size();
  const uint32_t* sym = symbols.data();
  const size_t ranges = (n + kEncodeRange - 1) / kEncodeRange;
  std::vector<RunRange> parts(ranges);
  ParallelFor(
      SharedThreadPool(), 0, ranges,
      [&](size_t r) { parts[r] = ScanRunRange(sym, n, dom, r); }, 1);

  std::vector<SymbolLength> entries;
  std::vector<uint64_t> freqs;
  for (const auto& [s, f] : h.freqs) {
    if (s == dom) continue;
    entries.push_back({s, 0});
    freqs.push_back(f);
  }
  for (uint8_t d = 1; d <= 2; ++d) {
    uint64_t total = 0;
    for (const RunRange& p : parts) total += p.digits[d - 1];
    if (total == 0) continue;
    entries.push_back({dom, 0, d});
    freqs.push_back(total);
  }
  const size_t num_symbol_entries = h.freqs.size() - 1;
  const CanonicalTable table = BuildTable(std::move(entries), std::move(freqs));

  uint8_t digit_length[2] = {0, 0};
  for (const SymbolLength& e : table.sorted) {
    if (e.digit != 0) digit_length[e.digit - 1] = e.length;
  }
  AppendUint32(&out, dom);
  out.push_back(digit_length[0]);
  out.push_back(digit_length[1]);
  AppendUint32(&out, static_cast<uint32_t>(num_symbol_entries));
  AppendSymbolEntries(table, &out);

  // Each range writes its codes into a buffer of its own, sized here for
  // its longest possible codes (pool threads allocate nothing, and pages
  // are touched only as they are written); the buffers are then spliced.
  // Counting each range's bits first would take another pass over the
  // codes, and each pass branches on every run.
  const CodeBook book(table, h);
  std::vector<std::vector<uint8_t>> payloads(ranges);
  for (size_t r = 0; r < ranges; ++r) {
    const uint64_t bits = parts[r].symbols * table.max_length +
                          parts[r].digits[0] * digit_length[0] +
                          parts[r].digits[1] * digit_length[1];
    payloads[r].reserve(bits / 8 + 16);
  }
  std::vector<size_t> range_bits(ranges, 0);
  ParallelFor(
      SharedThreadPool(), 0, ranges,
      [&](size_t r) {
        BitWriter w(std::move(payloads[r]));
        ForEachToken(
            sym, parts[r].begin, parts[r].end, dom,
            [&](uint32_t s) { book.Write(book.symbol(s), &w); },
            [&](uint64_t length) {
              ForEachDigit(length,
                           [&](uint8_t d) { book.Write(book.digit(d), &w); });
            });
        range_bits[r] = w.bit_count();
        payloads[r] = std::move(w).Take();
      },
      1);
  size_t total_bits = 0;
  for (const size_t bits : range_bits) total_bits += bits;
  out.push_back(static_cast<uint8_t>((8 - total_bits % 8) % 8));
  AppendBitRanges(
      range_bits,
      [&](size_t r, RangeBitWriter* w) {
        w->WriteStream(payloads[r].data(), range_bits[r]);
      },
      &out);
  return out;
}

Status HuffmanDecode(const uint8_t* data, size_t size,
                     std::vector<uint32_t>* out) {
  return DecodeInto(data, size, Format{}, 0, /*fallback=*/true, out);
}

Status HuffmanDecode(const uint8_t* data, size_t size,
                     OverwriteVector<uint32_t>* out) {
  return DecodeInto(data, size, Format{}, 0, /*fallback=*/true, out);
}

Status HuffmanDecodeRuns(const uint8_t* data, size_t size,
                         uint64_t min_symbols, uint64_t max_symbols,
                         OverwriteVector<uint32_t>* out) {
  return DecodeInto(data, size, Format{true, min_symbols, max_symbols}, 0,
                    /*fallback=*/true, out);
}

namespace huffman_internal {

Status DecodeReference(const uint8_t* data, size_t size,
                       std::vector<uint32_t>* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ParsedStream stream;
  FXRZ_RETURN_IF_ERROR(ParseStream(data, size, Format{}, &stream));
  if (stream.num_symbols == 0) return Status::Ok();
  const CanonicalTable& table = stream.table;
  const CanonicalRanges ranges = BuildRanges(table);
  BitReader br(stream.payload, stream.payload_bits / 8);

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
  return DecodeInto(data, size, Format{}, ranges, /*fallback=*/false, out);
}

Status DecodeRunsInRanges(const uint8_t* data, size_t size,
                          uint64_t min_symbols, uint64_t max_symbols,
                          size_t ranges, std::vector<uint32_t>* out) {
  FXRZ_CHECK(ranges >= 1);
  return DecodeInto(data, size, Format{true, min_symbols, max_symbols},
                    ranges, /*fallback=*/false, out);
}

size_t DecodeRangeCount(const uint8_t* data, size_t size) {
  ParsedStream stream;
  return ParseStream(data, size, Format{}, &stream).ok() ? RangeCount(stream)
                                                          : 0;
}

}  // namespace huffman_internal

}  // namespace fxrz
