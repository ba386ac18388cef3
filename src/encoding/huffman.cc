#include "src/encoding/huffman.h"

#include <algorithm>
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

}  // namespace

std::vector<uint8_t> HuffmanEncode(const std::vector<uint32_t>& symbols) {
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
  std::vector<size_t> range_start(ranges + 1, 0);
  ParallelFor(
      pool, 0, ranges,
      [&](size_t r) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        size_t bits = 0;
        for (size_t i = lo; i < hi; ++i) {
          bits += packed_code(sym[i]) >> kLenShift;
        }
        range_start[r + 1] = bits;
      },
      1);
  for (size_t r = 0; r < ranges; ++r) range_start[r + 1] += range_start[r];
  const size_t payload_bytes = (range_start[ranges] + 7) / 8;
  AppendUint64(&out, payload_bytes);
  const size_t payload_at = out.size();
  out.resize(payload_at + payload_bytes, 0);
  uint8_t* payload = out.data() + payload_at;
  std::vector<uint8_t> first_byte(ranges, 0);
  ParallelFor(
      pool, 0, ranges,
      [&](size_t r) {
        const size_t lo = r * kEncodeRange;
        const size_t hi = std::min(n, lo + kEncodeRange);
        RangeBitWriter w(payload, range_start[r]);
        for (size_t i = lo; i < hi; ++i) {
          const uint64_t packed = packed_code(sym[i]);
          w.WriteBits(packed & ((uint64_t{1} << kLenShift) - 1),
                      static_cast<size_t>(packed >> kLenShift));
        }
        first_byte[r] = w.Finish();
      },
      1);
  for (size_t r = 0; r < ranges; ++r) {
    payload[range_start[r] / 8] |= first_byte[r];
  }
  return out;
}

Status HuffmanDecode(const uint8_t* data, size_t size,
                     std::vector<uint32_t>* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ByteReader reader(data, size);
  uint64_t num_symbols = 0;
  CanonicalTable table;
  FXRZ_RETURN_IF_ERROR(ParseHeader(&reader, &num_symbols, &table));
  if (num_symbols == 0) return Status::Ok();
  const CanonicalRanges ranges = BuildRanges(table);

  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
  if (!reader.ReadLengthPrefixed(&payload, &payload_bytes)) {
    return Status::Corruption("huffman: truncated payload");
  }
  if (num_symbols > payload_bytes * 8) {
    return Status::Corruption("huffman: implausible symbol count");
  }

  // Build the direct lookup table. Short codes fill every slot sharing
  // their reversed-bit prefix; slots covered only by >kTableBits codes get
  // the sentinel length 0xFF; slots no code reaches stay invalid (len 0).
  struct TableEntry {
    uint32_t symbol = 0;
    uint8_t len = 0;
  };
  std::vector<TableEntry> lut(kTableSize);
  for (size_t i = 0; i < table.sorted.size(); ++i) {
    const uint8_t len = table.sorted[i].length;
    if (len <= kTableBits) {
      const uint64_t rev = ReverseBits(table.codes[i], len);
      for (size_t j = rev; j < kTableSize; j += (1u << len)) {
        lut[j] = {table.sorted[i].symbol, len};
      }
    } else {
      // Mark the slot for the code's first kTableBits bits as "long".
      const uint64_t prefix = table.codes[i] >> (len - kTableBits);
      lut[ReverseBits(prefix, kTableBits)].len = 0xFF;
    }
  }

  // Dominant-symbol fast path: the first canonical entry has the shortest
  // code, which is always the all-zero code. When four consecutive codes
  // are that symbol, the next 4*len bits are all zero.
  const uint32_t dom_symbol = table.sorted[0].symbol;
  const size_t dom_len = table.sorted[0].length;
  const size_t run_bits = 4 * dom_len;
  const bool run_enabled = run_bits <= BitReader::kPeekMax &&
                           table.codes[0] == 0;

  BitReader br(payload, payload_bytes);
  out->resize(num_symbols);
  uint32_t* dst = out->data();
  size_t produced = 0;
  while (produced < num_symbols) {
    if (run_enabled && produced + 4 <= num_symbols &&
        br.bits_remaining() >= run_bits) {
      while (br.PeekBits(run_bits) == 0 && produced + 4 <= num_symbols &&
             br.bits_remaining() >= run_bits) {
        dst[produced] = dom_symbol;
        dst[produced + 1] = dom_symbol;
        dst[produced + 2] = dom_symbol;
        dst[produced + 3] = dom_symbol;
        produced += 4;
        br.Advance(run_bits);
      }
      if (produced >= num_symbols) break;
    }
    const uint64_t window = br.PeekBits(kTableBits);
    const TableEntry e = lut[window];
    if (e.len == 0) {
      return Status::Corruption("huffman: invalid code");
    }
    if (e.len != 0xFF) {
      if (e.len > br.bits_remaining()) {
        return Status::Corruption("huffman: truncated code stream");
      }
      br.Advance(e.len);
      dst[produced++] = e.symbol;
      continue;
    }
    // Long-code fallback: peek enough bits for the longest code and walk
    // the canonical ranges beyond kTableBits.
    const uint64_t v = br.PeekBits(table.max_length);
    uint64_t code = 0;
    size_t len = 1;
    bool found = false;
    for (; len <= table.max_length; ++len) {
      code = (code << 1) | ((v >> (len - 1)) & 1u);
      if (len <= kTableBits) continue;
      if (ranges.count[len] > 0 && code >= ranges.first_code[len] &&
          code < ranges.first_code[len] + ranges.count[len]) {
        found = true;
        break;
      }
    }
    if (!found) return Status::Corruption("huffman: invalid code");
    if (len > br.bits_remaining()) {
      return Status::Corruption("huffman: truncated code stream");
    }
    const size_t idx = ranges.first_index[len] + (code - ranges.first_code[len]);
    br.Advance(len);
    dst[produced++] = table.sorted[idx].symbol;
  }
  return Status::Ok();
}

namespace huffman_internal {

Status DecodeReference(const uint8_t* data, size_t size,
                       std::vector<uint32_t>* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ByteReader reader(data, size);
  uint64_t num_symbols = 0;
  CanonicalTable table;
  FXRZ_RETURN_IF_ERROR(ParseHeader(&reader, &num_symbols, &table));
  if (num_symbols == 0) return Status::Ok();
  const CanonicalRanges ranges = BuildRanges(table);

  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
  if (!reader.ReadLengthPrefixed(&payload, &payload_bytes)) {
    return Status::Corruption("huffman: truncated payload");
  }
  if (num_symbols > payload_bytes * 8) {
    return Status::Corruption("huffman: implausible symbol count");
  }
  BitReader br(payload, payload_bytes);

  out->reserve(num_symbols);
  for (uint64_t i = 0; i < num_symbols; ++i) {
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

}  // namespace huffman_internal

}  // namespace fxrz
