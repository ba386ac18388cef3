#include "src/encoding/zlite.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/encoding/bit_stream.h"
#include "src/util/byte_reader.h"
#include "src/util/thread_pool.h"

namespace fxrz {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = kMinMatch + 255;
constexpr size_t kWindow = 1 << 16;
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr int kMaxChainProbes = 16;
// Stream header: raw size, then payload size (both u64).
constexpr size_t kHeaderBytes = 16;
// Positions per parallel match-marking range: a fixed size, so the split
// depends only on the input length, and a multiple of 64, so each range
// owns whole words of the mark bitmap.
constexpr size_t kMarkRange = size_t{1} << 17;

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, at most max_len, compared eight
// bytes at a time. The caller guarantees max_len readable bytes at both.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return len + (std::countl_zero(diff) >> 3);
#else
      return len + (std::countr_zero(diff) >> 3);
#endif
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// Hash chains over the input. head[h]: most recent inserted position with
// hash h; chain[p % kWindow]: how far back the position inserted before p
// with the same hash lies, or 0 when it is kWindow or more back (no search
// from p onwards could reach it) or there is none.
//
// The compressor inserts every position in increasing order, inside
// matches as well as at literals, so when position i is searched the chains
// hold exactly "all positions before i" whatever the parse did. A search
// follows links only while they stay inside the window, and a link to a
// position older than i - kWindow ends it, so chains warmed with just the
// kWindow positions before some start answer every search at or after that
// start exactly as the full chains do. That is what lets disjoint ranges
// mark match positions in parallel.
class HashChains {
 public:
  HashChains(const uint8_t* in, size_t n)
      : in_(in), n_(n), head_(kHashSize, -1), chain_(kWindow, 0) {}

  void Insert(size_t pos) {
    if (pos + 4 > n_) return;
    const uint32_t h = Hash4(in_ + pos);
    const int64_t prev = head_[h];
    chain_[pos % kWindow] =
        prev >= 0 && pos - static_cast<size_t>(prev) < kWindow
            ? static_cast<uint16_t>(pos - static_cast<size_t>(prev))
            : 0;
    head_[h] = static_cast<int64_t>(pos);
  }

  // Whether one of the first kMaxChainProbes in-window candidates for
  // position i (with i + kMinMatch <= n) starts a match of kMinMatch bytes.
  bool HasMatch(size_t i) const {
    const uint32_t key = Load32(in_ + i);
    int64_t cand = head_[Hash4(in_ + i)];
    int probes = kMaxChainProbes;
    while (cand >= 0 && probes-- > 0 &&
           i - static_cast<size_t>(cand) < kWindow) {
      const size_t c = static_cast<size_t>(cand);
      if (Load32(in_ + c) == key) return true;
      cand = Previous(c);
    }
    return false;
  }

  // The longest match over the same candidates; the first (most recent)
  // wins ties. Sets *len to 0 when there is none.
  void Longest(size_t i, size_t* len, size_t* off) const {
    *len = 0;
    *off = 0;
    const size_t max_len = std::min(kMaxMatch, n_ - i);
    int64_t cand = head_[Hash4(in_ + i)];
    int probes = kMaxChainProbes;
    while (cand >= 0 && probes-- > 0 &&
           i - static_cast<size_t>(cand) < kWindow) {
      const size_t c = static_cast<size_t>(cand);
      const size_t l = MatchLength(in_ + c, in_ + i, max_len);
      if (l > *len) {
        *len = l;
        *off = i - c;
        if (l == max_len) return;
      }
      cand = Previous(c);
    }
  }

 private:
  // The position inserted before c with the same hash, or -1 when a search
  // could not reach it.
  int64_t Previous(size_t c) const {
    const uint16_t back = chain_[c % kWindow];
    return back == 0 ? -1 : static_cast<int64_t>(c - back);
  }

  const uint8_t* in_;
  size_t n_;
  std::vector<int64_t> head_;
  std::vector<uint16_t> chain_;
};

}  // namespace

std::vector<uint8_t> ZliteCompress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  AppendUint64(&out, input.size());
  if (input.empty()) {
    AppendUint64(&out, 0);
    return out;
  }
  const uint8_t* in = input.data();
  const size_t n = input.size();

  // Parallel pass: mark every position whose search would find a match.
  // Each range warms its own chains from kWindow bytes back (see
  // HashChains), so a mark never depends on the range split.
  std::vector<uint64_t> marks((n + 63) / 64, 0);
  ParallelFor(
      SharedThreadPool(), 0, (n + kMarkRange - 1) / kMarkRange,
      [&](size_t r) {
        const size_t lo = r * kMarkRange;
        const size_t hi = std::min(n, lo + kMarkRange);
        HashChains chains(in, n);
        for (size_t p = lo > kWindow ? lo - kWindow : 0; p < lo; ++p) {
          chains.Insert(p);
        }
        for (size_t i = lo; i < hi; ++i) {
          if (i + kMinMatch <= n && chains.HasMatch(i)) {
            marks[i / 64] |= uint64_t{1} << (i % 64);
          }
          chains.Insert(i);
        }
      },
      1);

  // Sequential greedy parse: a literal at each unmarked position, the
  // longest match at each marked one. Tokens: literal = flag 0 + 8 bits,
  // match = flag 1 + 16-bit offset-1 + 8-bit length-kMinMatch.
  // The tokens go straight after the header, into a buffer reserved for
  // the worst case (all literals); its payload size is patched in after.
  AppendUint64(&out, 0);
  out.reserve(kHeaderBytes + n / 8 * 9 + 16);
  BitWriter bw(std::move(out));
  HashChains chains(in, n);
  size_t i = 0;
  while (i < n) {
    if ((marks[i / 64] >> (i % 64)) & 1) {
      size_t len = 0, off = 0;
      chains.Longest(i, &len, &off);
      FXRZ_DCHECK(len >= kMinMatch);
      bw.WriteBits(1 | (uint64_t{off - 1} << 1) |
                       (uint64_t{len - kMinMatch} << 17),
                   25);
      for (size_t k = 0; k < len; ++k) chains.Insert(i + k);
      i += len;
    } else {
      bw.WriteBits(uint64_t{in[i]} << 1, 9);
      chains.Insert(i);
      ++i;
    }
  }

  out = std::move(bw).Take();
  const uint64_t payload_bytes = out.size() - kHeaderBytes;
  for (int k = 0; k < 8; ++k) {
    out[8 + k] = static_cast<uint8_t>(payload_bytes >> (8 * k));
  }
  return out;
}

Status ZliteDecompress(const uint8_t* data, size_t size,
                       std::vector<uint8_t>* out) {
  FXRZ_CHECK(out != nullptr);
  out->clear();
  ByteReader reader(data, size);
  uint64_t raw_size = 0;
  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
  if (!reader.ReadU64(&raw_size) ||
      !reader.ReadLengthPrefixed(&payload, &payload_bytes)) {
    return Status::Corruption("zlite: truncated");
  }
  if (raw_size == 0) return Status::Ok();
  // A match token (25 bits) emits at most kMaxMatch bytes, so the payload
  // bounds how much output a valid stream can produce. Rejecting forged
  // sizes here keeps the reserve() below from becoming a huge allocation.
  const uint64_t max_output = payload_bytes * 8ull / 25ull * kMaxMatch +
                              kMaxMatch;
  if (raw_size > max_output) {
    return Status::Corruption("zlite: implausible raw size");
  }

  BitReader br(payload, payload_bytes);
  out->reserve(raw_size);
  while (out->size() < raw_size) {
    uint32_t is_match = 0;
    if (!br.ReadBitChecked(&is_match)) {
      return Status::Corruption("zlite: stream overrun");
    }
    if (is_match) {
      uint64_t off_bits = 0, len_bits = 0;
      if (!br.ReadBitsChecked(16, &off_bits) ||
          !br.ReadBitsChecked(8, &len_bits)) {
        return Status::Corruption("zlite: truncated match");
      }
      const size_t off = static_cast<size_t>(off_bits) + 1;
      const size_t len = static_cast<size_t>(len_bits) + kMinMatch;
      if (off > out->size()) return Status::Corruption("zlite: bad offset");
      if (len > raw_size - out->size()) {
        return Status::Corruption("zlite: output overflow");
      }
      const size_t start = out->size() - off;
      for (size_t k = 0; k < len; ++k) out->push_back((*out)[start + k]);
    } else {
      uint64_t literal = 0;
      if (!br.ReadBitsChecked(8, &literal)) {
        return Status::Corruption("zlite: truncated literal");
      }
      out->push_back(static_cast<uint8_t>(literal));
    }
  }
  return Status::Ok();
}

}  // namespace fxrz
