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
// A parallel range is at least this long, so warming its chains over the
// kWindow positions before it costs at most about half its work. (On sz
// bodies of 287-501 KiB, four ranges of at least kWindow compressed 1.2-
// 1.6x faster than two or three of at least 2 * kWindow.)
constexpr size_t kMinRange = kWindow;

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
// start exactly as the full chains do. So the match found at a position
// depends on the position alone, not on the parse that reached it.
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

// The greedy parse from position `from`, whose tokens it appends to `bw`:
// a literal where no match is found, the longest match where one is.
// Tokens: literal = flag 0 + 8 bits, match = flag 1 + 16-bit offset-1 +
// 8-bit length-kMinMatch. Before the token at each position i it reaches,
// it asks go_on(i), and it stops at the first i where that is false;
// returns that position. Every position is inserted into chains warmed
// over the kWindow positions before `from`.
template <typename GoOn>
size_t EmitTokens(const uint8_t* in, size_t n, size_t from, BitWriter* bw,
                  GoOn&& go_on) {
  HashChains chains(in, n);
  for (size_t p = from > kWindow ? from - kWindow : 0; p < from; ++p) {
    chains.Insert(p);
  }
  size_t i = from;
  while (go_on(i)) {
    if (i + kMinMatch <= n && chains.HasMatch(i)) {
      size_t len = 0, off = 0;
      chains.Longest(i, &len, &off);
      FXRZ_DCHECK(len >= kMinMatch);
      bw->WriteBits(1 | (uint64_t{off - 1} << 1) |
                        (uint64_t{len - kMinMatch} << 17),
                    25);
      for (size_t k = 0; k < len; ++k) chains.Insert(i + k);
      i += len;
    } else {
      bw->WriteBits(uint64_t{in[i]} << 1, 9);
      chains.Insert(i);
      ++i;
    }
  }
  return i;
}

// One range [lo, hi) of the parallel parse. Its own parse runs from lo to
// its first position at or past hi and marks the position of every token
// it emits. Once re-anchored, the range contributes `head` (the tokens
// from its true entry up to the first position its own parse also
// reached) and then its own tokens from `first_bit` on.
struct RangeTokens {
  size_t lo = 0, hi = 0;
  std::vector<uint8_t> bits;     // the own parse's tokens
  size_t bit_count = 0;
  std::vector<uint64_t> starts;  // bit p - lo: a token starts at p
  size_t exit = 0;               // first position at or past hi
  std::vector<uint8_t> head;
  size_t head_bits = 0;
  size_t first_bit = 0;

  bool Starts(size_t p) const {
    return p >= lo && p < hi &&
           ((starts[(p - lo) / 64] >> ((p - lo) % 64)) & 1) != 0;
  }

  // The bit offset in `bits` of the token at p, a position Starts(): every
  // marked position before p begins a token, a literal when the next
  // position is marked too (a match covers at least kMinMatch).
  size_t BitOffset(size_t p) const {
    const size_t end = p - lo;
    size_t tokens = 0, literals = 0;
    for (size_t w = 0; w * 64 < end; ++w) {
      const uint64_t next = w + 1 < starts.size() ? starts[w + 1] : 0;
      uint64_t mask = ~uint64_t{0};
      if (end - w * 64 < 64) mask = (uint64_t{1} << (end - w * 64)) - 1;
      const uint64_t here = starts[w] & mask;
      tokens += std::popcount(here);
      literals += std::popcount(here & ((starts[w] >> 1) | (next << 63)));
    }
    return 9 * literals + 25 * (tokens - literals);
  }
};

// The greedy parse in `ranges` ranges of the input. Each range parses from
// its first position, in parallel. Two parses that reach one position
// agree from there on (see HashChains), so a serial pass re-anchors each
// range at its true entry, its left neighbour's exit: where its own parse
// reached the entry, its tokens from there on are the serial parse's;
// where it did not, the range parses again from the entry until it
// reaches a position its own parse reached (counted in *reparses). The
// ranges' tokens are then spliced in parallel at prefix-sum bit offsets.
// The bytes never depend on `ranges`.
std::vector<uint8_t> CompressImpl(const std::vector<uint8_t>& input,
                                  size_t ranges, size_t* reparses) {
  *reparses = 0;
  std::vector<uint8_t> out;
  AppendUint64(&out, input.size());
  if (input.empty()) {
    AppendUint64(&out, 0);
    return out;
  }
  const uint8_t* in = input.data();
  const size_t n = input.size();
  ranges = std::clamp<size_t>(ranges, 1, n);
  ThreadPool* pool = SharedThreadPool();

  // Every token buffer and position bitmap is allocated here, the buffer
  // reserved for the worst case (all literals, plus a match that runs past
  // the range's end), so no worker grows one.
  std::vector<RangeTokens> tokens(ranges);
  for (size_t r = 0; r < ranges; ++r) {
    RangeTokens& t = tokens[r];
    t.lo = n / ranges * r + std::min(r, n % ranges);
    t.hi = t.lo + n / ranges + (r < n % ranges ? 1 : 0);
    t.bits.reserve((t.hi - t.lo) / 8 * 9 + 24);
    t.starts.assign((t.hi - t.lo + 63) / 64, 0);
  }
  ParallelFor(
      pool, 0, ranges,
      [&](size_t r) {
        RangeTokens& t = tokens[r];
        BitWriter bw(std::move(t.bits));
        t.exit = EmitTokens(in, n, t.lo, &bw, [&t](size_t i) {
          if (i >= t.hi) return false;
          t.starts[(i - t.lo) / 64] |= uint64_t{1} << ((i - t.lo) % 64);
          return true;
        });
        t.bit_count = bw.bit_count();
        t.bits = std::move(bw).Take();
      },
      1);

  for (size_t r = 1; r < ranges; ++r) {
    RangeTokens& t = tokens[r];
    const size_t entry = tokens[r - 1].exit;
    size_t anchor = entry;
    if (entry < t.hi && !t.Starts(entry)) {
      ++*reparses;
      BitWriter bw;
      anchor = EmitTokens(in, n, entry, &bw, [&t](size_t i) {
        return i < t.hi && !t.Starts(i);
      });
      t.head_bits = bw.bit_count();
      t.head = std::move(bw).Take();
    }
    if (anchor >= t.hi) {  // the range's own tokens are all superseded
      t.first_bit = t.bit_count;
      t.exit = anchor;
    } else {
      t.first_bit = t.BitOffset(anchor);
    }
  }

  std::vector<size_t> range_bits(ranges);
  for (size_t r = 0; r < ranges; ++r) {
    const RangeTokens& t = tokens[r];
    range_bits[r] = t.head_bits + t.bit_count - t.first_bit;
  }
  AppendBitRanges(
      range_bits,
      [&](size_t r, RangeBitWriter* w) {
        const RangeTokens& t = tokens[r];
        w->WriteStream(t.head.data(), t.head_bits);
        w->WriteStream(t.bits.data(), t.first_bit, t.bit_count - t.first_bit);
      },
      &out);
  return out;
}

// Decodes the tokens of `payload` into dst[0, raw_size). *written is the
// number of bytes written, all of them on success and those decoded before
// the failure otherwise.
Status ExpandTokens(const uint8_t* payload, size_t payload_bytes,
                    size_t raw_size, uint8_t* dst, size_t* written) {
  BitReader br(payload, payload_bytes);
  size_t pos = 0;
  auto fail = [&](const char* message) {
    *written = pos;
    return Status::Corruption(message);
  };
  while (pos < raw_size) {
    // A whole token in one peek; bits past the end read as zero, so the
    // token's own length decides whether the stream holds all of it.
    const uint64_t token = br.PeekBits(25);
    const size_t need = (token & 1) != 0 ? 25 : 9;
    if (need > br.bits_remaining()) {
      return fail(br.bits_remaining() == 0 ? "zlite: stream overrun"
                  : (token & 1) != 0       ? "zlite: truncated match"
                                           : "zlite: truncated literal");
    }
    br.Advance(need);
    if ((token & 1) == 0) {
      dst[pos++] = static_cast<uint8_t>(token >> 1);
      continue;
    }
    const size_t off = static_cast<size_t>((token >> 1) & 0xFFFF) + 1;
    const size_t len = static_cast<size_t>(token >> 17) + kMinMatch;
    if (off > pos) return fail("zlite: bad offset");
    if (len > raw_size - pos) return fail("zlite: output overflow");
    uint8_t* const to = dst + pos;
    if (off >= len) {
      std::memcpy(to, to - off, len);
    } else {
      for (size_t k = 0; k < len; ++k) to[k] = to[k - off];
    }
    pos += len;
  }
  *written = pos;
  return Status::Ok();
}

// Parses the header, sizes *out for the raw bytes and decodes into it.
// Only this wrapper is instantiated per vector type; the decode runs
// through a pointer.
template <typename Vector>
Status DecompressInto(const uint8_t* data, size_t size, Vector* out) {
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
  // sizes here keeps the resize() below from becoming a huge allocation; a
  // forged size under this bound still costs an output of that size, up to
  // about 83 times the payload.
  const uint64_t max_output = payload_bytes * 8ull / 25ull * kMaxMatch +
                              kMaxMatch;
  if (raw_size > max_output) {
    return Status::Corruption("zlite: implausible raw size");
  }
  out->resize(raw_size);
  size_t written = 0;
  const Status status =
      ExpandTokens(payload, payload_bytes, raw_size, out->data(), &written);
  out->resize(written);
  return status;
}

}  // namespace

std::vector<uint8_t> ZliteCompress(const std::vector<uint8_t>& input) {
  const size_t ranges = std::clamp<size_t>(
      input.size() / kMinRange, 1, SharedThreadPool()->num_threads());
  size_t reparses = 0;
  return CompressImpl(input, ranges, &reparses);
}

Status ZliteDecompress(const uint8_t* data, size_t size,
                       std::vector<uint8_t>* out) {
  return DecompressInto(data, size, out);
}

Status ZliteDecompress(const uint8_t* data, size_t size,
                       OverwriteVector<uint8_t>* out) {
  return DecompressInto(data, size, out);
}

namespace zlite_internal {

RangedCompression CompressInRanges(const std::vector<uint8_t>& input,
                                   size_t ranges) {
  RangedCompression result;
  result.bytes = CompressImpl(input, ranges, &result.reparses);
  return result;
}

}  // namespace zlite_internal

}  // namespace fxrz
