// Bit-granular serialization used by every entropy coder and by the
// ZFP-like bitplane codec.
//
// Bits are packed LSB-first into bytes. BitWriter owns a growable byte
// buffer; AppendBitRanges splices the segments of a parallel-encoded
// payload, each through a RangeBitWriter; readers wrap an immutable byte
// span.

#ifndef FXRZ_ENCODING_BIT_STREAM_H_
#define FXRZ_ENCODING_BIT_STREAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace fxrz {

// Append-only bit sink. Bits collect in a 64-bit accumulator that is
// stored to the byte buffer eight bytes at a time.
class BitWriter {
 public:
  BitWriter() = default;

  // Continues after the bytes of `prefix` (its capacity is kept, so a
  // caller that knows the final size can reserve it up front).
  explicit BitWriter(std::vector<uint8_t> prefix)
      : buffer_(std::move(prefix)), size_(buffer_.size()) {}

  // Writes the low `count` bits of `bits` (count <= 64), LSB first.
  void WriteBits(uint64_t bits, size_t count) {
    FXRZ_DCHECK(count <= 64);
    if (count < 64) bits &= (1ull << count) - 1;
    acc_ |= bits << fill_;
    const size_t total = fill_ + count;
    if (total < 64) {
      fill_ = total;
      return;
    }
    Store(8);
    // The bits of `bits` that did not fit above the previous fill.
    acc_ = fill_ == 0 ? 0 : bits >> (64 - fill_);
    fill_ = total - 64;
  }

  void WriteBit(uint32_t bit) { WriteBits(bit != 0 ? 1 : 0, 1); }

  // Total bits in the buffer so far, prefix included.
  size_t bit_count() const { return size_ * 8 + fill_; }

  // Finalizes and returns the byte buffer (trailing bits zero-padded).
  std::vector<uint8_t> Take() && {
    Store((fill_ + 7) / 8);
    buffer_.resize(size_);
    acc_ = 0;
    fill_ = 0;
    return std::move(buffer_);
  }

 private:
  // Appends the low `nbytes` bytes of the accumulator, least significant
  // first. Always copies eight bytes, so the buffer keeps eight bytes of
  // slack past size_; it grows a page at a time within its capacity, so
  // untouched capacity never becomes resident.
  void Store(size_t nbytes) {
    if (buffer_.size() < size_ + 8) {
      if (buffer_.capacity() < size_ + 8) {
        buffer_.reserve(std::max<size_t>(2 * buffer_.capacity(), 64));
      }
      buffer_.resize(std::min(buffer_.capacity(), size_ + 4096));
    }
    uint64_t v = acc_;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(buffer_.data() + size_, &v, 8);
    size_ += nbytes;
  }

  std::vector<uint8_t> buffer_;  // size_ valid bytes, then slack
  size_t size_ = 0;
  uint64_t acc_ = 0;  // pending bits, LSB first
  size_t fill_ = 0;   // number of pending bits in acc_ (< 64)
};

// Writes one segment of a payload that holds several independently encoded
// segments back to back with no padding (see AppendBitRanges). A segment
// that starts mid-byte shares that byte with the segment before it, so the
// writer hands its bits of that byte back from Finish() to be ORed in once
// every segment is done; every other byte it stores is its own. The
// payload must be zeroed where segments share a byte.
class RangeBitWriter {
 public:
  RangeBitWriter(uint8_t* payload, size_t bit_offset)
      : dst_(payload + bit_offset / 8),
        fill_(bit_offset % 8),
        shares_first_(fill_ != 0) {}

  // Writes the low `count` (<= 64) bits of `bits`; the higher bits are zero.
  void WriteBits(uint64_t bits, size_t count) {
    FXRZ_DCHECK(count <= 64);
    acc_ |= bits << fill_;
    const size_t total = fill_ + count;
    if (total < 64) {
      fill_ = total;
      return;
    }
    Store(8);
    acc_ = fill_ == 0 ? 0 : bits >> (64 - fill_);
    fill_ = total - 64;
  }

  // Writes the first `nbits` bits of `src`, an LSB-first stream as
  // BitWriter lays it out (its bits past `nbits` are zero).
  void WriteStream(const uint8_t* src, size_t nbits) {
    for (; nbits >= 64; nbits -= 64, src += 8) WriteBits(LoadWord(src, 8), 64);
    if (nbits > 0) WriteBits(LoadWord(src, (nbits + 7) / 8), nbits);
  }

  // Writes `nbits` bits of `src` starting at bit `first_bit`.
  void WriteStream(const uint8_t* src, size_t first_bit, size_t nbits) {
    src += first_bit / 8;
    if (const size_t skip = first_bit % 8; skip != 0 && nbits > 0) {
      const size_t head = std::min(nbits, 8 - skip);
      WriteBits((src[0] >> skip) & ((1u << head) - 1), head);
      ++src;
      nbits -= head;
    }
    WriteStream(src, nbits);
  }

  // Stores the tail and returns the segment's bits of the shared first
  // byte (0 when the segment starts on a byte boundary).
  uint8_t Finish() {
    Store((fill_ + 7) / 8);
    return first_;
  }

 private:
  // The first `nbytes` (<= 8) bytes at `src` as a little-endian word.
  static uint64_t LoadWord(const uint8_t* src, size_t nbytes) {
    uint64_t v = 0;
    std::memcpy(&v, src, nbytes);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
  }

  void Store(size_t nbytes) {
    uint64_t v = acc_;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    uint8_t bytes[8];
    std::memcpy(bytes, &v, 8);
    size_t skip = 0;
    if (shares_first_ && nbytes > 0) {
      first_ = bytes[0];
      shares_first_ = false;
      skip = 1;
    }
    std::memcpy(dst_ + skip, bytes + skip, nbytes - skip);
    dst_ += nbytes;
  }

  uint8_t* dst_;
  uint64_t acc_ = 0;
  size_t fill_;
  bool shares_first_;
  uint8_t first_ = 0;
};

// Sequential bit source over a byte span. Does not own the data.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  // Reads one bit; returns 0 past the end (callers validate via ok()).
  uint32_t ReadBit() {
    if (pos_ >= size_bits_) {
      overrun_ = true;
      return 0;
    }
    const uint32_t bit = (data_[pos_ >> 3] >> (pos_ & 7)) & 1u;
    ++pos_;
    return bit;
  }

  // Reads `count` bits (count <= 64), LSB first. Bits past the end read as
  // zero and set the sticky overrun flag, matching per-bit semantics.
  uint64_t ReadBits(size_t count) {
    FXRZ_DCHECK(count <= 64);
    if (count <= kPeekMax) {
      const uint64_t v = PeekBits(count);
      Advance(count);
      return v;
    }
    uint64_t v = PeekBits(kPeekMax);
    Advance(kPeekMax);
    v |= PeekBits(count - kPeekMax) << kPeekMax;
    Advance(count - kPeekMax);
    return v;
  }

  // Maximum lookahead PeekBits supports: a 64-bit window loaded at a byte
  // boundary minus up to 7 bits of intra-byte offset.
  static constexpr size_t kPeekMax = 57;

  // Returns the next `count` (<= kPeekMax) bits without consuming them,
  // LSB first. Bits past the end of the buffer read as zero (and do NOT set
  // the overrun flag -- only consuming them via Advance does).
  uint64_t PeekBits(size_t count) const {
    FXRZ_DCHECK(count <= kPeekMax);
    if (count == 0) return 0;
    const size_t byte = pos_ >> 3;
    const size_t nbytes = size_bits_ >> 3;
    uint64_t window = 0;
    if (byte + 8 <= nbytes) {
      std::memcpy(&window, data_ + byte, 8);
    } else if (byte < nbytes) {
      std::memcpy(&window, data_ + byte, nbytes - byte);
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    window = __builtin_bswap64(window);
#endif
    window >>= (pos_ & 7);
    return window & (~0ull >> (64 - count));
  }

  // Consumes `count` bits. Consuming past the end clamps to the end and
  // sets the sticky overrun flag (mirrors ReadBit's zero-fill semantics).
  void Advance(size_t count) {
    if (count > size_bits_ - pos_) {
      pos_ = size_bits_;
      overrun_ = true;
    } else {
      pos_ += count;
    }
  }

  // Checked read: fails (and sets the sticky overrun flag) instead of
  // silently zero-filling, so a decoder can distinguish "stream exhausted"
  // from a legitimate zero bit at the read site.
  [[nodiscard]] bool ReadBitChecked(uint32_t* bit) {
    if (pos_ >= size_bits_) {
      overrun_ = true;
      return false;
    }
    *bit = ReadBit();
    return true;
  }

  // True while no read has gone past the end of the buffer.
  bool ok() const { return !overrun_; }

  // True when a read went past the end of the buffer.
  bool overrun() const { return overrun_; }
  size_t bits_remaining() const { return size_bits_ - pos_; }
  size_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
  bool overrun_ = false;
};

// Helpers for byte-level little-endian (de)serialization of POD headers.
void AppendUint32(std::vector<uint8_t>* out, uint32_t v);
void AppendUint64(std::vector<uint8_t>* out, uint64_t v);
void AppendDouble(std::vector<uint8_t>* out, double v);
uint32_t ReadUint32(const uint8_t* p);
uint64_t ReadUint64(const uint8_t* p);
double ReadDouble(const uint8_t* p);

// Appends a u64 payload byte count, then a payload of range_bits.size()
// segments back to back with no padding: segment r is range_bits[r] bits,
// written by write(r, RangeBitWriter*) at the prefix sum of the counts
// before it. The segments are written in parallel on SharedThreadPool();
// the payload is bit for bit what one BitWriter writing them in order
// would produce, zero-padded to a whole byte. A segment may be empty.
template <typename Write>
void AppendBitRanges(const std::vector<size_t>& range_bits, const Write& write,
                     std::vector<uint8_t>* out) {
  const size_t ranges = range_bits.size();
  std::vector<size_t> start(ranges + 1, 0);
  for (size_t r = 0; r < ranges; ++r) start[r + 1] = start[r] + range_bits[r];
  const size_t payload_bytes = (start[ranges] + 7) / 8;
  AppendUint64(out, payload_bytes);
  const size_t payload_at = out->size();
  out->resize(payload_at + payload_bytes, 0);
  uint8_t* payload = out->data() + payload_at;
  std::vector<uint8_t> first_byte(ranges, 0);
  ParallelFor(
      SharedThreadPool(), 0, ranges,
      [&](size_t r) {
        RangeBitWriter w(payload, start[r]);
        write(r, &w);
        first_byte[r] = w.Finish();
      },
      1);
  // Only a segment that starts mid-byte, so inside the payload, has bits
  // to OR in; an empty last segment may start one byte past the end.
  for (size_t r = 0; r < ranges; ++r) {
    if (first_byte[r] != 0) payload[start[r] / 8] |= first_byte[r];
  }
}

}  // namespace fxrz

#endif  // FXRZ_ENCODING_BIT_STREAM_H_
