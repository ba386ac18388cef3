#include "src/encoding/arith.h"

namespace fxrz {

void ArithEncoder::ShiftLow() {
  if (low_ < 0xFF000000ull || low_ > 0xFFFFFFFFull) {
    uint8_t carry = static_cast<uint8_t>(low_ >> 32);
    // Flush the cached byte plus any 0xFF run, propagating the carry.
    bytes_.push_back(static_cast<uint8_t>(cache_ + carry));
    while (cache_size_ > 1) {
      bytes_.push_back(static_cast<uint8_t>(0xFF + carry));
      --cache_size_;
    }
    cache_ = static_cast<uint8_t>(low_ >> 24);
    cache_size_ = 0;
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

std::vector<uint8_t> ArithEncoder::Finish() && {
  for (int i = 0; i < 5; ++i) ShiftLow();
  // The first byte emitted is an artifact of the initial cache; the decoder
  // compensates by priming with 5 bytes, so we keep the stream as is minus
  // the leading placeholder byte.
  if (!bytes_.empty()) bytes_.erase(bytes_.begin());
  return std::move(bytes_);
}

ArithDecoder::ArithDecoder(const uint8_t* data, size_t size)
    : data_(data), size_(size) {
  for (int i = 0; i < 4; ++i) {
    code_ = (code_ << 8) | NextByte();
  }
}

}  // namespace fxrz
