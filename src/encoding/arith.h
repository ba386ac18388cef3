// Adaptive binary arithmetic (range) coder, LZMA-style.
//
// The FPZIP-like compressor entropy-codes residual leading-zero counts with
// context-adaptive binary models: each Context tracks P(bit = 0) as an
// 11-bit fixed-point probability that adapts with an exponential moving
// average. The coder itself is a carry-propagating 64-bit/32-bit range coder.

#ifndef FXRZ_ENCODING_ARITH_H_
#define FXRZ_ENCODING_ARITH_H_

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace fxrz {

// The coders renormalize whenever the range drops below 2^24.
inline constexpr uint32_t kArithTopValue = 1u << 24;

// Adaptive probability model for a single binary decision.
class BitContext {
 public:
  static constexpr uint32_t kProbBits = 11;
  static constexpr uint32_t kProbMax = 1u << kProbBits;  // 2048
  static constexpr uint32_t kMoveBits = 5;

  BitContext() : prob_zero_(kProbMax / 2) {}

  uint32_t prob_zero() const { return prob_zero_; }

  void Update(uint32_t bit) {
    if (bit == 0) {
      prob_zero_ += (kProbMax - prob_zero_) >> kMoveBits;
    } else {
      prob_zero_ -= prob_zero_ >> kMoveBits;
    }
  }

 private:
  uint32_t prob_zero_;
};

// Encoder: feed bits with their contexts, then Finish() and take the bytes.
class ArithEncoder {
 public:
  ArithEncoder() = default;

  // Encodes `bit` under the adaptive model `ctx` (updated in place).
  // Inline: the FPZIP-like codec spends most of its time here.
  void EncodeBit(BitContext* ctx, uint32_t bit) {
    FXRZ_DCHECK(ctx != nullptr);
    const uint32_t bound =
        (range_ >> BitContext::kProbBits) * ctx->prob_zero();
    if (bit == 0) {
      range_ = bound;
    } else {
      low_ += bound;
      range_ -= bound;
    }
    ctx->Update(bit);
    while (range_ < kArithTopValue) {
      range_ <<= 8;
      ShiftLow();
    }
  }

  // Flushes the coder state. Must be called exactly once.
  std::vector<uint8_t> Finish() &&;

 private:
  void ShiftLow();

  uint64_t low_ = 0;
  uint32_t range_ = 0xFFFFFFFFu;
  uint8_t cache_ = 0;
  uint64_t cache_size_ = 1;
  std::vector<uint8_t> bytes_;
};

// Decoder over a byte span produced by ArithEncoder.
class ArithDecoder {
 public:
  ArithDecoder(const uint8_t* data, size_t size);

  // Decodes one bit under `ctx` (updated in place, mirroring the encoder).
  uint32_t DecodeBit(BitContext* ctx) {
    FXRZ_DCHECK(ctx != nullptr);
    const uint32_t bound =
        (range_ >> BitContext::kProbBits) * ctx->prob_zero();
    uint32_t bit;
    if (code_ < bound) {
      range_ = bound;
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      bit = 1;
    }
    ctx->Update(bit);
    while (range_ < kArithTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
    return bit;
  }

  // True if the decoder consumed more bytes than available (corruption).
  bool overrun() const { return overrun_; }

 private:
  uint8_t NextByte() {
    if (pos_ >= size_) {
      overrun_ = true;
      return 0;
    }
    return data_[pos_++];
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint32_t range_ = 0xFFFFFFFFu;
  uint32_t code_ = 0;
  bool overrun_ = false;
};

}  // namespace fxrz

#endif  // FXRZ_ENCODING_ARITH_H_
