// Fuzz harness: ArithDecoder over arbitrary bytes. The decoder has no
// framing of its own, so this drives it the way the FPZIP-like codec does:
// adaptive-context bits spread over several contexts, a bounded number of
// times. The contract is purely "no crash, no sanitizer report, overrun()
// reported once the input is exhausted".

#include <algorithm>

#include "fuzz/fuzz_target.h"
#include "src/encoding/arith.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fxrz::ArithDecoder dec(data, size);
  fxrz::BitContext contexts[8];
  const size_t rounds = std::min<size_t>(size * 8 + 64, 1 << 16);
  for (size_t i = 0; i < rounds; ++i) {
    (void)dec.DecodeBit(&contexts[i % 8]);
    if (dec.overrun()) break;
  }
  return 0;
}
