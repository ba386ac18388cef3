// Fuzz harness: HuffmanDecode and HuffmanDecodeRuns must reject or cleanly
// decode any bytes.

#include <vector>

#include "fuzz/fuzz_target.h"
#include "src/encoding/huffman.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::vector<uint32_t> symbols;
  (void)fxrz::HuffmanDecode(data, size, &symbols);
  // A bound like a 2^20-element tensor's keeps the run decode's output
  // small.
  fxrz::OverwriteVector<uint32_t> codes;
  (void)fxrz::HuffmanDecodeRuns(data, size, 0, uint64_t{1} << 20, &codes);
  return 0;
}
