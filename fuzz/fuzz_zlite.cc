// Fuzz harness: ZliteDecompress must reject or cleanly decode any bytes,
// and compressing them must give the same bytes whatever the range split
// of the parallel parse, and decode back to them. A mismatch traps.

#include <vector>

#include "fuzz/fuzz_target.h"
#include "src/encoding/zlite.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::vector<uint8_t> out;
  (void)fxrz::ZliteDecompress(data, size, &out);

  const std::vector<uint8_t> input(data, data + size);
  const std::vector<uint8_t> packed = fxrz::ZliteCompress(input);
  if (fxrz::zlite_internal::CompressInRanges(input, 1).bytes != packed ||
      fxrz::zlite_internal::CompressInRanges(input, 4).bytes != packed) {
    __builtin_trap();
  }
  std::vector<uint8_t> round_trip;
  if (!fxrz::ZliteDecompress(packed.data(), packed.size(), &round_trip).ok() ||
      round_trip != input) {
    __builtin_trap();
  }
  return 0;
}
