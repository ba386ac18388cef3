// Positive fixture for the fxrz-byte-reader-only check: a Decode function
// that reads its input through ByteReader and writes through an output
// `uint8_t* dst`, indexing it and advancing it. Only `const uint8_t*`
// parameters are untrusted input, so nothing here may be flagged. Linted
// (never compiled) as if it lived at src/compressors/...;
// tools/CMakeLists.txt asserts the check stays silent on this file.

#include <cstdint>
#include <cstring>

#include "src/util/byte_reader.h"

namespace fxrz {

bool DecodeBytes(const uint8_t* data, size_t size, uint8_t* dst,
                 size_t capacity) {
  ByteReader reader(data, size);
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  if (!reader.ReadLengthPrefixed(&payload, &payload_size) ||
      payload_size > capacity) {
    return false;
  }
  std::memcpy(dst, payload, payload_size);
  dst += payload_size;
  for (size_t i = 0; i + payload_size < capacity; ++i) dst[i] = 0;
  return true;
}

}  // namespace fxrz
