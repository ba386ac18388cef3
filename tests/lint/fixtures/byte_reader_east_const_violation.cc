// Negative fixture for the fxrz-byte-reader-only check: the violations of
// byte_reader_violation.cc on a parameter spelled `uint8_t const*`, which is
// as much untrusted input as `const uint8_t*`. Linted (never compiled) as
// if it lived at src/compressors/...; every pattern below must be flagged,
// and tools/CMakeLists.txt asserts the check fires on this file.

#include <cstdint>
#include <cstring>

namespace fxrz {

struct Header {
  uint32_t magic;
  uint64_t payload_size;
};

// Violation: memcpy straight out of the untrusted buffer.
bool ParseHeaderBytes(uint8_t const* data, size_t size, Header* out) {
  std::memcpy(out, data, sizeof(Header));
  return size >= sizeof(Header);
}

// Violation: manual cursor advance and direct indexing.
bool DecodeBlock(unsigned char const *data, size_t size, float* out) {
  data += sizeof(Header);
  for (size_t i = 0; i < size; ++i) out[i] = static_cast<float>(data[i]);
  return size != 0;
}

}  // namespace fxrz
