// Negative fixture for the fxrz-byte-reader-only check: the violations of
// byte_reader_violation.cc in functions named Parse* and Decode*, which
// read untrusted bytes as surely as a Decompress* function does. Linted
// (never compiled) as if it lived at src/compressors/...; every pattern
// below must be flagged, and tools/CMakeLists.txt asserts the check fires
// on this file.

#include <cstdint>
#include <cstring>

namespace fxrz {

struct Header {
  uint32_t magic;
  uint64_t payload_size;
};

// Violation: memcpy straight out of the untrusted buffer -- no bounds check
// relates `size` to sizeof(Header) before the read.
bool ParseHeaderBytes(const uint8_t* data, size_t size, Header* out) {
  std::memcpy(out, data, sizeof(Header));
  return size >= sizeof(Header);
}

// Violation: reinterpret_cast of the wire bytes, manual cursor advance, and
// direct indexing -- three untracked reads of attacker-controlled input.
bool DecodeBlock(const uint8_t* data, size_t size, float* out) {
  const Header* header = reinterpret_cast<const Header*>(data);
  data += sizeof(Header);
  for (uint64_t i = 0; i < header->payload_size; ++i) {
    out[i] = static_cast<float>(data[i]);
  }
  return size != 0;
}

}  // namespace fxrz
