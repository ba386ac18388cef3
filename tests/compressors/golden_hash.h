// FNV-1a hashes for the byte-golden tests: archives and decoded tensors are
// pinned by a 64-bit hash printed as fixed-width hex.

#ifndef FXRZ_TESTS_COMPRESSORS_GOLDEN_HASH_H_
#define FXRZ_TESTS_COMPRESSORS_GOLDEN_HASH_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/data/tensor.h"

namespace fxrz {

// FNV-1a over the bytes, folded with the length.
inline uint64_t Hash(const uint8_t* bytes, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h ^ size;
}

inline uint64_t Hash(const std::vector<uint8_t>& bytes) {
  return Hash(bytes.data(), bytes.size());
}

// Hash of a tensor's float bytes: NaN payloads and signed zeros count.
inline uint64_t HashTensor(const Tensor& t) {
  return Hash(reinterpret_cast<const uint8_t*>(t.data()),
              t.size() * sizeof(float));
}

inline std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace fxrz

#endif  // FXRZ_TESTS_COMPRESSORS_GOLDEN_HASH_H_
