// Slab count of a chunked ("CHK2") archive, read straight from its table of
// contents: the u32 count follows the magic, the rank and the u64 dims.

#ifndef FXRZ_TESTS_COMPRESSORS_CHUNK_COUNT_H_
#define FXRZ_TESTS_COMPRESSORS_CHUNK_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/encoding/bit_stream.h"

namespace fxrz {

inline size_t ChunkCount(const std::vector<uint8_t>& archive, size_t rank) {
  return ReadUint32(archive.data() + 8 + 8 * rank);
}

}  // namespace fxrz

#endif  // FXRZ_TESTS_COMPRESSORS_CHUNK_COUNT_H_
