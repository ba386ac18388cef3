// Negative fixture for the fxrz-decode-output-for-overwrite check: a
// decoder that zero-fills its output tensor before the pass that writes
// every element. Linted (never compiled) as if it lived at
// src/compressors/...; both constructions below must be flagged, and
// tools/CMakeLists.txt asserts the check fires on this file.

#include <cstdint>
#include <vector>

#include "src/data/tensor.h"
#include "src/util/status.h"

namespace fxrz {

// Violation: `Tensor result(dims)` memsets the whole output on the calling
// thread, and the loop then writes every element again.
Status FixtureCompressor::DoDecompress(const uint8_t* data, size_t size,
                                       Tensor* out) const {
  const std::vector<size_t> dims = {4, 4};
  Tensor result(dims);
  for (size_t i = 0; i < result.size(); ++i) {
    result[i] = static_cast<float>(i < size ? 1 : 0);
  }
  // Violation: brace construction zero-fills the same way.
  Tensor scratch{dims};
  *out = std::move(result);
  return data == nullptr ? Status::Corruption("fixture") : Status::Ok();
}

}  // namespace fxrz
