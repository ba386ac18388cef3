// Test helper: the compression ratio of one Compressor::Compress run.

#ifndef FXRZ_TESTS_COMPRESSORS_MEASURED_RATIO_H_
#define FXRZ_TESTS_COMPRESSORS_MEASURED_RATIO_H_

#include "src/compressors/compressor.h"
#include "src/data/tensor.h"

namespace fxrz {

// original bytes / archive bytes at `config`; aborts if the run fails.
inline double MeasuredRatio(const Compressor& comp, const Tensor& data,
                            double config) {
  return static_cast<double>(data.size_bytes()) /
         static_cast<double>(comp.Compress(data, config).value().size());
}

}  // namespace fxrz

#endif  // FXRZ_TESTS_COMPRESSORS_MEASURED_RATIO_H_
