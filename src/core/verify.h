// Compression verification report.
//
// One call that compresses, decompresses, and measures everything a user
// (or a test) wants to assert about a (compressor, dataset, config) triple.
// Used by the tests.

#ifndef FXRZ_CORE_VERIFY_H_
#define FXRZ_CORE_VERIFY_H_

#include <string>

#include "src/compressors/compressor.h"
#include "src/data/statistics.h"
#include "src/data/tensor.h"

namespace fxrz {

struct VerificationReport {
  bool round_trip_ok = false;   // both codec runs succeeded, shape matches
  double ratio = 0.0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  DistortionStats distortion;
  // For absolute-error-bound compressors: max error <= config (+ float
  // slack). Always true for other knob types.
  bool error_bound_ok = false;
  std::string ToString() const;
};

// Runs the full round trip and measures. `config` must lie in the
// compressor's config space for `data`.
VerificationReport VerifyCompression(const Compressor& compressor,
                                     const Tensor& data, double config);

}  // namespace fxrz

#endif  // FXRZ_CORE_VERIFY_H_
