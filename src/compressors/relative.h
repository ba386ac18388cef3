// Relative-error-bound adapter.
//
// Error-bounded compressors also expose value-range-relative error bounds
// (the second control mode the paper lists in Sec. I). This decorator turns
// any absolute-error-bound compressor into one whose knob is
// eb_rel = eb_abs / value_range -- the compressed stream stays that of the
// underlying compressor, so decompression interoperates. FXRZ and FRaZ run
// unchanged on top of the adapter, demonstrating that the framework is
// agnostic not just to the compressor but to the knob semantics.

#ifndef FXRZ_COMPRESSORS_RELATIVE_H_
#define FXRZ_COMPRESSORS_RELATIVE_H_

#include <memory>

#include "src/compressors/compressor.h"

namespace fxrz {

class RelativeErrorCompressor : public Compressor {
 public:
  // `base` must use a continuous (non-integer) absolute error-bound knob.
  explicit RelativeErrorCompressor(std::unique_ptr<Compressor> base);

  std::string name() const override { return base_->name() + "-rel"; }
  ConfigSpace config_space(double value_range) const override;

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;

  std::unique_ptr<Compressor> base_;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_RELATIVE_H_
