// Dense n-dimensional float tensor -- the in-memory representation of a
// scientific dataset field (what the paper calls a "snapshot" of a field).
//
// FXRZ and all four compressors operate on float32 data, matching the
// SDRBench datasets evaluated in the paper. Dimensions are row-major with
// the last dimension fastest-varying, i.e. a {nz, ny, nx} tensor is laid out
// as data[z][y][x]. Up to 4 dimensions are supported (QMCPack fields are 4D).

#ifndef FXRZ_DATA_TENSOR_H_
#define FXRZ_DATA_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/overwrite.h"

namespace fxrz {

// Value-semantic dense float tensor.
class Tensor {
 public:
  static constexpr size_t kMaxRank = 4;

  // Creates an empty (rank-0, zero-element) tensor.
  Tensor() = default;

  // Creates a zero-initialized tensor with the given shape.
  // Requires 1 <= dims.size() <= kMaxRank and every extent > 0.
  explicit Tensor(std::vector<size_t> dims);

  // Creates a tensor holding `values`, whose count must equal the product
  // of dims: a literal for tests and examples. Code that fills a tensor
  // from a computation builds it with ForOverwrite and writes data().
  Tensor(std::vector<size_t> dims, std::initializer_list<float> values);

  // Creates a tensor of the given shape whose elements are unset: the
  // caller must write every element before the tensor is read or handed
  // out. A decoder builds its output this way, so the pages are first
  // touched by the pass that fills them (often on every core) instead of
  // by a serial zero-fill the pass would overwrite. In sanitizer builds the
  // elements start as NaN (see src/util/overwrite.h), so a skipped element
  // shows in the decoded result.
  static Tensor ForOverwrite(std::vector<size_t> dims);

  // Copies are one memcpy of the elements.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  size_t rank() const { return dims_.size(); }
  const std::vector<size_t>& dims() const { return dims_; }
  size_t dim(size_t i) const { return dims_[i]; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  size_t size_bytes() const { return data_.size() * sizeof(float); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float operator[](size_t i) const { return data_[i]; }
  float& operator[](size_t i) { return data_[i]; }

  // Multi-index access. The number of indices must equal rank().
  float& at(std::initializer_list<size_t> idx) { return data_[Offset(idx)]; }
  float at(std::initializer_list<size_t> idx) const {
    return data_[Offset(idx)];
  }

  // Linear offset of a multi-index (row-major, last index fastest).
  size_t Offset(std::initializer_list<size_t> idx) const;

  // Strides in elements for each dimension (row-major).
  std::vector<size_t> Strides() const;

  // True when shapes and all values are bitwise equal: +0 and -0 differ,
  // and a NaN equals a NaN with the same bits.
  bool SameAs(const Tensor& other) const {
    return dims_ == other.dims_ &&
           (empty() || std::memcmp(data(), other.data(), size_bytes()) == 0);
  }

  // "512x512x512" style rendering of the shape.
  std::string ShapeString() const;

 private:
  // Checks the shape and sizes data_ for it, leaving the elements unset.
  void Shape(std::vector<size_t> dims);

  std::vector<size_t> dims_;
  OverwriteVector<float> data_;
};

}  // namespace fxrz

#endif  // FXRZ_DATA_TENSOR_H_
