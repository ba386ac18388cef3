#include "src/data/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace fxrz {

namespace {

size_t Product(const std::vector<size_t>& dims) {
  size_t n = 1;
  for (size_t d : dims) n *= d;
  return n;
}

}  // namespace

void Tensor::Shape(std::vector<size_t> dims) {
  dims_ = std::move(dims);
  FXRZ_CHECK(!dims_.empty() && dims_.size() <= kMaxRank)
      << "rank " << dims_.size();
  for (size_t d : dims_) FXRZ_CHECK_GT(d, 0u);
  data_.resize(Product(dims_));
}

Tensor::Tensor(std::vector<size_t> dims) {
  Shape(std::move(dims));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(std::vector<size_t> dims, std::initializer_list<float> values) {
  Shape(std::move(dims));
  FXRZ_CHECK_EQ(data_.size(), values.size());
  std::copy(values.begin(), values.end(), data_.begin());
}

Tensor Tensor::ForOverwrite(std::vector<size_t> dims) {
  Tensor t;
  t.Shape(std::move(dims));
  return t;
}

Tensor::Tensor(const Tensor& other) : dims_(other.dims_) {
  data_.resize(other.size());
  if (!empty()) std::memcpy(data(), other.data(), size_bytes());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    dims_ = other.dims_;
    data_.clear();  // a reallocation copies no old element
    data_.resize(other.size());
    if (!empty()) std::memcpy(data(), other.data(), size_bytes());
  }
  return *this;
}

size_t Tensor::Offset(std::initializer_list<size_t> idx) const {
  FXRZ_DCHECK(idx.size() == dims_.size());
  size_t off = 0;
  size_t i = 0;
  for (size_t v : idx) {
    FXRZ_DCHECK(v < dims_[i]);
    off = off * dims_[i] + v;
    ++i;
  }
  return off;
}

std::vector<size_t> Tensor::Strides() const {
  std::vector<size_t> strides(dims_.size(), 1);
  for (size_t i = dims_.size(); i-- > 1;) {
    strides[i - 1] = strides[i] * dims_[i];
  }
  return strides;
}

std::string Tensor::ShapeString() const {
  std::string s;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(dims_[i]);
  }
  return s;
}

}  // namespace fxrz
