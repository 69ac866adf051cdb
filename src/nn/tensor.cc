#include "src/nn/tensor.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/nn/kernels.h"

namespace floatfl {

Tensor::Tensor(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor Tensor::GlorotUniform(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& x : t.data_) {
    x = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return t;
}

float& Tensor::At(size_t r, size_t c) {
  FLOATFL_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::At(size_t r, size_t c) const {
  FLOATFL_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Tensor Tensor::MatMul(const Tensor& other) const {
  FLOATFL_CHECK(cols_ == other.rows_);
  Tensor out(rows_, other.cols_);
  ActiveKernels().mat_mul(data(), other.data(), out.data(), rows_, cols_, other.cols_);
  return out;
}

Tensor Tensor::MatMulTransposed(const Tensor& other) const {
  FLOATFL_CHECK(cols_ == other.cols_);
  Tensor out(rows_, other.rows_);
  ActiveKernels().mat_mul_transposed(data(), other.data(), out.data(), rows_, cols_,
                                     other.rows_);
  return out;
}

Tensor Tensor::TransposedMatMul(const Tensor& other) const {
  Tensor out(cols_, other.cols_);
  out.AddTransposedMatMul(*this, other);
  return out;
}

void Tensor::AddTransposedMatMul(const Tensor& a, const Tensor& b) {
  FLOATFL_CHECK(a.rows_ == b.rows_ && rows_ == a.cols_ && cols_ == b.cols_);
  ActiveKernels().add_transposed_mat_mul(a.data(), b.data(), data(), a.rows_, a.cols_, b.cols_);
}

void Tensor::AddInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Tensor::ScaleInPlace(float s) {
  for (auto& x : data_) {
    x *= s;
  }
}

void Tensor::AddRowBroadcast(const Tensor& row) {
  FLOATFL_CHECK(row.rows_ == 1 && row.cols_ == cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      data_[i * cols_ + j] += row.data_[j];
    }
  }
}

Tensor Tensor::ColSum() const {
  Tensor out(1, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out.data_[j] += data_[i * cols_ + j];
    }
  }
  return out;
}

}  // namespace floatfl
