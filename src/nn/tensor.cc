#include "src/nn/tensor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

Tensor::Tensor(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor Tensor::FromVector(const std::vector<float>& v) {
  Tensor t(1, v.size());
  t.data_ = v;
  return t;
}

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
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const float a = data_[i * cols_ + k];
      if (a == 0.0f) {
        continue;
      }
      const float* brow = &other.data_[k * other.cols_];
      float* orow = &out.data_[i * other.cols_];
      for (size_t j = 0; j < other.cols_; ++j) {
        orow[j] += a * brow[j];
      }
    }
  }
  return out;
}

Tensor Tensor::MatMulTransposed(const Tensor& other) const {
  FLOATFL_CHECK(cols_ == other.cols_);
  // out(i, j) is the dot product of row i of this and row j of other, summed
  // in k order from 0.0f. A serial float sum cannot vectorize, so this (the
  // small batch x k operand) is transposed once, padded with zero rows to
  // whole blocks of kLanes, and each block of outputs is built as axpys
  // across the batch in registers. The lanes are independent outputs, each
  // still adding its products in k order without skipping zeros; padding
  // lanes are dropped.
  constexpr size_t kLanes = 8;
  const size_t batch = rows_;
  const size_t depth = cols_;
  const size_t padded = (batch + kLanes - 1) / kLanes * kLanes;
  std::vector<float> transposed(depth * padded, 0.0f);
  for (size_t i = 0; i < batch; ++i) {
    for (size_t k = 0; k < depth; ++k) {
      transposed[k * padded + i] = data_[i * depth + k];
    }
  }
  Tensor out(batch, other.rows_);
  for (size_t i0 = 0; i0 < batch; i0 += kLanes) {
    const size_t lanes = std::min(kLanes, batch - i0);
    for (size_t j = 0; j < other.rows_; ++j) {
      float acc[kLanes] = {};
      const float* brow = &other.data_[j * depth];
      for (size_t k = 0; k < depth; ++k) {
        const float b = brow[k];
        const float* arow = &transposed[k * padded + i0];
        for (size_t l = 0; l < kLanes; ++l) {
          acc[l] += arow[l] * b;
        }
      }
      for (size_t l = 0; l < lanes; ++l) {
        out.data_[(i0 + l) * other.rows_ + j] = acc[l];
      }
    }
  }
  return out;
}

Tensor Tensor::TransposedMatMul(const Tensor& other) const {
  Tensor out(cols_, other.cols_);
  out.AddTransposedMatMul(*this, other);
  return out;
}

void Tensor::AddTransposedMatMul(const Tensor& a, const Tensor& b) {
  FLOATFL_CHECK(a.rows_ == b.rows_ && rows_ == a.cols_ && cols_ == b.cols_);
  for (size_t k = 0; k < a.rows_; ++k) {
    const float* arow = &a.data_[k * a.cols_];
    const float* brow = &b.data_[k * b.cols_];
    for (size_t i = 0; i < a.cols_; ++i) {
      const float x = arow[i];
      if (x == 0.0f) {
        continue;
      }
      float* orow = &data_[i * cols_];
      for (size_t j = 0; j < cols_; ++j) {
        orow[j] += x * brow[j];
      }
    }
  }
}

void Tensor::AddInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Tensor::SubInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
}

void Tensor::MulInPlace(const Tensor& other) {
  FLOATFL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] *= other.data_[i];
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

double Tensor::L2Norm() const {
  double acc = 0.0;
  for (float x : data_) {
    acc += static_cast<double>(x) * x;
  }
  return std::sqrt(acc);
}

double Tensor::MaxAbs() const {
  double m = 0.0;
  for (float x : data_) {
    m = std::max(m, std::fabs(static_cast<double>(x)));
  }
  return m;
}

}  // namespace floatfl
