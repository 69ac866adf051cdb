// Minimal dense tensor used by the real training substrate.
//
// The simulator's large-scale experiments use an analytic convergence model,
// but the optimization techniques (quantization, pruning, partial training)
// and FedAvg aggregation are implemented against real weights; this tensor
// backs those implementations and the trainable MLP in src/nn.
#ifndef SRC_NN_TENSOR_H_
#define SRC_NN_TENSOR_H_

#include <cstddef>
#include <vector>

namespace floatfl {

class Rng;

// Row-major 2-D tensor of floats. A vector is represented as 1 x n.
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(size_t rows, size_t cols, float fill = 0.0f);

  static Tensor FromVector(const std::vector<float>& v);  // 1 x n
  // Glorot/Xavier-uniform initialization for a (rows x cols) weight matrix.
  static Tensor GlorotUniform(size_t rows, size_t cols, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& At(size_t r, size_t c);
  float At(size_t r, size_t c) const;
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& flat() { return data_; }
  const std::vector<float>& flat() const { return data_; }

  // The three products run the widest kernels the CPU supports; each sums
  // every output in a fixed order with a fixed zero rule, whichever runs
  // (src/nn/kernels.h).
  // out = this * other  (matrix product). Dimensions must agree.
  Tensor MatMul(const Tensor& other) const;
  // out = this * other^T.
  Tensor MatMulTransposed(const Tensor& other) const;
  // out = this^T * other.
  Tensor TransposedMatMul(const Tensor& other) const;
  // this += a^T * b, adding each product straight into this in row order of
  // a and b. Into a zero tensor it gives TransposedMatMul's bits.
  void AddTransposedMatMul(const Tensor& a, const Tensor& b);

  // Element-wise, in place. Shapes must match exactly (AddRowBroadcast
  // broadcasts a 1 x cols row over all rows).
  void AddInPlace(const Tensor& other);
  void SubInPlace(const Tensor& other);
  void MulInPlace(const Tensor& other);
  void ScaleInPlace(float s);
  void AddRowBroadcast(const Tensor& row);

  // Column-wise sum producing 1 x cols.
  Tensor ColSum() const;

  double L2Norm() const;
  double MaxAbs() const;

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace floatfl

#endif  // SRC_NN_TENSOR_H_
