#include "src/nn/mlp.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sim/thread_pool.h"

namespace floatfl {

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  FLOATFL_CHECK(dims.size() >= 2);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = (i + 2 < dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

uint64_t Mlp::InitDraws(const std::vector<size_t>& dims) {
  uint64_t draws = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    draws += dims[i] * dims[i + 1];
  }
  return draws;
}

Tensor Mlp::Forward(const Tensor& input) {
  Tensor x = layers_.front().Forward(input);
  for (size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i].Forward(x);
  }
  return x;
}

Tensor Mlp::Infer(const Tensor& input) const {
  Tensor x = layers_.front().Infer(input);
  for (size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i].Infer(x);
  }
  return x;
}

double Mlp::TrainBatch(const Tensor& input, const std::vector<int>& labels, float lr,
                       size_t frozen_layers) {
  FLOATFL_CHECK(frozen_layers <= layers_.size());
  const Tensor logits = Forward(input);
  Tensor probs;
  const double loss = SoftmaxXent::Loss(logits, labels, &probs);
  if (frozen_layers == layers_.size()) {
    return loss;
  }
  // A frozen layer's gradients would only be cleared by Step, and nothing
  // reads the lowest trained layer's input gradient.
  Tensor grad = SoftmaxXent::Gradient(probs, labels);
  for (size_t i = layers_.size() - 1; i > frozen_layers; --i) {
    grad = layers_[i].Backward(std::move(grad));
  }
  layers_[frozen_layers].AccumulateGradients(std::move(grad));
  for (size_t i = frozen_layers; i < layers_.size(); ++i) {
    layers_[i].Step(lr, /*frozen=*/false);
  }
  return loss;
}

Mlp::Evaluation Mlp::Evaluate(const Tensor& input, const std::vector<int>& labels,
                              ThreadPool* pool) const {
  FLOATFL_CHECK(input.rows() == labels.size());
  const size_t rows = input.rows();
  const size_t dim = input.cols();
  std::vector<uint8_t> correct(rows);
  std::vector<double> row_loss(rows);
  // One block of rows per participating thread. Rows are scored
  // independently, so the split never changes a result.
  const size_t threads = pool == nullptr ? 1 : pool->num_workers() + 1;
  const size_t block_rows = std::max<size_t>(1, (rows + threads - 1) / threads);
  ParallelFor(pool, (rows + block_rows - 1) / block_rows, [&](size_t block) {
    const size_t begin = block * block_rows;
    const size_t count = std::min(block_rows, rows - begin);
    Tensor x(count, dim);
    std::copy_n(input.data() + begin * dim, count * dim, x.data());
    const Tensor logits = Infer(x);
    const size_t classes = logits.cols();
    std::vector<float> probs(classes);
    for (size_t r = 0; r < count; ++r) {
      const float* row = logits.data() + r * classes;
      const int label = labels[begin + r];
      correct[begin + r] = static_cast<int>(SoftmaxXent::ArgMax(row, classes)) == label;
      row_loss[begin + r] = SoftmaxXent::RowLoss(row, classes, label, probs.data());
    }
  });
  size_t hits = 0;
  double total = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    hits += correct[i];
    total += row_loss[i];
  }
  Evaluation result;
  result.accuracy = rows == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(rows);
  result.loss = total / static_cast<double>(rows);
  return result;
}

size_t Mlp::ParamCount() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    n += layer.ParamCount();
  }
  return n;
}

std::vector<float> Mlp::GetParameters() const {
  std::vector<float> out;
  GetParameters(out);
  return out;
}

void Mlp::GetParameters(std::vector<float>& out) const {
  out.clear();
  out.reserve(ParamCount());
  for (const auto& layer : layers_) {
    const auto& w = layer.weights().flat();
    const auto& b = layer.bias().flat();
    out.insert(out.end(), w.begin(), w.end());
    out.insert(out.end(), b.begin(), b.end());
  }
}

void Mlp::SetParameters(const std::vector<float>& params) {
  FLOATFL_CHECK(params.size() == ParamCount());
  size_t pos = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weights().flat();
    for (auto& x : w) {
      x = params[pos++];
    }
    auto& b = layer.bias().flat();
    for (auto& x : b) {
      x = params[pos++];
    }
  }
}

}  // namespace floatfl
