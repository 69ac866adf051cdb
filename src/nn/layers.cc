#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

namespace {

void ApplyRelu(Tensor& t) {
  for (auto& x : t.flat()) {
    x = std::max(x, 0.0f);
  }
}

// param -= lr * grad, element by element.
void SgdUpdate(Tensor& param, const Tensor& grad, float lr) {
  FLOATFL_CHECK(param.SameShape(grad));
  float* p = param.data();
  const float* g = grad.data();
  for (size_t i = 0; i < param.size(); ++i) {
    p[i] -= g[i] * lr;
  }
}

}  // namespace

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng)
    : weights_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      grad_w_(in_dim, out_dim),
      grad_b_(1, out_dim),
      relu_(relu) {}

Tensor DenseLayer::PreActivation(const Tensor& input) const {
  FLOATFL_CHECK(input.cols() == weights_.rows());
  Tensor out = input.MatMul(weights_);
  out.AddRowBroadcast(bias_);
  return out;
}

Tensor DenseLayer::Forward(const Tensor& input) {
  last_input_ = input;
  Tensor out = PreActivation(input);
  last_pre_activation_ = out;
  if (relu_) {
    ApplyRelu(out);
  }
  return out;
}

Tensor DenseLayer::Infer(const Tensor& input) const {
  Tensor out = PreActivation(input);
  if (relu_) {
    ApplyRelu(out);
  }
  return out;
}

void DenseLayer::MaskAndAccumulate(Tensor& grad) {
  if (relu_) {
    FLOATFL_CHECK(grad.SameShape(last_pre_activation_));
    // A select, not a branch: about half the units are off, in no pattern a
    // branch predictor can learn.
    float* g = grad.data();
    const float* pre = last_pre_activation_.data();
    for (size_t i = 0; i < grad.size(); ++i) {
      g[i] = pre[i] <= 0.0f ? 0.0f : g[i];
    }
  }
  grad_w_.AddTransposedMatMul(last_input_, grad);
  grad_b_.AddInPlace(grad.ColSum());
}

Tensor DenseLayer::Backward(Tensor grad_output) {
  MaskAndAccumulate(grad_output);
  return grad_output.MatMulTransposed(weights_);
}

void DenseLayer::AccumulateGradients(Tensor grad_output) { MaskAndAccumulate(grad_output); }

void DenseLayer::Step(float lr, bool frozen) {
  if (!frozen) {
    SgdUpdate(weights_, grad_w_, lr);
    SgdUpdate(bias_, grad_b_, lr);
  }
  std::fill(grad_w_.flat().begin(), grad_w_.flat().end(), 0.0f);
  std::fill(grad_b_.flat().begin(), grad_b_.flat().end(), 0.0f);
}

double SoftmaxXent::RowLoss(const float* logits, size_t cols, int label, float* probs) {
  FLOATFL_CHECK(cols > 0);
  float maxv = logits[0];
  for (size_t j = 1; j < cols; ++j) {
    maxv = std::max(maxv, logits[j]);
  }
  double sum = 0.0;
  for (size_t j = 0; j < cols; ++j) {
    const double e = std::exp(static_cast<double>(logits[j] - maxv));
    probs[j] = static_cast<float>(e);
    sum += e;
  }
  for (size_t j = 0; j < cols; ++j) {
    probs[j] = static_cast<float>(probs[j] / sum);
  }
  FLOATFL_CHECK(label >= 0 && static_cast<size_t>(label) < cols);
  return -std::log(std::max(1e-12, static_cast<double>(probs[label])));
}

size_t SoftmaxXent::ArgMax(const float* logits, size_t cols) {
  size_t best = 0;
  for (size_t j = 1; j < cols; ++j) {
    if (logits[j] > logits[best]) {
      best = j;
    }
  }
  return best;
}

double SoftmaxXent::Loss(const Tensor& logits, const std::vector<int>& labels, Tensor* probs) {
  FLOATFL_CHECK(logits.rows() == labels.size());
  FLOATFL_CHECK(probs != nullptr);
  *probs = logits;
  const size_t cols = logits.cols();
  double total = 0.0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    total += RowLoss(logits.data() + i * cols, cols, labels[i], probs->data() + i * cols);
  }
  return total / static_cast<double>(logits.rows());
}

Tensor SoftmaxXent::Gradient(const Tensor& probs, const std::vector<int>& labels) {
  FLOATFL_CHECK(probs.rows() == labels.size());
  Tensor grad = probs;
  const float inv_batch = 1.0f / static_cast<float>(probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    grad.At(i, static_cast<size_t>(labels[i])) -= 1.0f;
  }
  grad.ScaleInPlace(inv_batch);
  return grad;
}

double SoftmaxXent::Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  FLOATFL_CHECK(logits.rows() == labels.size());
  if (logits.rows() == 0) {
    return 0.0;
  }
  size_t correct = 0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    if (static_cast<int>(ArgMax(logits.data() + i * logits.cols(), logits.cols())) == labels[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace floatfl
