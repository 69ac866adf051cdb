#include "src/nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/mlp.h"

namespace floatfl {
namespace {

TEST(SoftmaxXentTest, UniformLogitsGiveLogKLoss) {
  Tensor logits(2, 4);  // all zeros -> uniform softmax
  Tensor probs;
  const double loss = SoftmaxXent::Loss(logits, {0, 3}, &probs);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(probs.At(i, j), 0.25, 1e-6);
    }
  }
}

TEST(SoftmaxXentTest, ConfidentCorrectPredictionHasLowLoss) {
  Tensor logits(1, 3);
  logits.At(0, 1) = 20.0f;
  Tensor probs;
  const double loss = SoftmaxXent::Loss(logits, {1}, &probs);
  EXPECT_LT(loss, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 1.0, 1e-6);
}

TEST(SoftmaxXentTest, GradientSumsToZeroPerRow) {
  Tensor logits(3, 5);
  Rng rng(3);
  for (auto& x : logits.flat()) {
    x = static_cast<float>(rng.Normal());
  }
  Tensor probs;
  SoftmaxXent::Loss(logits, {0, 2, 4}, &probs);
  const Tensor grad = SoftmaxXent::Gradient(probs, {0, 2, 4});
  for (size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 5; ++j) {
      row_sum += grad.At(i, j);
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxXentTest, AccuracyCountsArgmax) {
  Tensor logits(3, 2);
  logits.At(0, 0) = 1.0f;  // predicts 0
  logits.At(1, 1) = 1.0f;  // predicts 1
  logits.At(2, 0) = 1.0f;  // predicts 0
  EXPECT_NEAR(SoftmaxXent::Accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(DenseLayerTest, ForwardIsAffine) {
  Rng rng(5);
  DenseLayer layer(2, 2, /*relu=*/false, rng);
  layer.weights().At(0, 0) = 1.0f;
  layer.weights().At(0, 1) = 2.0f;
  layer.weights().At(1, 0) = 3.0f;
  layer.weights().At(1, 1) = 4.0f;
  layer.bias().At(0, 0) = 0.5f;
  layer.bias().At(0, 1) = -0.5f;
  Tensor x(1, 2);
  x.At(0, 0) = 1.0f;
  x.At(0, 1) = 1.0f;
  const Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(y.At(0, 1), 5.5f);   // 2+4-0.5
}

TEST(DenseLayerTest, ReluClampsNegative) {
  Rng rng(7);
  DenseLayer layer(1, 2, /*relu=*/true, rng);
  layer.weights().At(0, 0) = -1.0f;
  layer.weights().At(0, 1) = 1.0f;
  layer.bias().At(0, 0) = 0.0f;
  layer.bias().At(0, 1) = 0.0f;
  Tensor x(1, 1, 2.0f);
  const Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2.0f);
}

TEST(DenseLayerTest, FrozenStepLeavesWeightsUntouched) {
  Rng rng(9);
  DenseLayer layer(3, 2, /*relu=*/false, rng);
  const std::vector<float> before = layer.weights().flat();
  Tensor x(1, 3, 1.0f);
  const Tensor y = layer.Forward(x);
  Tensor grad(1, 2, 1.0f);
  layer.Backward(grad);
  layer.Step(0.1f, /*frozen=*/true);
  EXPECT_EQ(layer.weights().flat(), before);
  // After an unfrozen step the weights must move.
  layer.Forward(x);
  layer.Backward(grad);
  layer.Step(0.1f, /*frozen=*/false);
  EXPECT_NE(layer.weights().flat(), before);
}

// Finite-difference gradient check of the full network loss w.r.t. a sample
// of weights — the canonical correctness property for backprop.
TEST(GradientCheckTest, BackpropMatchesFiniteDifferences) {
  Rng rng(11);
  Mlp net({4, 6, 3}, rng);
  Tensor x(5, 4);
  for (auto& v : x.flat()) {
    v = static_cast<float>(rng.Normal());
  }
  const std::vector<int> labels = {0, 1, 2, 1, 0};

  auto loss_at = [&](Mlp& m) {
    return m.Evaluate(x, labels).loss;
  };

  // Analytic gradient: run one backward pass and capture the gradient by
  // observing the parameter delta of an SGD step with lr = 1.
  std::vector<float> params = net.GetParameters();
  Mlp probe({4, 6, 3}, rng);
  probe.SetParameters(params);
  probe.TrainBatch(x, labels, /*lr=*/1.0f);
  const std::vector<float> stepped = probe.GetParameters();
  std::vector<double> analytic(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    analytic[i] = static_cast<double>(params[i]) - stepped[i];  // lr * grad
  }

  // Numeric gradient for a sample of coordinates.
  const double eps = 1e-3;
  for (size_t i = 0; i < params.size(); i += params.size() / 17 + 1) {
    std::vector<float> perturbed = params;
    perturbed[i] += static_cast<float>(eps);
    net.SetParameters(perturbed);
    const double up = loss_at(net);
    perturbed[i] -= static_cast<float>(2.0 * eps);
    net.SetParameters(perturbed);
    const double down = loss_at(net);
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 5e-3)
        << "gradient mismatch at parameter " << i;
  }
}

}  // namespace
}  // namespace floatfl
