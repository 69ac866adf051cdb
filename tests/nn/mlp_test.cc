#include "src/nn/mlp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/data/synthetic.h"
#include "src/nn/optimizer.h"
#include "src/sim/thread_pool.h"

namespace floatfl {
namespace {

TEST(MlpTest, ParamCountMatchesArchitecture) {
  Rng rng(1);
  Mlp net({4, 8, 3}, rng);
  // (4*8 + 8) + (8*3 + 3) = 40 + 27 = 67
  EXPECT_EQ(net.ParamCount(), 67u);
  EXPECT_EQ(net.NumLayers(), 2u);
}

// The real engine skips a client's throwaway model init with
// Rng::Discard(Skip(InitDraws(dims))); that must be exactly the constructor's
// draws.
TEST(MlpTest, InitDrawsAreTheConstructorsDraws) {
  const std::vector<size_t> dims = {64, 256, 128, 10};
  EXPECT_EQ(Mlp::InitDraws(dims), 64u * 256 + 256u * 128 + 128u * 10);
  Rng constructed(71);
  Rng discarded(71);
  const Mlp model(dims, constructed);
  discarded.Discard(Rng::Skip(Mlp::InitDraws(dims)));
  EXPECT_EQ(constructed.SaveRaw(), discarded.SaveRaw());
}

TEST(MlpTest, GetSetParametersRoundTrip) {
  Rng rng(2);
  Mlp a({5, 7, 2}, rng);
  Mlp b({5, 7, 2}, rng);
  b.SetParameters(a.GetParameters());
  EXPECT_EQ(a.GetParameters(), b.GetParameters());
  // Identical parameters -> identical outputs.
  Tensor x(3, 5, 0.5f);
  const Tensor ya = a.Forward(x);
  const Tensor yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.flat()[i], yb.flat()[i]);
  }
}

TEST(MlpTest, GetParametersIntoABufferOverwritesItWhole) {
  Rng rng(3);
  const Mlp net({5, 7, 2}, rng);
  const std::vector<float> expected = net.GetParameters();
  // A stale buffer of the right size, a longer one and an empty one.
  for (size_t stale : {expected.size(), expected.size() + 9, size_t{0}}) {
    std::vector<float> buffer(stale, -7.0f);
    net.GetParameters(buffer);
    EXPECT_EQ(buffer, expected) << stale;
  }
  // The buffer keeps its storage when it is big enough.
  std::vector<float> buffer(expected.size());
  const float* storage = buffer.data();
  net.GetParameters(buffer);
  EXPECT_EQ(buffer.data(), storage);
}

TEST(MlpTest, TrainingLearnsSeparableTask) {
  Rng rng(3);
  SyntheticTaskData task(3, 8, /*separation=*/3.0, rng);
  Tensor train_x;
  std::vector<int> train_y;
  task.MakeTestSet(60, rng, &train_x, &train_y);
  Tensor test_x;
  std::vector<int> test_y;
  task.MakeTestSet(30, rng, &test_x, &test_y);

  Mlp net({8, 16, 3}, rng);
  const double before = net.Evaluate(test_x, test_y).accuracy;
  SgdConfig config;
  config.learning_rate = 0.1f;
  config.batch_size = 16;
  config.epochs = 20;
  TrainSgd(net, train_x, train_y, config, rng);
  const double after = net.Evaluate(test_x, test_y).accuracy;
  EXPECT_GT(after, 0.9);
  EXPECT_GT(after, before);
}

TEST(MlpTest, PartialTrainingFreezesLeadingLayers) {
  Rng rng(4);
  Mlp net({4, 6, 6, 2}, rng);
  const std::vector<float> before = net.GetParameters();
  Tensor x(8, 4, 0.3f);
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  net.TrainBatch(x, labels, 0.1f, /*frozen_layers=*/2);
  const std::vector<float> after = net.GetParameters();
  // First layer (4*6+6 = 30 params) and second (6*6+6 = 42) unchanged.
  for (size_t i = 0; i < 72; ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]) << "frozen param " << i << " moved";
  }
  // Final layer moved.
  bool moved = false;
  for (size_t i = 72; i < after.size(); ++i) {
    if (before[i] != after[i]) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(SgdTest, CountsBatchesAndSamples) {
  Rng rng(6);
  Mlp net({2, 3, 2}, rng);
  Tensor x(10, 2, 0.1f);
  std::vector<int> y(10, 1);
  SgdConfig config;
  config.batch_size = 4;
  config.epochs = 3;
  const TrainResult result = TrainSgd(net, x, y, config, rng);
  EXPECT_EQ(result.batches, 9u);   // ceil(10/4)=3 per epoch x 3
  EXPECT_EQ(result.samples, 30u);
}

TEST(SgdTest, EmptyDatasetIsNoOp) {
  Rng rng(7);
  Mlp net({2, 2}, rng);
  Tensor x(0, 2);
  std::vector<int> y;
  const TrainResult result = TrainSgd(net, x, y, SgdConfig{}, rng);
  EXPECT_EQ(result.batches, 0u);
  EXPECT_EQ(result.samples, 0u);
}

TEST(SgdTest, LossDecreasesOverEpochs) {
  Rng rng(8);
  SyntheticTaskData task(2, 6, 2.5, rng);
  Tensor x;
  std::vector<int> y;
  task.MakeTestSet(50, rng, &x, &y);
  Mlp net({6, 10, 2}, rng);
  const double initial_loss = net.Evaluate(x, y).loss;
  SgdConfig config;
  config.learning_rate = 0.1f;
  config.epochs = 10;
  TrainSgd(net, x, y, config, rng);
  EXPECT_LT(net.Evaluate(x, y).loss, initial_loss);
}

Tensor NormalTensor(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (auto& x : t.flat()) {
    x = static_cast<float>(rng.Normal());
  }
  return t;
}

std::vector<int> RandomLabels(size_t n, size_t classes, Rng& rng) {
  std::vector<int> labels(n);
  for (auto& y : labels) {
    y = static_cast<int>(rng.UniformInt(classes));
  }
  return labels;
}

// TrainBatch backpropagates only down to the lowest trained layer. The
// reference backpropagates through every layer, input gradients included,
// and steps every layer with its frozen flag. Loss and parameters must match
// byte for byte at every freeze depth, over several steps.
TEST(MlpTest, TrainBatchStopsAtLowestTrainedLayerBitForBit) {
  const std::vector<size_t> dims = {12, 24, 16, 8, 5};
  const size_t layers = dims.size() - 1;
  Rng rng(47);
  const std::vector<float> init = Mlp(dims, rng).GetParameters();
  for (size_t frozen = 0; frozen <= layers; ++frozen) {
    Mlp net(dims, rng);
    net.SetParameters(init);
    Mlp reference(dims, rng);
    reference.SetParameters(init);
    for (int step = 0; step < 3; ++step) {
      const Tensor x = NormalTensor(20, dims.front(), rng);
      const std::vector<int> labels = RandomLabels(20, dims.back(), rng);
      const double loss = net.TrainBatch(x, labels, 0.1f, frozen);

      Tensor probs;
      const double reference_loss = SoftmaxXent::Loss(reference.Forward(x), labels, &probs);
      Tensor grad = SoftmaxXent::Gradient(probs, labels);
      for (size_t i = layers; i-- > 0;) {
        grad = reference.layer(i).Backward(grad);
      }
      for (size_t i = 0; i < layers; ++i) {
        reference.layer(i).Step(0.1f, /*frozen=*/i < frozen);
      }

      EXPECT_EQ(std::bit_cast<uint64_t>(loss), std::bit_cast<uint64_t>(reference_loss))
          << "frozen " << frozen << " step " << step;
      const std::vector<float> got = net.GetParameters();
      const std::vector<float> want = reference.GetParameters();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << "frozen " << frozen << " step " << step;
    }
  }
}

// The fused pass against SoftmaxXent on Forward, inline and on a pool of
// four threads, for row counts below, at and above the thread count and on
// both sides of the 64-row blocks it used to cut. Zero input rows give tied
// logits, where the first maximum must win.
TEST(MlpTest, EvaluateMatchesAccuracyAndLossOnForwardBitForBit) {
  Rng rng(53);
  Mlp net({9, 17, 6}, rng);
  ThreadPool pool(3);
  for (size_t rows : {1, 3, 4, 5, 63, 64, 65, 200}) {
    Tensor x = NormalTensor(rows, 9, rng);
    for (size_t j = 0; j < 9; ++j) {
      x.At(rows / 2, j) = 0.0f;
    }
    const std::vector<int> labels = RandomLabels(rows, 6, rng);
    const Tensor logits = net.Forward(x);
    Tensor probs;
    const double loss = SoftmaxXent::Loss(logits, labels, &probs);
    const double accuracy = SoftmaxXent::Accuracy(logits, labels);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const Mlp::Evaluation eval = net.Evaluate(x, labels, p);
      EXPECT_EQ(std::bit_cast<uint64_t>(eval.accuracy), std::bit_cast<uint64_t>(accuracy))
          << rows << " rows";
      EXPECT_EQ(std::bit_cast<uint64_t>(eval.loss), std::bit_cast<uint64_t>(loss))
          << rows << " rows";
    }
  }
}

}  // namespace
}  // namespace floatfl
