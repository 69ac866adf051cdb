#include "src/nn/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/kernels.h"

namespace floatfl {
namespace {

TEST(TensorTest, ConstructionAndFill) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.At(1, 2), 1.5f);
}

TEST(TensorTest, FromVector) {
  const Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_FLOAT_EQ(t.At(0, 1), 2.0f);
}

TEST(TensorTest, MatMulKnownResult) {
  Tensor a(2, 3);
  // [[1,2,3],[4,5,6]]
  float va = 1.0f;
  for (auto& x : a.flat()) {
    x = va++;
  }
  Tensor b(3, 2);
  // [[7,8],[9,10],[11,12]]
  float vb = 7.0f;
  for (auto& x : b.flat()) {
    x = vb++;
  }
  const Tensor c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(TensorTest, MatMulTransposedMatchesExplicit) {
  Rng rng(3);
  const Tensor a = Tensor::GlorotUniform(4, 5, rng);
  const Tensor b = Tensor::GlorotUniform(3, 5, rng);
  const Tensor direct = a.MatMulTransposed(b);  // 4x3
  // Build b^T explicitly and compare with MatMul.
  Tensor bt(5, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      bt.At(j, i) = b.At(i, j);
    }
  }
  const Tensor expected = a.MatMul(bt);
  ASSERT_TRUE(direct.SameShape(expected));
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.flat()[i], expected.flat()[i], 1e-5);
  }
}

TEST(TensorTest, TransposedMatMulMatchesExplicit) {
  Rng rng(5);
  const Tensor a = Tensor::GlorotUniform(6, 4, rng);
  const Tensor b = Tensor::GlorotUniform(6, 3, rng);
  const Tensor direct = a.TransposedMatMul(b);  // 4x3
  Tensor at(4, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      at.At(j, i) = a.At(i, j);
    }
  }
  const Tensor expected = at.MatMul(b);
  ASSERT_TRUE(direct.SameShape(expected));
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.flat()[i], expected.flat()[i], 1e-5);
  }
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(1, 3, 2.0f);
  Tensor b(1, 3, 3.0f);
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 5.0f);
  a.SubInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 1), 2.0f);
  a.MulInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 2), 6.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_FLOAT_EQ(a.At(0, 0), 3.0f);
}

TEST(TensorTest, AddRowBroadcast) {
  Tensor a(2, 3, 1.0f);
  const Tensor row = Tensor::FromVector({10.0f, 20.0f, 30.0f});
  a.AddRowBroadcast(row);
  EXPECT_FLOAT_EQ(a.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(a.At(1, 2), 31.0f);
}

TEST(TensorTest, ColSum) {
  Tensor a(2, 2);
  a.At(0, 0) = 1.0f;
  a.At(0, 1) = 2.0f;
  a.At(1, 0) = 3.0f;
  a.At(1, 1) = 4.0f;
  const Tensor sum = a.ColSum();
  EXPECT_FLOAT_EQ(sum.At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(sum.At(0, 1), 6.0f);
}

TEST(TensorTest, Norms) {
  const Tensor t = Tensor::FromVector({3.0f, -4.0f});
  EXPECT_NEAR(t.L2Norm(), 5.0, 1e-9);
  EXPECT_NEAR(t.MaxAbs(), 4.0, 1e-9);
}

TEST(TensorTest, GlorotUniformWithinLimit) {
  Rng rng(7);
  const Tensor t = Tensor::GlorotUniform(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (float x : t.flat()) {
    EXPECT_LE(std::fabs(x), limit + 1e-6);
  }
  // Not all zero.
  EXPECT_GT(t.L2Norm(), 0.0);
}

// The loops the kernels replaced survive here as their oracles.

// MatMul's zero-skipping axpy: out(i, j) summed in k order from 0.0f,
// skipping every k with a(i, k) == 0.
Tensor AxpyMatMulOracle(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const float x = a.At(i, k);
      if (x == 0.0f) {
        continue;
      }
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += x * b.At(k, j);
      }
    }
  }
  return out;
}

// AddTransposedMatMul's in-place axpy: out(i, j) += a(k, i) * b(k, j) in k
// order, skipping every k with a(k, i) == 0.
void AxpyAddTransposedMatMulOracle(Tensor& out, const Tensor& a, const Tensor& b) {
  for (size_t k = 0; k < a.rows(); ++k) {
    for (size_t i = 0; i < a.cols(); ++i) {
      const float x = a.At(k, i);
      if (x == 0.0f) {
        continue;
      }
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += x * b.At(k, j);
      }
    }
  }
}

// The dot product MatMulTransposed used to compute: out(i, j) summed in k
// order from 0.0f, no zero skipped.
Tensor DotProductOracle(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += a.At(i, k) * b.At(j, k);
      }
      out.At(i, j) = acc;
    }
  }
  return out;
}

// Random values with signed zeros and subnormals mixed in, plus infinities
// and NaNs in every fifth row (row 2, 7, ...), so that the other rows'
// products stay finite and are compared as finite sums.
Tensor SpecialValueTensor(size_t rows, size_t cols, Rng& rng) {
  // The NaN the hardware itself produces (Inf * 0), so every NaN in play has
  // one bit pattern and the operand order of a NaN + NaN cannot matter.
  volatile float zero = 0.0f;
  const float nan = std::numeric_limits<float>::infinity() * zero;
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            nan};
  Tensor t(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    const size_t kinds = r % 5 == 2 ? 7 : 4;
    for (size_t c = 0; c < cols; ++c) {
      t.At(r, c) = rng.NextDouble() < 0.1 ? specials[rng.UniformInt(kinds)]
                                          : static_cast<float>(rng.Normal());
    }
  }
  return t;
}

// Zeroes about half of the entries, as ReLU does to a hidden layer's output.
// Some become -0.0, which the zero skip must treat like +0.0.
void ZeroHalf(Tensor& t, Rng& rng) {
  for (float& x : t.flat()) {
    if (rng.NextDouble() < 0.5) {
      x = rng.NextDouble() < 0.25 ? -0.0f : 0.0f;
    }
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(TensorTest, MatMulTransposedMatchesDotProductOracleBitForBit) {
  // {batch, depth, outputs}: a is batch x depth, b is outputs x depth.
  const size_t shapes[][3] = {{1, 1, 1}, {20, 10, 128}, {20, 256, 64}, {33, 257, 17}};
  Rng rng(41);
  size_t finite = 0;
  size_t nonfinite = 0;
  for (const auto& shape : shapes) {
    const Tensor a = SpecialValueTensor(shape[0], shape[1], rng);
    const Tensor b = SpecialValueTensor(shape[2], shape[1], rng);
    const Tensor got = a.MatMulTransposed(b);
    const Tensor want = DotProductOracle(a, b);
    ASSERT_TRUE(got.SameShape(want));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << shape[0] << "x" << shape[1] << " -> " << shape[2];
    for (float x : want.flat()) {
      ++(std::isfinite(x) ? finite : nonfinite);
    }
  }
  // Both kinds of output were compared.
  EXPECT_GT(finite, 1000u);
  EXPECT_GT(nonfinite, 100u);
}

// DenseLayer::Backward accumulates its weight gradient in place into the
// cleared gradient. That must give the bits of adding a fresh product to
// it, signed zeros and non-finite values included.
TEST(TensorTest, AddTransposedMatMulIntoZerosMatchesAddingTheProduct) {
  Rng rng(43);
  const Tensor a = SpecialValueTensor(20, 64, rng);
  const Tensor b = SpecialValueTensor(20, 33, rng);
  Tensor added(64, 33);
  added.AddInPlace(a.TransposedMatMul(b));
  Tensor accumulated(64, 33);
  accumulated.AddTransposedMatMul(a, b);
  EXPECT_EQ(std::memcmp(accumulated.data(), added.data(), added.size() * sizeof(float)), 0);
}

const char* LevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kBaseline:
      return "baseline";
    case KernelLevel::kX86_64_V3:
      return "x86-64-v3";
    case KernelLevel::kX86_64_V4:
      return "x86-64-v4";
  }
  return "unknown";
}

// Each kernel variant the host runs, called directly rather than through the
// dispatch, against the loops it replaced, compared bit for bit. Operands
// carry signed zeros, subnormals, infinities and NaN at the real engine's
// shapes (batch 20, a 64-256-128-10 MLP, 64-row evaluate blocks) and at tails
// that no whole block of columns or rows covers.
class KernelVariantTest : public ::testing::TestWithParam<KernelLevel> {
 protected:
  void SetUp() override {
    kernels_ = KernelsFor(GetParam());
    if (kernels_ == nullptr) {
      GTEST_SKIP() << LevelName(GetParam())
                   << " kernels: not built for this target or not run by this CPU";
    }
  }

  struct Shape {
    size_t rows, depth, cols;
    bool half_zero;  // the left operand as after a ReLU
  };

  const MatMulKernels* kernels_ = nullptr;
};

TEST_P(KernelVariantTest, MatMulMatchesAxpyOracleBitForBit) {
  EXPECT_STREQ(kernels_->name, LevelName(GetParam()));
  const Shape shapes[] = {{20, 64, 256, false}, {20, 256, 128, true}, {20, 128, 10, true},
                          {64, 64, 256, false}, {64, 256, 128, true}, {64, 128, 10, true},
                          {1, 1, 1, false},     {33, 257, 65, true},  {20, 64, 130, false}};
  Rng rng(47);
  size_t finite = 0;
  size_t nonfinite = 0;
  for (const Shape& shape : shapes) {
    Tensor a = SpecialValueTensor(shape.rows, shape.depth, rng);
    if (shape.half_zero) {
      ZeroHalf(a, rng);
    }
    const Tensor b = SpecialValueTensor(shape.depth, shape.cols, rng);
    Tensor got(shape.rows, shape.cols, 1.0f);
    kernels_->mat_mul(a.data(), b.data(), got.data(), shape.rows, shape.depth, shape.cols);
    const Tensor want = AxpyMatMulOracle(a, b);
    EXPECT_TRUE(SameBits(got, want)) << shape.rows << "x" << shape.depth << " -> " << shape.cols;
    for (float x : want.flat()) {
      ++(std::isfinite(x) ? finite : nonfinite);
    }
  }
  EXPECT_GT(finite, 10000u);
  EXPECT_GT(nonfinite, 1000u);
}

TEST_P(KernelVariantTest, AddTransposedMatMulMatchesAxpyOracleBitForBit) {
  // {batch, depth, cols}: a is batch x depth, b batch x cols, the gradient
  // depth x cols.
  const Shape shapes[] = {{20, 64, 256, false}, {20, 256, 128, true}, {20, 128, 10, true},
                          {1, 1, 1, false},     {33, 257, 65, true},  {20, 64, 130, false}};
  volatile float zero = 0.0f;
  const float nan = std::numeric_limits<float>::infinity() * zero;
  const float held[] = {-0.0f, std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(), nan};
  Rng rng(53);
  for (const Shape& shape : shapes) {
    Tensor a = SpecialValueTensor(shape.rows, shape.depth, rng);
    if (shape.half_zero) {
      ZeroHalf(a, rng);
    }
    // Column 0 of a is all zeros, so row 0 of the gradient must keep its
    // bits whatever they are.
    for (size_t k = 0; k < shape.rows; ++k) {
      a.At(k, 0) = k % 2 == 0 ? 0.0f : -0.0f;
    }
    const Tensor b = SpecialValueTensor(shape.rows, shape.cols, rng);
    // A gradient already holding -0.0, +-inf and NaN among finite values.
    Tensor start = SpecialValueTensor(shape.depth, shape.cols, rng);
    for (size_t j = 0; j < start.size(); j += 3) {
      start.flat()[j] = held[(j / 3) % 4];
    }
    Tensor got = start;
    kernels_->add_transposed_mat_mul(a.data(), b.data(), got.data(), shape.rows, shape.depth,
                                     shape.cols);
    Tensor want = start;
    AxpyAddTransposedMatMulOracle(want, a, b);
    EXPECT_TRUE(SameBits(got, want)) << shape.rows << "x" << shape.depth << " -> " << shape.cols;
    EXPECT_EQ(std::memcmp(got.data(), start.data(), shape.cols * sizeof(float)), 0)
        << "a zero input changed the gradient, " << shape.rows << "x" << shape.depth << " -> "
        << shape.cols;
  }
}

TEST_P(KernelVariantTest, MatMulTransposedMatchesDotProductOracleBitForBit) {
  // {rows, depth, outputs}: a is rows x depth, b outputs x depth. The real
  // engine's input gradients are 20x10 -> 128 and 20x128 -> 256.
  const Shape shapes[] = {{20, 10, 128, false}, {20, 128, 256, true}, {20, 64, 256, false},
                          {64, 128, 10, false}, {1, 1, 1, false},     {33, 257, 65, true},
                          {20, 64, 130, false}};
  Rng rng(59);
  size_t finite = 0;
  size_t nonfinite = 0;
  for (const Shape& shape : shapes) {
    Tensor a = SpecialValueTensor(shape.rows, shape.depth, rng);
    if (shape.half_zero) {
      ZeroHalf(a, rng);
    }
    const Tensor b = SpecialValueTensor(shape.cols, shape.depth, rng);
    Tensor got(shape.rows, shape.cols, 1.0f);
    kernels_->mat_mul_transposed(a.data(), b.data(), got.data(), shape.rows, shape.depth,
                                 shape.cols);
    const Tensor want = DotProductOracle(a, b);
    EXPECT_TRUE(SameBits(got, want)) << shape.rows << "x" << shape.depth << " -> " << shape.cols;
    for (float x : want.flat()) {
      ++(std::isfinite(x) ? finite : nonfinite);
    }
  }
  EXPECT_GT(finite, 10000u);
  EXPECT_GT(nonfinite, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Levels, KernelVariantTest,
                         ::testing::Values(KernelLevel::kBaseline, KernelLevel::kX86_64_V3,
                                           KernelLevel::kX86_64_V4),
                         [](const ::testing::TestParamInfo<KernelLevel>& level) {
                           std::string name = LevelName(level.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Tensor's products run the widest variant the CPU supports.
TEST(TensorTest, DispatchPicksTheWidestSupportedKernels) {
  const MatMulKernels* widest = KernelsFor(KernelLevel::kBaseline);
  for (KernelLevel level : {KernelLevel::kX86_64_V3, KernelLevel::kX86_64_V4}) {
    if (const MatMulKernels* kernels = KernelsFor(level)) {
      widest = kernels;
    }
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_EQ(&ActiveKernels(), widest) << "dispatched " << ActiveKernels().name;
}

}  // namespace
}  // namespace floatfl
