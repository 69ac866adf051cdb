#include "src/nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"

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

}  // namespace
}  // namespace floatfl
