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
  a.ScaleInPlace(0.5f);
  EXPECT_FLOAT_EQ(a.At(0, 2), 2.5f);
}

TEST(TensorTest, AddRowBroadcast) {
  Tensor a(2, 3, 1.0f);
  Tensor row(1, 3);
  row.flat() = {10.0f, 20.0f, 30.0f};
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

TEST(TensorTest, GlorotUniformWithinLimit) {
  Rng rng(7);
  const Tensor t = Tensor::GlorotUniform(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (float x : t.flat()) {
    EXPECT_LE(std::fabs(x), limit + 1e-6);
  }
  // Not all zero.
  EXPECT_TRUE(std::any_of(t.flat().begin(), t.flat().end(), [](float x) { return x != 0.0f; }));
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

  const Kernels* kernels_ = nullptr;
};

// The rows of b in one of MatMul's k tiles: 32 KB of them (kTileBytes in
// src/nn/kernels.cc).
size_t TileDepth(size_t cols) { return std::max<size_t>(1, 32 * 1024 / (cols * sizeof(float))); }

TEST_P(KernelVariantTest, MatMulMatchesAxpyOracleBitForBit) {
  EXPECT_STREQ(kernels_->name, LevelName(GetParam()));
  // The engine's shapes, then depths one short of a k tile, one tile, one
  // past it, and three tiles plus a remainder, at 1 and 64 rows (a tile is
  // 32 rows of b at 256 columns, 63 at 130).
  const Shape shapes[] = {{20, 64, 256, false}, {20, 256, 128, true}, {20, 128, 10, true},
                          {64, 64, 256, false}, {64, 256, 128, true}, {64, 128, 10, true},
                          {1, 1, 1, false},     {33, 257, 65, true},  {20, 64, 130, false},
                          {1, 31, 256, false},  {1, 32, 256, true},   {1, 33, 256, false},
                          {64, 31, 256, true},  {64, 32, 256, false}, {64, 33, 256, true},
                          {1, 101, 256, true},  {64, 101, 256, false}, {64, 196, 130, true}};
  Rng rng(47);
  size_t finite = 0;
  size_t nonfinite = 0;
  for (const Shape& shape : shapes) {
    Tensor a = SpecialValueTensor(shape.rows, shape.depth, rng);
    if (shape.half_zero) {
      ZeroHalf(a, rng);
    }
    // Row 0's inputs are all zero inside the second k tile, so its outputs
    // must come through that tile unchanged.
    const size_t tile = TileDepth(shape.cols);
    for (size_t k = tile; k < std::min(2 * tile, shape.depth); ++k) {
      a.At(0, k) = k % 2 == 0 ? 0.0f : -0.0f;
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

// The update check the real engine ran before the lane sum: every value
// finite, and the L2 norm, summed in double in index order, at most the
// threshold.
bool SequentialNormVerdict(const std::vector<float>& x, double threshold) {
  double sq = 0.0;
  for (float p : x) {
    if (!std::isfinite(p)) {
      return false;
    }
    sq += static_cast<double>(p) * static_cast<double>(p);
  }
  return std::sqrt(sq) <= threshold;
}

// That loop's norm of an all-finite vector.
double SequentialNorm(const std::vector<float>& x) {
  double sq = 0.0;
  for (float p : x) {
    sq += static_cast<double>(p) * static_cast<double>(p);
  }
  return std::sqrt(sq);
}

// FiniteWithNormAtMost against the sequential loop, at thresholds one ulp
// below, at and one ulp above each update's norm, where the lane sum alone
// gets the verdict wrong, and on non-finite values, infinite and degenerate
// thresholds, and empty and one-element updates.
TEST_P(KernelVariantTest, NormVerdictMatchesTheSequentialLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(61);
  size_t checked = 0;
  size_t lane_sum_wrong = 0;
  const auto check = [&](const std::vector<float>& x, double threshold) {
    EXPECT_EQ(FiniteWithNormAtMost(x.data(), x.size(), threshold, *kernels_),
              SequentialNormVerdict(x, threshold))
        << x.size() << " values, threshold " << threshold;
    ++checked;
  };
  // Random updates at three magnitudes; a power-of-two scale keeps every
  // square exact.
  for (size_t n : {2, 7, 33, 1000, 50826}) {
    for (float scale : {0x1p-60f, 1.0f, 0x1p60f}) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<float> x(n);
        for (float& p : x) {
          p = static_cast<float>(rng.Normal()) * scale;
        }
        const double norm = SequentialNorm(x);
        const double lane_norm = std::sqrt(kernels_->sum_squares(x.data(), n));
        for (double threshold :
             {std::nextafter(norm, 0.0), norm, std::nextafter(norm, inf), norm * 0.5, norm * 2.0,
              1e4, inf}) {
          check(x, threshold);
          lane_sum_wrong += (lane_norm <= threshold) != (norm <= threshold);
        }
      }
    }
  }
  // A NaN or an infinity at the first, a middle and the last index.
  const float nonfinite[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  for (size_t n : {1, 1000, 50826}) {
    for (float bad : nonfinite) {
      for (size_t at : {size_t{0}, n / 2, n - 1}) {
        std::vector<float> x(n);
        for (float& p : x) {
          p = static_cast<float>(rng.Normal());
        }
        x[at] = bad;
        check(x, 1e4);
        check(x, inf);
      }
    }
  }
  // Empty and one-element updates, and thresholds of zero, below zero and
  // NaN.
  const std::vector<double> thresholds = {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                          1e-300, 1.0, inf};
  for (double threshold : thresholds) {
    check({}, threshold);
  }
  const float singles[] = {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(), 1.0f, -3.5f,
                           std::numeric_limits<float>::max()};
  for (float value : singles) {
    const std::vector<float> x = {value};
    const double norm = std::fabs(static_cast<double>(value));
    for (double threshold : thresholds) {
      check(x, threshold);
    }
    for (double threshold : {std::nextafter(norm, 0.0), norm, std::nextafter(norm, inf)}) {
      check(x, threshold);
    }
  }
  EXPECT_GT(checked, 900u);
  // The near-threshold cases reach the sequential fallback: the lane sum's
  // own verdict differs from the loop's on some of them.
  EXPECT_GT(lane_sum_wrong, 10u);
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
  const Kernels* widest = KernelsFor(KernelLevel::kBaseline);
  for (KernelLevel level : {KernelLevel::kX86_64_V3, KernelLevel::kX86_64_V4}) {
    if (const Kernels* kernels = KernelsFor(level)) {
      widest = kernels;
    }
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_EQ(&ActiveKernels(), widest) << "dispatched " << ActiveKernels().name;
}

}  // namespace
}  // namespace floatfl
