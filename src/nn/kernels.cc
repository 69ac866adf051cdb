#include "src/nn/kernels.h"

#include <cstdint>
#include <vector>

namespace floatfl {
namespace {

// The bodies are written once, for a vector of kBytes / 4 floats in GCC's
// generic vector extension, and forced inline into one function per level,
// so each copy is compiled for that level's instruction set. Vectors never
// cross a function boundary by value, which keeps their ABI out of play.
#define FLOATFL_KERNEL_BODY inline __attribute__((always_inline))

// Vectors per block of output columns (MatMul, AddTransposedMatMul) and
// outputs per pass (MatMulTransposed). Eight accumulators hide the add
// latency at every width and fit the 16 registers of baseline x86-64.
constexpr size_t kBlockVectors = 8;

template <size_t kBytes>
struct Lanes {
  typedef float V __attribute__((vector_size(kBytes)));
  static constexpr size_t kCount = kBytes / sizeof(float);
};

// acc[v] += vals[t] * (row idx[t] of b, columns j + v*W .. j + v*W + W - 1),
// for t in order. Each lane is one output column, summed in list order.
template <size_t kBytes, size_t kVectors>
FLOATFL_KERNEL_BODY void AccumulateRows(const float* vals, const uint32_t* idx, size_t n,
                                        const float* b, size_t ldb, size_t j,
                                        typename Lanes<kBytes>::V* acc) {
  using V = typename Lanes<kBytes>::V;
  constexpr size_t kW = Lanes<kBytes>::kCount;
  for (size_t t = 0; t < n; ++t) {
    const float x = vals[t];
    const float* row = b + idx[t] * ldb + j;
#pragma GCC unroll 16
    for (size_t v = 0; v < kVectors; ++v) {
      V bv;
      __builtin_memcpy(&bv, row + v * kW, sizeof(bv));
      acc[v] = acc[v] + x * bv;
    }
  }
}

// The non-zero entries of x[offset + k * stride], k < count, and their k, in
// order: iterating only these is the zero skip, without a branch per product.
FLOATFL_KERNEL_BODY size_t ListNonZeros(const float* x, size_t offset, size_t stride, size_t count,
                                        float* vals, uint32_t* idx) {
  size_t n = 0;
  for (size_t k = 0; k < count; ++k) {
    const float v = x[offset + k * stride];
    vals[n] = v;
    idx[n] = static_cast<uint32_t>(k);
    n += v != 0.0f;
  }
  return n;
}

// The last `tail` columns of b (rows x ldb), copied into whole vectors of kW
// columns with zeros after them. Padding lanes are computed and dropped.
std::vector<float> PadTailColumns(const float* b, size_t rows, size_t ldb, size_t tail,
                                  size_t kW) {
  std::vector<float> padded(tail == 0 ? 0 : rows * kW, 0.0f);
  for (size_t k = 0; k < rows && tail > 0; ++k) {
    for (size_t c = 0; c < tail; ++c) {
      padded[k * kW + c] = b[k * ldb + ldb - tail + c];
    }
  }
  return padded;
}

// Adds the listed rows of b into one row of outputs, kVectors vectors at a
// time, then single vectors, then the padded tail. With kLoad the outputs
// start from their old values, otherwise from +0.0f.
template <size_t kBytes, size_t kVectors, bool kLoad>
FLOATFL_KERNEL_BODY void AccumulateOutputRow(const float* vals, const uint32_t* idx, size_t n,
                                             const float* b, size_t cols, const float* padded,
                                             float* orow) {
  using V = typename Lanes<kBytes>::V;
  constexpr size_t kW = Lanes<kBytes>::kCount;
  constexpr size_t kBlock = kVectors * kW;
  const size_t vectors_end = cols - cols % kW;
  size_t j = 0;
  for (; j + kBlock <= cols; j += kBlock) {
    V acc[kVectors] = {};
    if (kLoad) {
      __builtin_memcpy(acc, orow + j, sizeof(acc));
    }
    AccumulateRows<kBytes, kVectors>(vals, idx, n, b, cols, j, acc);
    __builtin_memcpy(orow + j, acc, sizeof(acc));
  }
  for (; j < vectors_end; j += kW) {
    V acc[1] = {};
    if (kLoad) {
      __builtin_memcpy(acc, orow + j, sizeof(acc));
    }
    AccumulateRows<kBytes, 1>(vals, idx, n, b, cols, j, acc);
    __builtin_memcpy(orow + j, acc, sizeof(acc));
  }
  if (j < cols) {
    const size_t tail = (cols - j) * sizeof(float);
    V acc[1] = {};
    if (kLoad) {
      __builtin_memcpy(acc, orow + j, tail);
    }
    AccumulateRows<kBytes, 1>(vals, idx, n, padded, kW, 0, acc);
    __builtin_memcpy(orow + j, acc, tail);
  }
}

template <size_t kBytes>
FLOATFL_KERNEL_BODY void MatMulBody(const float* a, const float* b, float* out, size_t rows,
                                    size_t depth, size_t cols) {
  constexpr size_t kW = Lanes<kBytes>::kCount;
  const std::vector<float> padded = PadTailColumns(b, depth, cols, cols % kW, kW);
  std::vector<float> vals(depth);
  std::vector<uint32_t> idx(depth);
  for (size_t i = 0; i < rows; ++i) {
    const size_t n = ListNonZeros(a, i * depth, 1, depth, vals.data(), idx.data());
    AccumulateOutputRow<kBytes, kBlockVectors, false>(vals.data(), idx.data(), n, b, cols,
                                                      padded.data(), out + i * cols);
  }
}

template <size_t kBytes>
FLOATFL_KERNEL_BODY void AddTransposedMatMulBody(const float* a, const float* b, float* out,
                                                 size_t batch, size_t depth, size_t cols) {
  constexpr size_t kW = Lanes<kBytes>::kCount;
  const std::vector<float> padded = PadTailColumns(b, batch, cols, cols % kW, kW);
  std::vector<float> vals(batch);
  std::vector<uint32_t> idx(batch);
  for (size_t i = 0; i < depth; ++i) {
    const size_t n = ListNonZeros(a, i, depth, batch, vals.data(), idx.data());
    if (n > 0) {
      AccumulateOutputRow<kBytes, kBlockVectors, true>(vals.data(), idx.data(), n, b, cols,
                                                       padded.data(), out + i * cols);
    }
  }
}

// Outputs (i0 .. i0 + lanes - 1, j .. j + kOutputs - 1): lane l of acc[jj]
// adds a[i0 + l][k] * b[j + jj][k] for k in order. kOutputs output columns
// per pass, so that their add chains overlap.
template <size_t kBytes, size_t kOutputs>
FLOATFL_KERNEL_BODY void DotColumns(const float* transposed, size_t ld, size_t i0,
                                    const float* b, size_t j, size_t depth, float* out,
                                    size_t ldo, size_t lanes) {
  using V = typename Lanes<kBytes>::V;
  V acc[kOutputs] = {};
  for (size_t k = 0; k < depth; ++k) {
    V av;
    __builtin_memcpy(&av, transposed + k * ld + i0, sizeof(av));
#pragma GCC unroll 16
    for (size_t jj = 0; jj < kOutputs; ++jj) {
      acc[jj] = acc[jj] + av * b[(j + jj) * depth + k];
    }
  }
  out += i0 * ldo + j;
  for (size_t jj = 0; jj < kOutputs; ++jj) {
    for (size_t l = 0; l < lanes; ++l) {
      out[l * ldo + jj] = acc[jj][l];
    }
  }
}

template <size_t kBytes>
FLOATFL_KERNEL_BODY void MatMulTransposedBody(const float* a, const float* b, float* out,
                                              size_t rows, size_t depth, size_t outputs) {
  // A serial float sum cannot vectorize, so the lanes are rows of a: a is
  // transposed once, padded with zero rows to whole vectors, and each lane
  // builds one output as an axpy over k. Padding lanes are dropped.
  constexpr size_t kW = Lanes<kBytes>::kCount;
  const size_t padded = (rows + kW - 1) / kW * kW;
  std::vector<float> transposed(depth * padded, 0.0f);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < depth; ++k) {
      transposed[k * padded + i] = a[i * depth + k];
    }
  }
  for (size_t i0 = 0; i0 < rows; i0 += kW) {
    const size_t lanes = rows - i0 < kW ? rows - i0 : kW;
    size_t j = 0;
    for (; j + kBlockVectors <= outputs; j += kBlockVectors) {
      DotColumns<kBytes, kBlockVectors>(transposed.data(), padded, i0, b, j, depth, out, outputs,
                                        lanes);
    }
    for (; j < outputs; ++j) {
      DotColumns<kBytes, 1>(transposed.data(), padded, i0, b, j, depth, out, outputs, lanes);
    }
  }
}

// One set of kernels per level, for vectors of kBytes.
#define FLOATFL_DEFINE_KERNELS(Suffix, kName, Attr, kBytes)                                    \
  Attr void MatMul##Suffix(const float* a, const float* b, float* out, size_t rows,            \
                           size_t depth, size_t cols) {                                         \
    MatMulBody<kBytes>(a, b, out, rows, depth, cols);                                          \
  }                                                                                             \
  Attr void AddTransposedMatMul##Suffix(const float* a, const float* b, float* out,             \
                                        size_t batch, size_t depth, size_t cols) {              \
    AddTransposedMatMulBody<kBytes>(a, b, out, batch, depth, cols);                            \
  }                                                                                             \
  Attr void MatMulTransposed##Suffix(const float* a, const float* b, float* out, size_t rows,  \
                                     size_t depth, size_t outputs) {                            \
    MatMulTransposedBody<kBytes>(a, b, out, rows, depth, outputs);                             \
  }                                                                                             \
  const MatMulKernels k##Suffix##Kernels = {kName, &MatMul##Suffix,                            \
                                            &AddTransposedMatMul##Suffix,                       \
                                            &MatMulTransposed##Suffix};

FLOATFL_DEFINE_KERNELS(Baseline, "baseline", , 16)
#if defined(__x86_64__)
FLOATFL_DEFINE_KERNELS(V3, "x86-64-v3", __attribute__((target("arch=x86-64-v3"))), 32)
FLOATFL_DEFINE_KERNELS(V4, "x86-64-v4", __attribute__((target("arch=x86-64-v4"))), 64)
#endif

}  // namespace

const MatMulKernels* KernelsFor(KernelLevel level) {
  switch (level) {
    case KernelLevel::kBaseline:
      return &kBaselineKernels;
#if defined(__x86_64__)
    // Explicit dispatch rather than ifunc (target_clones): an ifunc resolver
    // runs during relocation, before a sanitizer runtime is up.
    case KernelLevel::kX86_64_V3:
      __builtin_cpu_init();
      return __builtin_cpu_supports("x86-64-v3") ? &kV3Kernels : nullptr;
    case KernelLevel::kX86_64_V4:
      __builtin_cpu_init();
      return __builtin_cpu_supports("x86-64-v4") ? &kV4Kernels : nullptr;
#endif
    default:
      return nullptr;
  }
}

const MatMulKernels& ActiveKernels() {
  static const MatMulKernels* const active = [] {
    for (KernelLevel level : {KernelLevel::kX86_64_V4, KernelLevel::kX86_64_V3}) {
      if (const MatMulKernels* kernels = KernelsFor(level)) {
        return kernels;
      }
    }
    return KernelsFor(KernelLevel::kBaseline);
  }();
  return *active;
}

}  // namespace floatfl
