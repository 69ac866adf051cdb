// The three matrix products behind Tensor, compiled once per x86-64 level
// (baseline, v3, v4) and picked at run time from the CPU.
//
// Every variant computes each output with the same IEEE single-precision
// multiplies and adds, in the same order, as the plain loops they replaced,
// so the result is bit-identical whichever variant runs (DESIGN.md §12).
// Only the number of outputs in flight differs: each variant keeps as many
// outputs in vector registers as its register width holds.
#ifndef SRC_NN_KERNELS_H_
#define SRC_NN_KERNELS_H_

#include <cstddef>

namespace floatfl {

struct MatMulKernels {
  const char* name;
  // out (rows x cols) = a (rows x depth) * b (depth x cols). Each output adds
  // a[i][k] * b[k][j] in k order to +0.0f and skips every k with
  // a[i][k] == 0, so a zero input adds nothing, not even 0 * inf.
  void (*mat_mul)(const float* a, const float* b, float* out, size_t rows, size_t depth,
                  size_t cols);
  // out (depth x cols) += a^T * b for a (batch x depth) and b (batch x cols).
  // Each output adds a[k][i] * b[k][j] in k order onto its old value and
  // skips every k with a[k][i] == 0, so a zero input leaves -0.0, inf and NaN
  // outputs alone.
  void (*add_transposed_mat_mul)(const float* a, const float* b, float* out, size_t batch,
                                 size_t depth, size_t cols);
  // out (rows x outputs) = a (rows x depth) * b^T for b (outputs x depth).
  // Each output adds a[i][k] * b[j][k] in k order to +0.0f, zeros included.
  void (*mat_mul_transposed)(const float* a, const float* b, float* out, size_t rows,
                             size_t depth, size_t outputs);
};

// The instruction-set levels the kernels are compiled for, narrowest first.
// Outside x86-64 only kBaseline is built.
enum class KernelLevel { kBaseline, kX86_64_V3, kX86_64_V4 };

// The kernels of `level`, or null when this build does not compile them or
// this CPU cannot run them.
const MatMulKernels* KernelsFor(KernelLevel level);

// The widest kernels this CPU runs, picked once on first use.
const MatMulKernels& ActiveKernels();

}  // namespace floatfl

#endif  // SRC_NN_KERNELS_H_
