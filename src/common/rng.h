// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component of the simulation draws from an Rng seeded from
// the experiment seed, so whole experiments are reproducible bit-for-bit.
// The generator is xoshiro256++ (public-domain algorithm by Blackman &
// Vigna), seeded through SplitMix64 so that nearby seeds give independent
// streams.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace floatfl {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform over the full 64-bit range.
  uint64_t NextU64();

  // The low 256 coefficients of the generator's degree-256 characteristic
  // polynomial P(x), the coefficient of x^j in bit j % 64 of word j / 64;
  // x^256's is implied. The state update is linear over GF(2), so P of the
  // update is zero.
  static constexpr std::array<uint64_t, 4> kCharacteristicPolynomial = {
      0x9D116F2BB0F0F001ULL, 0x0280002BCEFD1A5EULL, 0x04B4EDCF26259F85ULL,
      0x0003C03C3F3ECB19ULL};

  // n NextU64 steps as one polynomial, x^n mod P(x): applying it costs at
  // most 256 steps, however large n is. Building it costs one squaring mod P
  // per bit of n, tens of microseconds, so build one per distinct n and
  // reuse it.
  class Skip {
   public:
    explicit Skip(uint64_t n);

   private:
    friend class Rng;
    std::array<uint64_t, 4> poly_;  // bit j of word j / 64 is x^j's coefficient
  };

  // Advances the stream past n NextU64 draws, leaving the Box–Muller cache
  // as it is: the state n NextU64 calls would leave.
  void Discard(uint64_t n);
  // The same for the skip's n.
  void Discard(const Skip& skip);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Standard normal via Box–Muller (cached pair).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Log-normal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma` (in log space).
  double LogNormal(double median, double sigma);

  // Exponential with the given mean. Requires mean > 0.
  double Exponential(double mean);

  // Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Non-positive weights are treated as zero; if all weights are zero the
  // index is uniform.
  size_t WeightedIndex(const std::vector<double>& weights);
  // The same draw, given WeightTotal(weights): for many draws from one
  // distribution.
  size_t WeightedIndex(const std::vector<double>& weights, double total);
  // The sum of the positive weights, in index order.
  static double WeightTotal(const std::vector<double>& weights);

  // Samples from a symmetric Dirichlet distribution with concentration
  // `alpha` over `k` categories (via Gamma(alpha, 1) marginals).
  std::vector<double> Dirichlet(double alpha, size_t k);

  // Gamma(shape, 1) sample (Marsaglia–Tsang, with boost for shape < 1).
  double Gamma(double shape);

  // Fisher–Yates shuffle of indices [0, n); returns the permutation.
  std::vector<size_t> Permutation(size_t n);

  // Forks an independent stream; deterministic given this stream's state.
  // Advances this stream by one draw, so successive Fork() calls yield
  // distinct children in a fixed order.
  Rng Fork();

  // Forks an independent stream addressed by `key` WITHOUT advancing this
  // stream: the same (parent state, key) pair always yields the same child,
  // and distinct keys yield decorrelated children. The engines key
  // per-client streams by StreamKey(round, client_id), which is what makes
  // parallel client simulation independent of the order — and the thread —
  // in which clients run.
  Rng ForkKeyed(uint64_t key) const;

  // Injective (a, b) -> key packing for ForkKeyed, for a, b < 2^32 (rounds
  // and client ids in any realistic experiment).
  static uint64_t StreamKey(uint64_t a, uint64_t b) { return (a << 32) ^ b; }

  // Raw engine state for checkpoint/resume: the four xoshiro words plus the
  // Box–Muller cache. RestoreRaw reproduces the stream bit-for-bit.
  std::array<uint64_t, 6> SaveRaw() const;
  void RestoreRaw(const std::array<uint64_t, 6>& raw);

 private:
  // The state update behind every draw.
  void Step();

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace floatfl

#endif  // SRC_COMMON_RNG_H_
