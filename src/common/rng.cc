#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>

#include "src/common/check.h"

namespace floatfl {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Polynomials over GF(2) below the characteristic polynomial P, in
// Rng::Skip's layout.
using Poly = std::array<uint64_t, 4>;

// p · x mod P.
Poly TimesX(Poly p) {
  const bool overflow = (p[3] >> 63) != 0;
  for (size_t w = 3; w > 0; --w) {
    p[w] = (p[w] << 1) | (p[w - 1] >> 63);
  }
  p[0] <<= 1;
  if (overflow) {
    for (size_t w = 0; w < 4; ++w) {
      p[w] ^= Rng::kCharacteristicPolynomial[w];
    }
  }
  return p;
}

// a · b mod P, by Horner's rule over b's coefficients from x^255 down.
Poly TimesMod(const Poly& a, const Poly& b) {
  Poly product = {0, 0, 0, 0};
  for (int j = 255; j >= 0; --j) {
    product = TimesX(product);
    if ((b[j / 64] >> (j % 64)) & 1) {
      for (size_t w = 0; w < 4; ++w) {
        product[w] ^= a[w];
      }
    }
  }
  return product;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

void Rng::Step() {
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  Step();
  return result;
}

Rng::Skip::Skip(uint64_t n) : poly_{1, 0, 0, 0} {
  // Left to right over n's bits: square, then multiply by x where the bit
  // is set.
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    poly_ = TimesMod(poly_, poly_);
    if ((n >> bit) & 1) {
      poly_ = TimesX(poly_);
    }
  }
}

void Rng::Discard(uint64_t n) { Discard(Skip(n)); }

void Rng::Discard(const Skip& skip) {
  // By Cayley–Hamilton, x^n ≡ Σ c_j x^j (mod P) means n steps equal the
  // sum (XOR) of the states after j steps, over the j with c_j set.
  uint64_t sum[4] = {0, 0, 0, 0};
  for (uint64_t word : skip.poly_) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word >> bit) & 1) {
        for (size_t w = 0; w < 4; ++w) {
          sum[w] ^= s_[w];
        }
      }
      Step();
    }
  }
  std::copy(std::begin(sum), std::end(sum), s_);
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::UniformInt(uint64_t n) {
  FLOATFL_CHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double median, double sigma) {
  FLOATFL_CHECK(median > 0.0);
  return median * std::exp(sigma * Normal());
}

double Rng::Exponential(double mean) {
  FLOATFL_CHECK(mean > 0.0);
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -mean * std::log(u);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  return WeightedIndex(weights, WeightTotal(weights));
}

double Rng::WeightTotal(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    }
  }
  return total;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights, double total) {
  FLOATFL_CHECK(!weights.empty());
  if (total <= 0.0) {
    return static_cast<size_t>(UniformInt(weights.size()));
  }
  double r = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) {
      return i;
    }
    r -= w;
  }
  return weights.size() - 1;
}

double Rng::Gamma(double shape) {
  FLOATFL_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
    const double u = std::max(NextDouble(), 1e-300);
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) {
      continue;
    }
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(double alpha, size_t k) {
  FLOATFL_CHECK(alpha > 0.0);
  FLOATFL_CHECK(k > 0);
  std::vector<double> out(k);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    out[i] = Gamma(alpha);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Extremely small alpha can underflow every marginal; fall back to a
    // one-hot draw, which is the correct limiting behaviour.
    const size_t hot = static_cast<size_t>(UniformInt(k));
    for (size_t i = 0; i < k; ++i) {
      out[i] = (i == hot) ? 1.0 : 0.0;
    }
    return out;
  }
  for (auto& v : out) {
    v /= sum;
  }
  return out;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(UniformInt(i));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng Rng::ForkKeyed(uint64_t key) const {
  // Hash the full parent state together with the key through a SplitMix64
  // chain so distinct keys (and distinct parents) seed unrelated streams.
  uint64_t acc = key ^ 0xD1B54A32D192ED03ULL;
  for (uint64_t s : s_) {
    acc = SplitMix64(acc) ^ s;
  }
  return Rng(SplitMix64(acc));
}

std::array<uint64_t, 6> Rng::SaveRaw() const {
  std::array<uint64_t, 6> raw;
  for (size_t i = 0; i < 4; ++i) {
    raw[i] = s_[i];
  }
  raw[4] = has_cached_normal_ ? 1 : 0;
  std::memcpy(&raw[5], &cached_normal_, sizeof(raw[5]));
  return raw;
}

void Rng::RestoreRaw(const std::array<uint64_t, 6>& raw) {
  for (size_t i = 0; i < 4; ++i) {
    s_[i] = raw[i];
  }
  has_cached_normal_ = raw[4] != 0;
  std::memcpy(&cached_normal_, &raw[5], sizeof(cached_normal_));
}

}  // namespace floatfl
