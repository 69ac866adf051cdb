#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStat::StdDev() const { return std::sqrt(Variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  FLOATFL_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    return values[0];
  }
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double TopFractionMean(std::vector<double> values, double frac) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end(), std::greater<>());
  const size_t n = std::max<size_t>(1, static_cast<size_t>(values.size() * frac));
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(n);
}

double BottomFractionMean(std::vector<double> values, double frac) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = std::max<size_t>(1, static_cast<size_t>(values.size() * frac));
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(n);
}

}  // namespace floatfl
