// Streaming and batch statistics used across the simulator and the agent.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace floatfl {

// Welford online mean/variance accumulator.
class RunningStat {
 public:
  void Add(double x);
  double Mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance (0 for fewer than 2 samples).
  double Variance() const;
  double StdDev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Linear-interpolation percentile of an unsorted sample, p in [0, 100].
// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Mean(const std::vector<double>& values);

// Average of the top `frac` (e.g. 0.10) of values; 0 if empty.
double TopFractionMean(std::vector<double> values, double frac);

// Average of the bottom `frac` of values; 0 if empty.
double BottomFractionMean(std::vector<double> values, double frac);

}  // namespace floatfl

#endif  // SRC_COMMON_STATS_H_
