#include "src/trace/availability_trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {

AvailabilityTrace::AvailabilityTrace(uint64_t seed, double mean_on_s, double mean_off_s)
    : rng_(seed), mean_on_(mean_on_s), mean_off_(mean_off_s) {
  FLOATFL_CHECK(mean_on_s > 0.0 && mean_off_s > 0.0);
  // Random initial phase.
  const bool start_on = rng_.Bernoulli(mean_on_ / (mean_on_ + mean_off_));
  const double first = rng_.Exponential(start_on ? mean_on_ : mean_off_);
  segments_.push_back({0.0, first, start_on});
}

void AvailabilityTrace::ExtendTo(double time_s) {
  // Fast-forward across very long gaps: the on/off renewal process is
  // ergodic, so restart it near the queried time instead of materializing
  // millions of intermediate segments (also keeps SegmentAt's scan bounded).
  const double horizon = 64.0 * (mean_on_ + mean_off_);
  if (time_s - segments_.back().end > horizon) {
    const double restart = time_s - horizon;
    const bool start_on = rng_.Bernoulli(mean_on_ / (mean_on_ + mean_off_));
    const double first = rng_.Exponential(start_on ? mean_on_ : mean_off_);
    segments_.clear();
    segments_.push_back({restart, restart + first, start_on});
  }
  while (segments_.back().end <= time_s) {
    const Segment& last = segments_.back();
    const bool next_on = !last.on;
    // Diurnal modulation: availability periods are longer at "night"
    // (devices idle and charging). Period of 24 simulated hours.
    const double phase = std::sin(2.0 * M_PI * last.end / 86400.0);
    const double mean = next_on ? mean_on_ * (1.0 + 0.5 * phase) : mean_off_ * (1.0 - 0.3 * phase);
    const double dur = rng_.Exponential(std::max(60.0, mean));
    segments_.push_back({last.end, last.end + dur, next_on});
  }
}

const AvailabilityTrace::Segment& AvailabilityTrace::SegmentAt(double time_s) {
  FLOATFL_CHECK_MSG(time_s >= segments_.front().start,
                    "AvailabilityTrace queried before its retained history (monotonic contract)");
  ExtendTo(time_s);
  // The segments tile [front().start, back().end) and back().end > time_s, so
  // one of them holds time_s. Queries are near-monotonic; scan from the back.
  size_t i = segments_.size() - 1;
  while (time_s < segments_[i].start) {
    --i;
  }
  // No later query can land before this segment: drop the ones it follows.
  segments_.erase(segments_.begin(), segments_.begin() + i);
  return segments_.front();
}

bool AvailabilityTrace::IsAvailableAt(double time_s) { return SegmentAt(time_s).on; }

double AvailabilityTrace::PeriodEndAfter(double time_s) { return SegmentAt(time_s).end; }

bool AvailabilityTrace::AvailableFor(double start_s, double duration_s) {
  const Segment& seg = SegmentAt(start_s);
  return seg.on && seg.end >= start_s + duration_s;
}

}  // namespace floatfl
