// Synthetic per-client availability (energy/charging/willingness) process.
//
// Stand-in for the smartphone availability trace of Yang et al. [76]: an
// alternating-renewal on/off process with diurnal modulation. A client can
// only be selected while available and drops out of a round if availability
// ends before it finishes (battery drained, user reclaimed the device).
#ifndef SRC_TRACE_AVAILABILITY_TRACE_H_
#define SRC_TRACE_AVAILABILITY_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

class AvailabilityTrace {
 public:
  // mean_on_s / mean_off_s: mean durations of available/unavailable periods.
  AvailabilityTrace(uint64_t seed, double mean_on_s = 9000.0, double mean_off_s = 3000.0);

  // Queries at `time_s` (`start_s` for AvailableFor) follow the
  // monotonic-time contract as in NetworkTrace: they MUST be non-decreasing
  // in time — the engines and selectors all query at the current simulated
  // time. Each query drops the periods that ended before the one holding
  // `time_s`, and a query before the retained history aborts (FLOATFL_CHECK)
  // rather than answering from the wrong period.
  bool IsAvailableAt(double time_s);

  // Time at which the current period (on or off) ends, > time_s.
  double PeriodEndAfter(double time_s);

  // True iff the client stays available over the whole [start, start+dur).
  bool AvailableFor(double start_s, double duration_s);

  // Checkpoint/resume: the retained segments plus the RNG stream, so a
  // restored trace continues the exact same renewal process.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.rng_, self.segments_);
  }

  struct Segment {
    double start;
    double end;
    bool on;

    template <typename Self, typename Archive>
    static void Fields(Self& self, Archive& a) {
      Io(a, self.start, self.end, self.on);
    }
  };

  void ExtendTo(double time_s);
  // The segment holding time_s; drops every segment before it.
  const Segment& SegmentAt(double time_s);

  Rng rng_;
  double mean_on_;
  double mean_off_;
  std::vector<Segment> segments_;
};

}  // namespace floatfl

#endif  // SRC_TRACE_AVAILABILITY_TRACE_H_
