// Empty-state save/restore (DESIGN.md §10): a TransportTracker with zero
// recorded transfers and an AdaptiveDeadlineController with zero observed
// rounds must round-trip through the checkpoint walk bit-exactly — the
// degenerate "checkpoint taken before anything happened" case every
// freshly-constructed engine hits.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/metrics/transport_tracker.h"
#include "src/net/adaptive_deadline.h"

namespace floatfl {
namespace {

TEST(EmptyStateTest, TransportTrackerZeroTransfersRoundTrips) {
  const TransportTracker fresh;
  CheckpointWriter w;
  Io(w, fresh);

  TransportTracker restored;
  restored.Record(3, 12.0, 4.0, 1.0, 0.5, 2.5, true);  // dirty, then overwritten
  CheckpointReader r(w.buffer());
  Io(r, restored);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.transfers, 0u);
  EXPECT_EQ(restored.attempts, 0u);
  EXPECT_EQ(restored.timeouts, 0u);
  EXPECT_EQ(restored.wire_mb, 0.0);
  EXPECT_EQ(restored.retransmitted_mb, 0.0);
  EXPECT_EQ(restored.salvaged_mb, 0.0);
  EXPECT_EQ(restored.backoff_s, 0.0);

  // Re-serialization is byte-identical: nothing drifted through the trip.
  CheckpointWriter w2;
  Io(w2, restored);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(EmptyStateTest, AdaptiveDeadlineControllerZeroRoundsRoundTrips) {
  AdaptiveDeadlineConfig config;
  config.enabled = true;
  const AdaptiveDeadlineController fresh(config, 16, 30.0);
  CheckpointWriter w;
  fresh.SaveState(w);

  AdaptiveDeadlineController restored(config, 16, 30.0);
  restored.Observe(4, 12.0, 80.0);  // dirty, then overwritten
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  // With no observed client the proposal is still the base deadline, and no
  // client has a throughput estimate.
  EXPECT_EQ(restored.CurrentDeadline(), 30.0);
  EXPECT_EQ(restored.CurrentDeadline(), fresh.CurrentDeadline());
  for (size_t c = 0; c < 16; ++c) {
    EXPECT_EQ(restored.ThroughputEstimate(c), 0.0);
  }

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(EmptyStateTest, DefaultConstructedControllerRoundTrips) {
  // The disabled default (what a star-topology engine embeds for the edge
  // tier) must survive the trip too: empty vectors, zero base deadline.
  const AdaptiveDeadlineController fresh;
  CheckpointWriter w;
  fresh.SaveState(w);

  AdaptiveDeadlineController restored;
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_FALSE(restored.enabled());

  CheckpointWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

}  // namespace
}  // namespace floatfl
