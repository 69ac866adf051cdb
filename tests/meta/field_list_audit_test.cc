// Every record that `Io` walks through its `Fields` (DESIGN.md §8) must name
// every member there: a config field left out of the list drops out of the
// resume fingerprint, and a counter left out of a book's list is silently
// lost across a resume. This audit counts an aggregate's members with a
// brace-initialization probe and the fields its list names with an archive
// that only counts, and requires the two to agree.
#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "src/admission/admission_config.h"
#include "src/agg/aggregator_config.h"
#include "src/failure/fault_config.h"
#include "src/fl/experiment.h"
#include "src/fl/real_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/guard/guard_config.h"
#include "src/metrics/admission_tracker.h"
#include "src/metrics/aggregation_tracker.h"
#include "src/metrics/guard_tracker.h"
#include "src/metrics/recovery_tracker.h"
#include "src/metrics/salvage_tracker.h"
#include "src/metrics/topology_tracker.h"
#include "src/metrics/transport_tracker.h"
#include "src/net/adaptive_deadline.h"
#include "src/nn/optimizer.h"
#include "src/salvage/salvage_config.h"
#include "src/topology/topology_config.h"

namespace floatfl {
namespace {

// Converts to any member type, so `T{AnyMember{}, ...}` compiles for up to
// as many initializers as T has members.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename T, size_t... I>
constexpr bool InitializableWith(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), AnyMember{})...}; };
}

// The aggregate's member count, as Boost.PFR finds it.
template <typename T, size_t N = 0>
constexpr size_t MemberCount() {
  if constexpr (InitializableWith<T>(std::make_index_sequence<N + 1>{})) {
    return MemberCount<T, N + 1>();
  } else {
    return N;
  }
}

// An archive that only counts the fields a list hands it, nested records
// included as one field each.
struct FieldCounter {
  size_t fields = 0;
};

template <typename... T>
void Io(FieldCounter& counter, const T&...) {
  counter.fields += sizeof...(T);
}

template <typename T>
size_t ListedFields() {
  const T record{};
  FieldCounter counter;
  T::Fields(record, counter);
  return counter.fields;
}

template <typename T>
void ExpectEveryMemberListed(size_t unlisted = 0) {
  static_assert(std::is_aggregate_v<T>);
  EXPECT_EQ(MemberCount<T>(), ListedFields<T>() + unlisted) << __PRETTY_FUNCTION__;
}

TEST(FieldListAuditTest, ConfigsListEveryMember) {
  ExpectEveryMemberListed<FaultConfig>();
  ExpectEveryMemberListed<AggregatorConfig>();
  ExpectEveryMemberListed<AdaptiveDeadlineConfig>();
  ExpectEveryMemberListed<GuardConfig>();
  ExpectEveryMemberListed<TopologyConfig>();
  ExpectEveryMemberListed<AdmissionConfig>();
  ExpectEveryMemberListed<SalvageConfig>();
  ExpectEveryMemberListed<SgdConfig>();
  ExpectEveryMemberListed<VflConfig>();
  // num_threads is the one member the fingerprint leaves out: results do not
  // depend on it.
  ExpectEveryMemberListed<ExperimentConfig>(/*unlisted=*/1);
  ExpectEveryMemberListed<RealFlConfig>(/*unlisted=*/1);
}

TEST(FieldListAuditTest, BooksListEveryCounter) {
  ExpectEveryMemberListed<GuardTracker>();
  ExpectEveryMemberListed<TopologyTracker>();
  ExpectEveryMemberListed<RecoveryTracker>();
  ExpectEveryMemberListed<SalvageTracker>();
  ExpectEveryMemberListed<AdmissionTracker>();
  ExpectEveryMemberListed<TransportTracker>();
  ExpectEveryMemberListed<AggregationTracker>();
  ExpectEveryMemberListed<AggregationRoundRecord>();
}

// The probe itself: it counts members, not initializers a nested aggregate
// could absorb.
TEST(FieldListAuditTest, ProbeCountsMembers) {
  struct Inner {
    int a = 0;
    int b = 0;
  };
  struct Outer {
    Inner inner;
    double x = 0.0;
    bool flag = false;
  };
  EXPECT_EQ(MemberCount<Inner>(), 2u);
  EXPECT_EQ(MemberCount<Outer>(), 3u);
}

}  // namespace
}  // namespace floatfl
