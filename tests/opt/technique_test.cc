#include "src/opt/technique.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <utility>

namespace floatfl {
namespace {

TEST(TechniqueTest, EffectsAreSane) {
  for (TechniqueKind kind : AllTechniques()) {
    const CostEffect& effect = EffectOf(kind);
    EXPECT_GT(effect.compute_mult, 0.0) << ToString(kind);
    EXPECT_LE(effect.compute_mult, 1.2) << ToString(kind);
    EXPECT_GT(effect.comm_mult, 0.0) << ToString(kind);
    EXPECT_LE(effect.comm_mult, 1.0) << ToString(kind);
    EXPECT_GT(effect.memory_mult, 0.0) << ToString(kind);
    EXPECT_LE(effect.memory_mult, 1.0) << ToString(kind);
    EXPECT_GE(effect.accuracy_impact, 0.0) << ToString(kind);
    EXPECT_LT(effect.accuracy_impact, 0.5) << ToString(kind);
  }
}

TEST(TechniqueTest, NoneIsIdentity) {
  const CostEffect& none = EffectOf(TechniqueKind::kNone);
  EXPECT_DOUBLE_EQ(none.compute_mult, 1.0);
  EXPECT_DOUBLE_EQ(none.comm_mult, 1.0);
  EXPECT_DOUBLE_EQ(none.memory_mult, 1.0);
  EXPECT_DOUBLE_EQ(none.accuracy_impact, 0.0);
}

TEST(TechniqueTest, AggressivenessMonotonicity) {
  // More aggressive configurations of the same technique must save more and
  // cost more accuracy.
  EXPECT_LT(EffectOf(TechniqueKind::kPrune75).compute_mult,
            EffectOf(TechniqueKind::kPrune50).compute_mult);
  EXPECT_LT(EffectOf(TechniqueKind::kPrune50).compute_mult,
            EffectOf(TechniqueKind::kPrune25).compute_mult);
  EXPECT_GT(EffectOf(TechniqueKind::kPrune75).accuracy_impact,
            EffectOf(TechniqueKind::kPrune25).accuracy_impact);
  EXPECT_LT(EffectOf(TechniqueKind::kQuant8).comm_mult,
            EffectOf(TechniqueKind::kQuant16).comm_mult);
  EXPECT_GT(EffectOf(TechniqueKind::kQuant8).accuracy_impact,
            EffectOf(TechniqueKind::kQuant16).accuracy_impact);
  EXPECT_LT(EffectOf(TechniqueKind::kPartial75).compute_mult,
            EffectOf(TechniqueKind::kPartial25).compute_mult);
}

TEST(TechniqueTest, PartialTrainingDoesNotReduceCommunication) {
  for (TechniqueKind kind :
       {TechniqueKind::kPartial25, TechniqueKind::kPartial50, TechniqueKind::kPartial75}) {
    EXPECT_DOUBLE_EQ(EffectOf(kind).comm_mult, 1.0) << ToString(kind);
  }
}

TEST(TechniqueTest, QuantizationHalvesAndQuartersTraffic) {
  EXPECT_DOUBLE_EQ(EffectOf(TechniqueKind::kQuant16).comm_mult, 0.5);
  EXPECT_DOUBLE_EQ(EffectOf(TechniqueKind::kQuant8).comm_mult, 0.25);
  // Quantization adds (small) compute overhead.
  EXPECT_GT(EffectOf(TechniqueKind::kQuant16).compute_mult, 1.0);
}

TEST(TechniqueTest, ActionSpaceContents) {
  const auto& actions = ActionTechniques();
  EXPECT_EQ(actions.size(), 9u);
  const std::set<TechniqueKind> action_set(actions.begin(), actions.end());
  EXPECT_TRUE(action_set.count(TechniqueKind::kNone));
  EXPECT_TRUE(action_set.count(TechniqueKind::kQuant8));
  EXPECT_TRUE(action_set.count(TechniqueKind::kPrune75));
  EXPECT_TRUE(action_set.count(TechniqueKind::kPartial75));
  EXPECT_FALSE(action_set.count(TechniqueKind::kCompressLossless));
}

TEST(TechniqueTest, NamesAreUnique) {
  std::set<std::string> names;
  for (TechniqueKind kind : AllTechniques()) {
    EXPECT_TRUE(names.insert(ToString(kind)).second) << ToString(kind);
  }
}

// QuantizationBits, PruningFraction and PartialTrainingFraction sort every
// kind into at most one family: quantization lowers the bit width, pruning
// removes weights, partial training freezes part of the model.
TEST(TechniqueTest, FractionHelpersPutEachKindInOneFamilyAtMost) {
  enum class Family { kNone, kQuant, kPrune, kPartial };
  const std::pair<TechniqueKind, Family> expected[] = {
      {TechniqueKind::kNone, Family::kNone},
      {TechniqueKind::kQuant16, Family::kQuant},
      {TechniqueKind::kQuant8, Family::kQuant},
      {TechniqueKind::kPrune25, Family::kPrune},
      {TechniqueKind::kPrune50, Family::kPrune},
      {TechniqueKind::kPrune75, Family::kPrune},
      {TechniqueKind::kPartial25, Family::kPartial},
      {TechniqueKind::kPartial50, Family::kPartial},
      {TechniqueKind::kPartial75, Family::kPartial},
      {TechniqueKind::kCompressLossless, Family::kNone},
  };
  ASSERT_EQ(AllTechniques().size(), std::size(expected));
  for (const auto& [kind, family] : expected) {
    EXPECT_EQ(QuantizationBits(kind) < 32, family == Family::kQuant) << ToString(kind);
    EXPECT_EQ(PruningFraction(kind) > 0.0, family == Family::kPrune) << ToString(kind);
    EXPECT_EQ(PartialTrainingFraction(kind) > 0.0, family == Family::kPartial) << ToString(kind);
  }
}

TEST(TechniqueTest, FractionHelpers) {
  EXPECT_DOUBLE_EQ(PruningFraction(TechniqueKind::kPrune25), 0.25);
  EXPECT_DOUBLE_EQ(PruningFraction(TechniqueKind::kPrune75), 0.75);
  EXPECT_DOUBLE_EQ(PruningFraction(TechniqueKind::kQuant8), 0.0);
  EXPECT_DOUBLE_EQ(PartialTrainingFraction(TechniqueKind::kPartial50), 0.50);
  EXPECT_EQ(QuantizationBits(TechniqueKind::kQuant8), 8);
  EXPECT_EQ(QuantizationBits(TechniqueKind::kQuant16), 16);
  EXPECT_EQ(QuantizationBits(TechniqueKind::kNone), 32);
}

}  // namespace
}  // namespace floatfl
