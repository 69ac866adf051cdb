#include "src/opt/technique.h"

#include "src/common/check.h"

namespace floatfl {
namespace {

struct TechniqueRow {
  TechniqueKind kind;
  const char* name;
  CostEffect effect;
};

// Cost/quality calibration (Sections 4.3, RQ3/Fig 10):
//  * quantization mostly relieves communication (16-bit halves, 8-bit
//    quarters the update) at a small compute overhead — ideal when the
//    network is the bottleneck;
//  * pruning relieves computation AND communication (sparse updates) and
//    memory, with quality loss growing sharply at 75 %;
//  * partial training only relieves computation (the full model is still
//    exchanged), so it underperforms under unstable networks;
//  * lossless compression shrinks traffic ~35 % for extra compute and no
//    quality loss.
constexpr TechniqueRow kRows[] = {
    {TechniqueKind::kNone, "none", {1.00, 1.00, 1.00, 0.000}},
    {TechniqueKind::kQuant16, "quant16", {1.03, 0.50, 0.90, 0.010}},
    {TechniqueKind::kQuant8, "quant8", {1.05, 0.25, 0.80, 0.040}},
    {TechniqueKind::kPrune25, "prune25", {0.78, 0.75, 0.85, 0.015}},
    {TechniqueKind::kPrune50, "prune50", {0.55, 0.50, 0.70, 0.045}},
    {TechniqueKind::kPrune75, "prune75", {0.30, 0.28, 0.55, 0.100}},
    {TechniqueKind::kPartial25, "partial25", {0.75, 1.00, 0.90, 0.020}},
    {TechniqueKind::kPartial50, "partial50", {0.50, 1.00, 0.80, 0.050}},
    {TechniqueKind::kPartial75, "partial75", {0.25, 1.00, 0.70, 0.110}},
    {TechniqueKind::kCompressLossless, "compress", {1.08, 0.65, 1.00, 0.000}},
};

const TechniqueRow& RowOf(TechniqueKind kind) {
  for (const auto& row : kRows) {
    if (row.kind == kind) {
      return row;
    }
  }
  FLOATFL_CHECK_MSG(false, "unknown technique kind");
  return kRows[0];
}

}  // namespace

std::string ToString(TechniqueKind kind) { return RowOf(kind).name; }

const CostEffect& EffectOf(TechniqueKind kind) { return RowOf(kind).effect; }

const std::vector<TechniqueKind>& ActionTechniques() {
  // The paper's 8 tunable accelerations plus the implicit "leave the client
  // alone" choice, which FLOAT needs so resource-rich clients are not
  // penalized with unnecessary update-quality loss.
  static const std::vector<TechniqueKind> kActions = {
      TechniqueKind::kNone,      TechniqueKind::kQuant16,   TechniqueKind::kQuant8,
      TechniqueKind::kPrune25,   TechniqueKind::kPrune50,   TechniqueKind::kPrune75,
      TechniqueKind::kPartial25, TechniqueKind::kPartial50, TechniqueKind::kPartial75,
  };
  return kActions;
}

const std::vector<TechniqueKind>& AllTechniques() {
  static const std::vector<TechniqueKind> kAll = {
      TechniqueKind::kNone,      TechniqueKind::kQuant16,   TechniqueKind::kQuant8,
      TechniqueKind::kPrune25,   TechniqueKind::kPrune50,   TechniqueKind::kPrune75,
      TechniqueKind::kPartial25, TechniqueKind::kPartial50, TechniqueKind::kPartial75,
      TechniqueKind::kCompressLossless,
  };
  return kAll;
}

double PartialTrainingFraction(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kPartial25:
      return 0.25;
    case TechniqueKind::kPartial50:
      return 0.50;
    case TechniqueKind::kPartial75:
      return 0.75;
    default:
      return 0.0;
  }
}

double PruningFraction(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kPrune25:
      return 0.25;
    case TechniqueKind::kPrune50:
      return 0.50;
    case TechniqueKind::kPrune75:
      return 0.75;
    default:
      return 0.0;
  }
}

int QuantizationBits(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kQuant16:
      return 16;
    case TechniqueKind::kQuant8:
      return 8;
    default:
      return 32;
  }
}

}  // namespace floatfl
