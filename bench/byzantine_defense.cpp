// Byzantine robustness: server aggregation rules under a 20% sign-flip
// collusion (DESIGN.md §9).
//
// Part 1 is the ground-truth arm: the real-training engine with a fifth of
// the population submitting reversed, amplified updates, once per
// aggregation rule. Plain FedAvg is dragged away from the optimum; the
// robust rules (coordinate-wise median, trimmed mean, Multi-Krum, norm
// clipping) bound the damage, each with a different exclusion signature.
//
// Part 2 repeats the sweep at paper scale on the trace-driven synchronous
// engine, where the attack acts on contribution qualities and the rules
// apply their quality-space analogues.
#include <iostream>

#include "bench/bench_util.h"
#include "src/fl/real_engine.h"

using namespace floatfl_bench;

namespace {

struct Arm {
  const char* name;
  AggregatorKind kind;
};

constexpr Arm kArms[] = {
    {"fedavg", AggregatorKind::kFedAvg},
    {"median", AggregatorKind::kMedian},
    {"trimmed", AggregatorKind::kTrimmedMean},
    {"krum", AggregatorKind::kKrum},
    {"normclip", AggregatorKind::kNormClip},
};

AggregatorConfig MakeAggregatorConfig(AggregatorKind kind) {
  AggregatorConfig aggregator;
  aggregator.kind = kind;
  aggregator.trim_fraction = 0.3;  // cover up to ~2 attackers per 8-cohort tail
  aggregator.clip_norm = 0.5;
  return aggregator;
}

RealFlConfig RealConfig(AggregatorKind kind) {
  RealFlConfig config;
  config.num_clients = 20;
  config.clients_per_round = 8;
  config.num_classes = 5;
  config.input_dim = 16;
  config.hidden_dims = {24};
  config.test_samples_per_class = 40;
  config.seed = 42;
  config.faults.byzantine_mode = ByzantineMode::kSignFlip;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 4.0;
  config.aggregator = MakeAggregatorConfig(kind);
  return config;
}

void RunRealSweep() {
  std::cout << "=== Real training: 20% sign-flip collusion (scale 4), 25 rounds ===\n\n";
  TablePrinter table({"aggregator", "acc%", "byz-updates", "clipped", "krum-rej", "trimmed"});
  for (const Arm& arm : kArms) {
    RealFlEngine engine(RealConfig(arm.kind));
    RealRoundStats stats;
    size_t byzantine = 0;
    for (int round = 0; round < 25; ++round) {
      stats = engine.RunRound(TechniqueKind::kNone);
      byzantine += stats.byzantine_selected;
    }
    const auto& tracker = engine.aggregation_tracker();
    table.Cell(arm.name)
        .Cell(100.0 * stats.test_accuracy, 1)
        .Cell(static_cast<long long>(byzantine))
        .Cell(static_cast<long long>(tracker.Totals().updates_clipped))
        .Cell(static_cast<long long>(tracker.Totals().krum_rejections))
        .Cell(static_cast<long long>(tracker.Totals().updates_trimmed))
        .EndRow();
  }
  table.Print(std::cout);
}

void RunSurrogateSweep() {
  std::cout << "\n=== Trace-driven sync engine, paper scale, same collusion ===\n\n";
  TablePrinter table({"aggregator", "acc%", "byz-updates", "krum-rej", "winsorized"});
  for (const Arm& arm : kArms) {
    ExperimentConfig config = PaperConfig(DatasetId::kFemnist, ModelId::kResNet34);
    config.faults.byzantine_mode = ByzantineMode::kSignFlip;
    config.faults.byzantine_fraction = 0.2;
    config.aggregator = MakeAggregatorConfig(arm.kind);
    // Quality space is bounded below, so an excluded honest client costs more
    // than a kept attacker; keep a selection budget that still fires on the
    // post-dropout cohort (~16 of the nominal 30) instead of the conservative
    // n - f - 2 default.
    config.aggregator.multi_krum_m = 16;
    const ExperimentResult r = RunSync(config, "fedavg", nullptr);
    table.Cell(arm.name)
        .Cell(100.0 * r.global_accuracy, 1)
        .Cell(static_cast<long long>(r.byzantine_selected))
        .Cell(static_cast<long long>(r.krum_rejections))
        .Cell(static_cast<long long>(r.updates_trimmed))
        .EndRow();
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Byzantine defense sweep: aggregation rules vs a 20% sign-flip\n"
               "collusion, on real training and at trace-driven paper scale.\n\n";
  RunRealSweep();
  RunSurrogateSweep();
  return 0;
}
