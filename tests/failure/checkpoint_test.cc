#include "src/failure/checkpointer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/oort_selector.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// checkpoint_io: the binary archive primitives.

// One value read through the field walk's encoding of its type.
template <typename T>
T Read(CheckpointReader& r) {
  T v{};
  Io(r, v);
  return v;
}

TEST(CheckpointIoTest, PrimitiveRoundTrip) {
  CheckpointWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.Size(77);
  w.Bool(true);
  w.Bool(false);
  w.F64(-1.5e-300);
  w.F32(3.14159f);
  Io(w, std::vector<double>{0.0, -0.0, 1e308});
  Io(w, std::vector<float>{1.0f, -2.0f});
  Io(w, std::vector<size_t>{1, 2, 3});
  Io(w, std::vector<uint32_t>{42});
  Io(w, std::vector<uint8_t>{9, 8});
  Io(w, std::vector<bool>{true, false, true});

  CheckpointReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.Size(), 77u);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.F64(), -1.5e-300);
  EXPECT_EQ(r.F32(), 3.14159f);
  EXPECT_EQ(Read<std::vector<double>>(r), (std::vector<double>{0.0, -0.0, 1e308}));
  EXPECT_EQ(Read<std::vector<float>>(r), (std::vector<float>{1.0f, -2.0f}));
  EXPECT_EQ(Read<std::vector<size_t>>(r), (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(Read<std::vector<uint32_t>>(r), (std::vector<uint32_t>{42}));
  EXPECT_EQ(Read<std::vector<uint8_t>>(r), (std::vector<uint8_t>{9, 8}));
  EXPECT_EQ(Read<std::vector<bool>>(r), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointIoTest, NanBitPatternSurvives) {
  CheckpointWriter w;
  w.F64(std::nan(""));
  CheckpointReader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.F64()));
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointIoTest, TruncationLatchesFailure) {
  CheckpointWriter w;
  w.U64(123);
  w.U64(456);
  CheckpointReader r(w.buffer().substr(0, 12));
  EXPECT_EQ(r.U64(), 123u);
  EXPECT_EQ(r.U64(), 0u);  // out of bounds: zeroed, not garbage
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // failure latches
  EXPECT_FALSE(r.AtEnd());
}

TEST(CheckpointIoTest, CorruptedLengthFieldCannotOverallocate) {
  CheckpointWriter w;
  w.Size(static_cast<size_t>(1) << 60);  // claims 2^60 elements
  w.F64(1.0);
  CheckpointReader r(w.buffer());
  EXPECT_TRUE(Read<std::vector<double>>(r).empty());
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointIoTest, FileRoundTrip) {
  const std::string path = TempPath("io_roundtrip.ckpt");
  CheckpointWriter w;
  Io(w, std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_TRUE(w.WriteFile(path));
  CheckpointReader r("");
  ASSERT_TRUE(CheckpointReader::FromFile(path, &r));
  EXPECT_EQ(Read<std::vector<double>>(r), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.AtEnd());
  std::remove(path.c_str());
}

TEST(CheckpointIoTest, MissingFileFails) {
  CheckpointReader r("");
  EXPECT_FALSE(CheckpointReader::FromFile(TempPath("does_not_exist.ckpt"), &r));
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Golden resume: run N rounds == run M, checkpoint, restore into a freshly
// constructed engine, run N-M more — bit-for-bit.

ExperimentConfig FaultyConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 30;
  config.seed = 123;
  config.faults.crash_prob = 0.1;
  config.faults.corrupt_prob = 0.05;
  config.faults.flaky_fraction = 0.25;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.5;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  return config;
}

void ExpectResultsIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.accuracy_top10, b.accuracy_top10);
  EXPECT_EQ(a.accuracy_bottom10, b.accuracy_bottom10);
  EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_dropouts, b.total_dropouts);
  EXPECT_EQ(a.never_selected, b.never_selected);
  EXPECT_EQ(a.never_completed, b.never_completed);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.dropout_breakdown.unavailable, b.dropout_breakdown.unavailable);
  EXPECT_EQ(a.dropout_breakdown.out_of_memory, b.dropout_breakdown.out_of_memory);
  EXPECT_EQ(a.dropout_breakdown.missed_deadline, b.dropout_breakdown.missed_deadline);
  EXPECT_EQ(a.dropout_breakdown.departed, b.dropout_breakdown.departed);
  EXPECT_EQ(a.dropout_breakdown.crashed, b.dropout_breakdown.crashed);
  EXPECT_EQ(a.dropout_breakdown.corrupted, b.dropout_breakdown.corrupted);
  EXPECT_EQ(a.dropout_breakdown.rejected, b.dropout_breakdown.rejected);
  EXPECT_EQ(a.useful.compute_hours, b.useful.compute_hours);
  EXPECT_EQ(a.useful.comm_hours, b.useful.comm_hours);
  EXPECT_EQ(a.useful.memory_tb, b.useful.memory_tb);
  EXPECT_EQ(a.wasted.compute_hours, b.wasted.compute_hours);
  EXPECT_EQ(a.wasted.comm_hours, b.wasted.comm_hours);
  EXPECT_EQ(a.wasted.memory_tb, b.wasted.memory_tb);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.per_client_selected, b.per_client_selected);
  EXPECT_EQ(a.per_client_completed, b.per_client_completed);
}

TEST(CheckpointResumeTest, SyncEngineGoldenResume) {
  const ExperimentConfig config = FaultyConfig();
  const std::string path = TempPath("sync_resume.ckpt");

  // Uninterrupted reference run (FLOAT policy + Oort, so the checkpoint
  // covers the agent, the selector and the engine together).
  OortSelector full_sel(config.seed, config.num_clients);
  auto full_policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine full(config, &full_sel, full_policy.get());
  const ExperimentResult expected = full.Run();

  // Interrupted run: half the rounds, checkpoint, restore into fresh objects.
  OortSelector half_sel(config.seed, config.num_clients);
  auto half_policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine half(config, &half_sel, half_policy.get());
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  OortSelector resumed_sel(config.seed, config.num_clients);
  auto resumed_policy = FloatController::MakeDefault(config.seed, config.rounds);
  SyncEngine resumed(config, &resumed_sel, resumed_policy.get());
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), config.rounds / 2);
  const ExperimentResult actual = resumed.Run();

  ExpectResultsIdentical(expected, actual);
  // The policies (Q-tables, encoders, calibration state) must have ended in
  // the same state too: their serialized forms are byte-identical.
  CheckpointWriter full_state;
  full_policy->SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed_policy->SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, SyncEngineResumeIsThreadCountInvariant) {
  ExperimentConfig config = FaultyConfig();
  config.num_threads = 1;
  const std::string path = TempPath("sync_resume_threads.ckpt");

  RandomSelector full_sel(config.seed);
  SyncEngine full(config, &full_sel, nullptr);
  const ExperimentResult expected = full.Run();

  RandomSelector half_sel(config.seed);
  SyncEngine half(config, &half_sel, nullptr);
  for (size_t round = 0; round < config.rounds / 2; ++round) {
    half.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  // A checkpoint taken single-threaded restores into an 8-thread engine:
  // num_threads is excluded from the config fingerprint by design.
  ExperimentConfig wide = config;
  wide.num_threads = 8;
  RandomSelector resumed_sel(wide.seed);
  SyncEngine resumed(wide, &resumed_sel, nullptr);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  const ExperimentResult actual = resumed.Run();

  ExpectResultsIdentical(expected, actual);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, AsyncEngineGoldenResume) {
  ExperimentConfig config = FaultyConfig();
  config.async_concurrency = 20;
  config.async_buffer = 6;
  const std::string path = TempPath("async_resume.ckpt");

  auto full_policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine full(config, full_policy.get());
  const ExperimentResult expected = full.Run();

  auto half_policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine half(config, half_policy.get());
  half.RunUntil(config.rounds / 2);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  auto resumed_policy = FloatController::MakeDefault(config.seed, config.rounds);
  AsyncEngine resumed(config, resumed_policy.get());
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.Version(), config.rounds / 2);
  const ExperimentResult actual = resumed.Run();

  ExpectResultsIdentical(expected, actual);
  std::remove(path.c_str());
}

RealFlConfig SmallRealConfig() {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 7;
  config.num_threads = 1;
  config.faults.crash_prob = 0.2;
  config.faults.corrupt_prob = 0.2;
  return config;
}

TEST(CheckpointResumeTest, RealEngineGoldenResume) {
  const RealFlConfig config = SmallRealConfig();
  const std::string path = TempPath("real_resume.ckpt");
  const size_t total_rounds = 6;

  RealFlEngine full(config);
  RealRoundStats expected;
  for (size_t r = 0; r < total_rounds; ++r) {
    expected = full.RunRound(TechniqueKind::kQuant8);
  }

  RealFlEngine half(config);
  for (size_t r = 0; r < total_rounds / 2; ++r) {
    half.RunRound(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RealFlEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), total_rounds / 2);
  RealRoundStats actual;
  for (size_t r = total_rounds / 2; r < total_rounds; ++r) {
    actual = resumed.RunRound(TechniqueKind::kQuant8);
  }

  // Bit-for-bit: the aggregated model weights and the final round's stats.
  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.test_loss, actual.test_loss);
  EXPECT_EQ(expected.participants, actual.participants);
  EXPECT_EQ(expected.crashed, actual.crashed);
  EXPECT_EQ(expected.rejected_updates, actual.rejected_updates);
  std::remove(path.c_str());
}

VflConfig SmallVflConfig() {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 31;
  config.faults.crash_prob = 0.2;
  config.faults.corrupt_prob = 0.2;
  return config;
}

TEST(CheckpointResumeTest, VflEngineGoldenResume) {
  const VflConfig config = SmallVflConfig();
  const std::string path = TempPath("vfl_resume.ckpt");
  const size_t total_epochs = 8;

  VflEngine full(config);
  VflRoundStats expected;
  for (size_t e = 0; e < total_epochs; ++e) {
    expected = full.TrainEpoch(TechniqueKind::kQuant8);
  }

  VflEngine half(config);
  for (size_t e = 0; e < total_epochs / 2; ++e) {
    half.TrainEpoch(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, half));

  VflEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.EpochsRun(), total_epochs / 2);
  VflRoundStats actual;
  for (size_t e = total_epochs / 2; e < total_epochs; ++e) {
    actual = resumed.TrainEpoch(TechniqueKind::kQuant8);
  }

  // Bit-for-bit: the final epoch's stats and the full serialized state
  // (every encoder, the top model, the RNG, the injector chains).
  EXPECT_EQ(expected.train_loss, actual.train_loss);
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.traffic_bytes, actual.traffic_bytes);
  EXPECT_EQ(expected.parties_crashed, actual.parties_crashed);
  EXPECT_EQ(expected.parties_quarantined, actual.parties_quarantined);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

// Takes each write instead of putting it on disk.
class RecordingDurableFile : public DurableFile {
 public:
  bool Write(const std::string& path, const std::string& bytes) override {
    paths.push_back(path);
    writes.push_back(bytes);
    return true;
  }
  std::vector<std::string> paths;
  std::vector<std::string> writes;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Save without an io writes through DefaultDurableFile(). Given one, it hands
// that io the same bytes, once, under the path it was given, and puts
// nothing on disk itself.
template <typename Engine>
void ExpectInjectedIoGetsTheDefaultBytes(const Engine& engine, const char* name) {
  const std::string path = TempPath("save_default_io.ckpt");
  const std::string injected_path = TempPath("save_injected_io.ckpt");
  RecordingDurableFile io;
  ASSERT_TRUE(Checkpointer::Save(path, engine)) << name;
  ASSERT_TRUE(Checkpointer::Save(injected_path, engine, io)) << name;
  ASSERT_EQ(io.writes.size(), 1u) << name;
  EXPECT_EQ(io.paths[0], injected_path) << name;
  EXPECT_EQ(io.writes[0], ReadAll(path)) << name;
  EXPECT_FALSE(std::ifstream(injected_path).good()) << name;
  std::remove(path.c_str());
}

TEST(CheckpointerTest, SaveHandsAnInjectedIoTheBytesItWritesByDefault) {
  const ExperimentConfig config = FaultyConfig();
  RandomSelector selector(config.seed);
  SyncEngine sync(config, &selector, nullptr);
  sync.RunRound(0);
  ExpectInjectedIoGetsTheDefaultBytes(sync, "sync");
  AsyncEngine async_engine(config, nullptr);
  async_engine.StepOnce();
  ExpectInjectedIoGetsTheDefaultBytes(async_engine, "async");
  RealFlEngine real(SmallRealConfig());
  real.RunRound(TechniqueKind::kNone);
  ExpectInjectedIoGetsTheDefaultBytes(real, "real");
  const VflEngine vfl(SmallVflConfig());
  ExpectInjectedIoGetsTheDefaultBytes(vfl, "vfl");
}

// ---------------------------------------------------------------------------
// Header validation: a wrong checkpoint must be refused, never half-loaded.

TEST(CheckpointerTest, RefusesWrongEngineType) {
  const ExperimentConfig config = FaultyConfig();
  const std::string path = TempPath("wrong_engine.ckpt");
  RandomSelector selector(config.seed);
  SyncEngine sync(config, &selector, nullptr);
  sync.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, sync));

  AsyncEngine async_engine(config, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, async_engine));

  // The VFL tag is distinct too: a horizontal-engine checkpoint can never
  // load into a VFL engine.
  VflEngine vfl(SmallVflConfig());
  EXPECT_FALSE(Checkpointer::Restore(path, vfl));
  std::remove(path.c_str());
}

TEST(CheckpointerTest, RefusesMismatchedConfig) {
  const ExperimentConfig config = FaultyConfig();
  const std::string path = TempPath("wrong_config.ckpt");
  RandomSelector selector(config.seed);
  SyncEngine sync(config, &selector, nullptr);
  sync.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, sync));

  ExperimentConfig other = config;
  other.seed += 1;
  RandomSelector other_selector(other.seed);
  SyncEngine mismatched(other, &other_selector, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, mismatched));
  std::remove(path.c_str());
}

TEST(CheckpointerTest, RefusesCorruptedOrTruncatedFile) {
  const ExperimentConfig config = FaultyConfig();
  const std::string path = TempPath("corrupted.ckpt");
  RandomSelector selector(config.seed);
  SyncEngine sync(config, &selector, nullptr);
  sync.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, sync));

  // Flip the first magic byte.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0xFF);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  RandomSelector s2(config.seed);
  SyncEngine target(config, &s2, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, target));

  // Truncated payload.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  RandomSelector s3(config.seed);
  SyncEngine target2(config, &s3, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, target2));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
