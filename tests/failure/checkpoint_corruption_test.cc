// Corrupt-archive hardening (DESIGN.md §8): a truncated or bit-flipped
// checkpoint must fail Restore with a clean `false` — never undefined
// behavior, never a partial load — on every engine. The v6 payload hash is
// verified in full before LoadState runs, so after any refused restore the
// target engine's serialized state is byte-identical to what it was before
// the attempt.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "src/admission/update_log.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename Engine>
std::string Serialized(const Engine& engine) {
  CheckpointWriter w;
  engine.SaveState(w);
  return w.buffer();
}

// An archive around `payload` whose header hash matches it, so Restore
// hands the payload to LoadState.
std::string WellHashedArchive(const std::string& payload, Checkpointer::EngineTag tag,
                              uint64_t fingerprint) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a, as the header stores it
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  CheckpointWriter archive;
  archive.U32(Checkpointer::kMagic);
  archive.U32(Checkpointer::kVersion);
  archive.U32(static_cast<uint32_t>(tag));
  archive.U64(fingerprint);
  archive.U64(hash);
  archive.Str(payload);
  return archive.buffer();
}

// Runs the corruption sweep for one saved archive against a restore target:
// every truncation length and every flipped bit position tried must be
// refused, and the target engine must come out byte-identical each time.
template <typename Engine>
void SweepCorruptions(const std::string& archive, const std::string& path, Engine& target) {
  const std::string pristine = Serialized(target);
  ASSERT_FALSE(archive.empty());

  // Truncations: drop the tail at a spread of cut points, including cutting
  // mid-header, mid-length-prefix and one byte short of valid.
  for (const size_t keep : {size_t{0}, size_t{2}, size_t{7}, size_t{13}, archive.size() / 4,
                            archive.size() / 2, 3 * archive.size() / 4, archive.size() - 1}) {
    WriteAll(path, archive.substr(0, keep));
    EXPECT_FALSE(Checkpointer::Restore(path, target)) << "truncated to " << keep << " bytes";
    EXPECT_EQ(Serialized(target), pristine) << "truncated to " << keep << " bytes";
  }

  // Bit flips: one flipped bit at 16 byte offsets spread over the file —
  // header fields, the stored hash, the length prefix and deep payload.
  for (size_t i = 0; i < 16; ++i) {
    const size_t offset = i * (archive.size() - 1) / 15;
    std::string flipped = archive;
    flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << (i % 8)));
    WriteAll(path, flipped);
    EXPECT_FALSE(Checkpointer::Restore(path, target)) << "bit flip at byte " << offset;
    EXPECT_EQ(Serialized(target), pristine) << "bit flip at byte " << offset;
  }

  // Trailing garbage: a valid archive with extra bytes appended is overlong,
  // not silently accepted.
  WriteAll(path, archive + std::string(8, '\x5A'));
  EXPECT_FALSE(Checkpointer::Restore(path, target));
  EXPECT_EQ(Serialized(target), pristine);

  // The untouched archive still restores (the sweep didn't poison the
  // target), proving the refusals above were about the corruption.
  WriteAll(path, archive);
  EXPECT_TRUE(Checkpointer::Restore(path, target));
}

TEST(CheckpointCorruptionTest, SyncEngineRefusesCorruptArchives) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 8;
  config.rounds = 20;
  config.seed = 71;
  config.faults.crash_prob = 0.1;
  const std::string path = TempPath("corrupt_sync.ckpt");

  RandomSelector source_sel(config.seed);
  SyncEngine source(config, &source_sel, nullptr);
  for (size_t round = 0; round < 5; ++round) {
    source.RunRound(round);
  }
  ASSERT_TRUE(Checkpointer::Save(path, source));
  const std::string archive = ReadAll(path);

  RandomSelector target_sel(config.seed);
  SyncEngine target(config, &target_sel, nullptr);
  SweepCorruptions(archive, path, target);
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, AsyncEngineRefusesCorruptArchives) {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 8;
  config.rounds = 20;
  config.seed = 72;
  config.async_concurrency = 12;
  config.async_buffer = 4;
  const std::string path = TempPath("corrupt_async.ckpt");

  AsyncEngine source(config, nullptr);
  source.RunUntil(5);
  ASSERT_TRUE(Checkpointer::Save(path, source));
  const std::string archive = ReadAll(path);

  AsyncEngine target(config, nullptr);
  SweepCorruptions(archive, path, target);
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, RealEngineRefusesCorruptArchives) {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 73;
  config.num_threads = 1;
  const std::string path = TempPath("corrupt_real.ckpt");

  RealFlEngine source(config);
  for (size_t r = 0; r < 3; ++r) {
    source.RunRound(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, source));
  const std::string archive = ReadAll(path);

  RealFlEngine target(config);
  SweepCorruptions(archive, path, target);
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, VflEngineRefusesCorruptArchives) {
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 74;
  const std::string path = TempPath("corrupt_vfl.ckpt");

  VflEngine source(config);
  for (size_t e = 0; e < 3; ++e) {
    source.TrainEpoch(TechniqueKind::kQuant8);
  }
  ASSERT_TRUE(Checkpointer::Save(path, source));
  const std::string archive = ReadAll(path);

  VflEngine target(config);
  SweepCorruptions(archive, path, target);
  std::remove(path.c_str());
}

// A payload that hashes correctly but whose AggregationTracker history count
// is 2^40: Restore bounds the count by the bytes left and returns false
// instead of allocating for it (a throw would end RunSupervisor::Recover
// where it should skip the archive).
TEST(CheckpointCorruptionTest, WellHashedHugeCountIsRefused) {
  RealFlConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 75;
  config.num_threads = 1;
  const std::string path = TempPath("huge_count_real.ckpt");

  RealFlEngine source(config);
  for (size_t r = 0; r < 3; ++r) {
    source.RunRound(TechniqueKind::kQuant8);
  }
  std::string payload = Serialized(source);
  CheckpointWriter section;
  Io(section, source.aggregation_tracker());
  const size_t at = payload.find(section.buffer());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(section.buffer(), at + 1), std::string::npos);
  CheckpointWriter count;
  count.Size(size_t{1} << 40);
  payload.replace(at, sizeof(uint64_t), count.buffer());
  WriteAll(path, WellHashedArchive(payload, Checkpointer::EngineTag::kReal,
                                   FingerprintConfig(config)));

  RealFlEngine target(config);
  EXPECT_FALSE(Checkpointer::Restore(path, target));
  std::remove(path.c_str());
}

// A payload that hashes correctly but whose UpdateLog holds fewer entries
// than the population: the load dies at the log's count check instead of
// restoring an engine whose first round reads past the log's end.
TEST(CheckpointCorruptionDeathTest, ShortUpdateLogDiesAtItsCount) {
  ExperimentConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.rounds = 4;
  config.seed = 76;
  config.num_threads = 1;
  config.faults.replay_prob = 0.5;
  config.faults.duplicate_prob = 0.2;
  const std::string path = TempPath("short_update_log.ckpt");

  RandomSelector source_sel(config.seed);
  const SyncEngine source(config, &source_sel, nullptr);
  std::string payload = Serialized(source);
  // Before round 0 every log entry is empty, and the books after the log
  // hold only zeros, so the log is the payload's last count of 12 followed
  // by 12 zero bytes.
  CheckpointWriter log;
  UpdateLog(config.num_clients).SaveState(log);
  const size_t at = payload.rfind(log.buffer());
  ASSERT_NE(at, std::string::npos);
  CheckpointWriter empty_log;
  UpdateLog().SaveState(empty_log);
  payload.replace(at, log.buffer().size(), empty_log.buffer());
  WriteAll(path, WellHashedArchive(payload, Checkpointer::EngineTag::kSync,
                                   FingerprintConfig(source.config())));

  RandomSelector target_sel(config.seed);
  SyncEngine target(config, &target_sel, nullptr);
  EXPECT_DEATH(Checkpointer::Restore(path, target), "update log population mismatch");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
