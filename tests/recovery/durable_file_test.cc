#include "src/failure/durable_file.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(DurableFileTest, WritesBytesAndLeavesNoTemp) {
  const std::string path = TempPath("durable_basic.bin");
  const std::string bytes = "hello durable world";
  ASSERT_TRUE(DefaultDurableFile().Write(path, bytes));
  EXPECT_EQ(ReadAll(path), bytes);
  EXPECT_FALSE(Exists(path + DurableFile::TempSuffix()));
  std::remove(path.c_str());
}

TEST(DurableFileTest, OverwritesAtomically) {
  const std::string path = TempPath("durable_overwrite.bin");
  ASSERT_TRUE(DefaultDurableFile().Write(path, "old contents, longer"));
  ASSERT_TRUE(DefaultDurableFile().Write(path, "new"));
  EXPECT_EQ(ReadAll(path), "new");
  std::remove(path.c_str());
}

TEST(DurableFileTest, EmptyPayloadIsWritable) {
  const std::string path = TempPath("durable_empty.bin");
  ASSERT_TRUE(DefaultDurableFile().Write(path, ""));
  EXPECT_TRUE(Exists(path));
  EXPECT_EQ(ReadAll(path), "");
  std::remove(path.c_str());
}

TEST(DurableFileTest, EmptyPathFails) {
  EXPECT_FALSE(DefaultDurableFile().Write("", "bytes"));
}

TEST(DurableFileTest, NonexistentParentDirectoryFails) {
  EXPECT_FALSE(
      DefaultDurableFile().Write(TempPath("no_such_dir/nested/file.bin"), "bytes"));
}

TEST(DurableFileTest, DirectoryTargetFailsAndLeavesDirectory) {
  const std::string dir = TempPath("durable_dir_target");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  EXPECT_FALSE(DefaultDurableFile().Write(dir, "bytes"));
  struct stat st;
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  ::rmdir(dir.c_str());
}

// The checkpoint reader must refuse what the writer can never produce.
TEST(DurableFileTest, ReaderRefusesEmptyPathAndDirectories) {
  CheckpointReader r("");
  EXPECT_FALSE(CheckpointReader::FromFile("", &r));
  const std::string dir = TempPath("reader_dir_target");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointReader r2("");
  EXPECT_FALSE(CheckpointReader::FromFile(dir, &r2));
  ::rmdir(dir.c_str());
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

// WriteFile without an io writes through DefaultDurableFile(); an injected io
// gets the same bytes, once, and nothing reaches the disk.
TEST(DurableFileTest, WriteFileWithInjectedIoMatchesDefault) {
  const std::string a = TempPath("durable_injected_a.bin");
  const std::string b = TempPath("durable_injected_b.bin");
  CheckpointWriter w;
  w.U64(0x1122334455667788ull);
  Io(w, std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_TRUE(w.WriteFile(a));
  RecordingDurableFile io;
  ASSERT_TRUE(w.WriteFile(b, io));
  ASSERT_EQ(io.writes.size(), 1u);
  EXPECT_EQ(io.paths[0], b);
  EXPECT_EQ(io.writes[0], ReadAll(a));
  EXPECT_FALSE(Exists(b));
  std::remove(a.c_str());
}

}  // namespace
}  // namespace floatfl
