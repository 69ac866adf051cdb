#include "src/failure/checkpoint_io.h"

#include <sys/stat.h>

#include <fstream>

namespace floatfl {

bool CheckpointWriter::WriteFile(const std::string& path, DurableFile& io) const {
  return io.Write(path, buf_);
}

bool CheckpointReader::FromFile(const std::string& path, CheckpointReader* out) {
  // Refuse degenerate paths outright: an empty name, or a directory (reading
  // one through ifstream "succeeds" with zero bytes on some libstdc++
  // versions, which would surface as a confusing header mismatch instead of
  // an I/O error).
  struct stat st;
  if (path.empty() || ::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  *out = CheckpointReader(std::move(data));
  return true;
}

}  // namespace floatfl
