#include "src/common/atomic_file.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace moheco {

std::string write_file_atomic(const std::string& path, std::string_view body) {
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  std::error_code ec;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot write " + tmp_path;
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp_path, ec);
      return "failed writing " + tmp_path;
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::string error =
        "cannot rename " + tmp_path + " -> " + path + ": " + ec.message();
    std::filesystem::remove(tmp_path, ec);
    return error;
  }
  return {};
}

}  // namespace moheco
