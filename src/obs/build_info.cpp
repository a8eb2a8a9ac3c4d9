#include "src/obs/build_info.hpp"

#include <sstream>

#include "src/common/json.hpp"

namespace moheco::obs {

const char* version() {
#ifdef MOHECO_VERSION
  return MOHECO_VERSION;
#else
  return "0.0.0";
#endif
}

std::string compiler() {
  std::ostringstream oss;
#if defined(__clang__)
  oss << "clang " << __clang_major__ << '.' << __clang_minor__ << '.'
      << __clang_patchlevel__;
#elif defined(__GNUC__)
  oss << "gcc " << __GNUC__ << '.' << __GNUC_MINOR__ << '.'
      << __GNUC_PATCHLEVEL__;
#else
  oss << "unknown";
#endif
  return oss.str();
}

std::string build_json() {
  JsonObject build;
  build.add_string("version", version());
  build.add_string("compiler", compiler());
  return build.str();
}

}  // namespace moheco::obs
