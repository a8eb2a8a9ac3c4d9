// Build/fleet identity: which binary produced this artifact?
//
// Cross-host bench JSON, cache directories, and daemon fleets all need
// to attribute an artifact to a build.  build_json() is the one shared
// identity object — version and compiler — embedded in
// `moheco_cli --version`, `op=ping` responses, and every bench --json=
// header.
#pragma once

#include <string>

namespace moheco::obs {

/// Release version (CMake project version, e.g. "0.10.0").
const char* version();

/// Compiler id and version this binary was built with (e.g. "gcc 12.2.0").
std::string compiler();

/// {"version":...,"compiler":...}
std::string build_json();

}  // namespace moheco::obs
