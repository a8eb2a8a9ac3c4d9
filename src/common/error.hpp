// Error types shared by all MOHECO modules.
//
// The library throws exceptions derived from moheco::Error for usage errors
// (malformed netlists, inconsistent dimensions, bad parameters).  Numerical
// non-convergence inside the simulator is reported through status codes
// (see spice/dc_solver.hpp) because it is an expected runtime outcome of a
// Monte-Carlo loop, not a programming error.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace moheco {

/// Base class for all exceptions thrown by the MOHECO library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A function argument or configuration value is invalid.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A netlist is structurally invalid (dangling node, duplicate name, ...).
class NetlistError : public Error {
 public:
  explicit NetlistError(const std::string& what) : Error(what) {}
};

/// A matrix operation failed structurally (dimension mismatch, singular).
class LinalgError : public Error {
 public:
  explicit LinalgError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` when `condition` is false.  The
/// message is copied into a std::string only on failure, so a passing check
/// with a literal message costs a branch.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] throw InvalidArgument(std::string(message));
}

}  // namespace moheco
