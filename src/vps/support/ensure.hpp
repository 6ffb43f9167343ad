#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vps::support {

/// Error thrown when a framework invariant is violated. Distinguishing this
/// from std::logic_error lets tests assert on framework-detected misuse.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Throws InvariantError("file:line: message"). The only place a failed
/// check formats its message: out of line and cold, so a passing check costs
/// one predicted branch and no allocation.
[[noreturn, gnu::cold, gnu::noinline]] void throw_invariant(std::string_view message,
                                                           std::source_location loc);

/// Checks a precondition/invariant; throws InvariantError with location info.
/// Used instead of assert() so that violations are testable and survive
/// release builds (safety tooling must not silently continue on bad state).
/// Hot paths pass a literal, which binds here without building a string.
inline void ensure(bool condition, const char* message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] throw_invariant(message, loc);
}

/// Overload for messages composed by the caller. The caller still pays to
/// build the string on success, so keep it off hot paths (format in a cold
/// function there instead).
inline void ensure(bool condition, const std::string& message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] throw_invariant(message, loc);
}

}  // namespace vps::support
