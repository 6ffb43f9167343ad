#include "vps/support/ensure.hpp"

namespace vps::support {

void throw_invariant(std::string_view message, std::source_location loc) {
  std::string what = std::string(loc.file_name()) + ":" + std::to_string(loc.line()) + ": ";
  what += message;
  throw InvariantError(what);
}

}  // namespace vps::support
