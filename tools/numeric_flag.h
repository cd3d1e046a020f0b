// Numeric command-line flag values for the `icarus` and `icarusd` mains.
//
// Every numeric flag goes through icarus::ParseInt64 / ParseDouble
// (src/support/str_util.h): a malformed or out-of-range value prints a
// diagnostic naming the flag, and the caller exits 2 instead of running on a
// silent default.
#ifndef ICARUS_TOOLS_NUMERIC_FLAG_H_
#define ICARUS_TOOLS_NUMERIC_FLAG_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "src/support/str_util.h"

namespace icarus::tools {

inline constexpr int64_t kIntMax = std::numeric_limits<int>::max();
inline constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
// --cache-max-mb is multiplied into a byte count; keep that product in range.
// It accepts [0, kCacheMaxMbMax], where 0 means unbounded.
inline constexpr int64_t kCacheMaxMbMax = kInt64Max / (int64_t{1} << 20);

// Parses `text`, the value of `flag`, as an integer in [lo, hi] into `*out`.
// Prints the diagnostic and returns false on a bad value.
template <typename Int>
bool IntFlag(const std::string& flag, const char* text, int64_t lo, int64_t hi, Int* out) {
  int64_t value = 0;
  Status st = ParseInt64(text, lo, hi, &value);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag.c_str(), st.message().c_str());
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

// Parses `text`, the value of `flag`, as a finite number >= 0 into `*out`.
// Prints the diagnostic and returns false on a bad value.
inline bool NonNegativeFlag(const std::string& flag, const char* text, double* out) {
  Status st = ParseDouble(text, 0, std::numeric_limits<double>::max(), out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag.c_str(), st.message().c_str());
    return false;
  }
  return true;
}

}  // namespace icarus::tools

#endif  // ICARUS_TOOLS_NUMERIC_FLAG_H_
