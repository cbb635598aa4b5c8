// Number rules shared by referbench's strict flag parsers: the bench
// flags (bench_common.hpp) and `referbench fuzz`
// (tools/verify_commands.cpp).  Each reader stores the value and returns
// an empty string when `raw` is valid for `flag`; otherwise it returns
// the message the parser prints before it exits 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>

namespace refer::bench {

/// The whole of `raw` as a number, in strtod syntax ("1e3", "inf" and
/// "nan" parse; range checks are the caller's).
inline std::string read_number(const std::string& flag, const char* raw,
                               double& out) {
  char* end = nullptr;
  out = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    return flag + ": not a number: '" + raw + "'";
  }
  return {};
}

/// A count or a seed: a decimal integer in [lo, hi], read exactly (no
/// fraction, exponent, sign or double round trip), so it is never cast
/// from an out-of-range value.  "not a number" is reported first.
inline std::string read_integer(const std::string& flag, const char* raw,
                                std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t& out) {
  double as_number = 0;
  if (std::string error = read_number(flag, raw, as_number); !error.empty()) {
    return error;
  }
  const std::string text = raw;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || end != text.data() + text.size() || out < lo ||
      out > hi) {
    return flag + ": expected an integer from " + std::to_string(lo) +
           " to " + std::to_string(hi) + ", got '" + text + "'";
  }
  return {};
}

}  // namespace refer::bench
