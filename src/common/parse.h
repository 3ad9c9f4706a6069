// parse_uint: the one strict reader of unsigned decimal numbers, shared by
// the CLI flag tables, the trace-v1 reader, tracecheck, the repro-spec JSON
// reader and the environment knobs (AG_ENGINE_JOBS, AG_BENCH_JOBS).
//
// Accepted: one or more decimal digits whose value fits T. Rejected: an
// empty string, a sign ('-' or '+'), leading or trailing whitespace, a base
// prefix, anything after the digits, and a value past T's maximum. The C
// readers this replaces (strtoull, sscanf %llu) take a '-' and wrap, so
// "-1" read as 2^64 - 1 and "4294967297" cast to a 32-bit id read as 1.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace asyncgossip {

/// Writes the value of `text` to *out and returns true, or returns false
/// and leaves *out untouched.
template <typename T>
bool parse_uint(std::string_view text, T* out) {
  static_assert(std::is_unsigned_v<T>, "parse_uint reads unsigned values");
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace asyncgossip
