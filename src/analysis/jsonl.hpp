// Flat-JSON-object reader for the trace analysis tools.
//
// The JSONL trace files written by sim::JsonlTraceWriter are streams of
// *flat* objects (string / number / bool / null values, no nesting), and
// so are repro files.  parse_flat_object reads one with the repo's one
// JSON reader (analysis/json_doc.hpp) and accepts exactly that subset:
// the value must be an object whose members are all scalars.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace refer::analysis {

/// One scalar value of a flat JSON object.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
};

/// Parsed object, keyed by member name (later duplicates win).
using JsonObject = std::map<std::string, JsonValue>;

/// Parses one line of the form {"k": v, ...} where every v is a string,
/// number, true/false or null.  Returns nullopt on malformed input or on
/// nested objects/arrays.  Leading/trailing whitespace is allowed.
[[nodiscard]] std::optional<JsonObject> parse_flat_object(
    std::string_view line);

}  // namespace refer::analysis
