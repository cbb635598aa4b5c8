// The JSON reader of the offline analyzers.
//
// The results documents (runner/results_writer) are nested -- objects
// inside arrays inside objects -- so the analyzers need a real value
// tree; the flat JSONL trace records and repro files go through the same
// parser behind one shape check (JsonNode::is_flat_object).  This is a
// small recursive-descent parser over the subset the writers emit:
// finite numbers, strings with JSON's backslash escapes (\uXXXX decodes
// ASCII, anything wider reads as '?'), true/false/null, arrays and
// objects.  It keeps object members in document order and tolerates
// unknown keys, so older (v3) and newer documents both load.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace refer::analysis {

struct JsonNode {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonNode> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonNode>> members;  ///< kObject

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

  /// True for an object whose members are all scalars (null, bool,
  /// number or string) -- the shape of a JSONL trace record or a repro
  /// file.
  [[nodiscard]] bool is_flat_object() const noexcept;

  /// Member lookup (linear; results documents have tens of keys), or
  /// nullptr when absent / not an object.  A repeated key reads its
  /// last value.
  [[nodiscard]] const JsonNode* find(std::string_view key) const noexcept;

  /// Typed accessors with defaults -- absent or ill-typed reads the
  /// fallback, which is what schema-tolerant loading wants.
  [[nodiscard]] double number_or(double fallback) const noexcept {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] bool bool_or(bool fallback) const noexcept {
    return kind == Kind::kBool ? boolean : fallback;
  }
  [[nodiscard]] const std::string* string_or_null() const noexcept {
    return kind == Kind::kString ? &str : nullptr;
  }

  /// find(key) + number_or: the missing-key default in one step.
  [[nodiscard]] double member_number(std::string_view key,
                                     double fallback) const noexcept {
    const JsonNode* v = find(key);
    return v ? v->number_or(fallback) : fallback;
  }

  /// The member's array of numbers ([] when absent / not an array);
  /// non-number elements read as 0.
  [[nodiscard]] std::vector<double> member_numbers(
      std::string_view key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed).
/// Returns nullopt on any syntax error -- the analyzers treat malformed
/// input as a hard error, never a partial read.
[[nodiscard]] std::optional<JsonNode> parse_json_doc(std::string_view text);

}  // namespace refer::analysis
