// Minimal streaming JSON writer for the structured results layer.
//
// No external dependency: the runner only ever *emits* JSON, so a small
// push-style writer (objects, arrays, scalars, correct escaping,
// locale-independent numbers) is all that is needed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace refer::runner {

/// Push-style writer producing compact, valid JSON.  Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("schema_version"); w.value(1);
///   w.key("jobs"); w.begin_array(); w.value(4); w.end_array();
///   w.end_object();
///   std::string doc = w.str();
///
/// Commas are inserted automatically; nesting is tracked so a malformed
/// sequence of calls fails loudly in debug builds via the state checks.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes an object key; must be followed by exactly one value.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(double d);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void null();

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] bool complete() const noexcept {
    return stack_.empty() && !out_.empty();
  }

 private:
  void prepare_value();
  /// Appends `s` as a quoted, escaped JSON string literal.
  void append_quoted(std::string_view s);

  enum class Frame : std::uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_item_;  // parallel to stack_
  bool after_key_ = false;
};

}  // namespace refer::runner
