#include "analysis/json_doc.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace refer::analysis {

bool JsonNode::is_flat_object() const noexcept {
  return is_object() &&
         std::none_of(members.begin(), members.end(), [](const auto& m) {
           return m.second.is_object() || m.second.is_array();
         });
}

const JsonNode* JsonNode::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

std::vector<double> JsonNode::member_numbers(std::string_view key) const {
  std::vector<double> out;
  const JsonNode* v = find(key);
  if (!v || v->kind != Kind::kArray) return out;
  out.reserve(v->items.size());
  for (const JsonNode& item : v->items) out.push_back(item.number_or(0));
  return out;
}

namespace {

/// The value of hex digit `h`, or -1.
int hex_digit(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  JsonNode fail() {
    failed = true;
    return {};
  }

  JsonNode parse_value() {
    skip_ws();
    if (failed || pos >= text.size()) return fail();
    const char c = text[pos];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string_node();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  JsonNode parse_object() {
    JsonNode node;
    node.kind = JsonNode::Kind::kObject;
    if (!eat('{')) return fail();
    if (eat('}')) return node;
    do {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail();
      if (!eat(':')) return fail();
      JsonNode value = parse_value();
      if (failed) return {};
      node.members.emplace_back(std::move(key), std::move(value));
    } while (eat(','));
    if (!eat('}')) return fail();
    return node;
  }

  JsonNode parse_array() {
    JsonNode node;
    node.kind = JsonNode::Kind::kArray;
    if (!eat('[')) return fail();
    if (eat(']')) return node;
    do {
      JsonNode value = parse_value();
      if (failed) return {};
      node.items.push_back(std::move(value));
    } while (eat(','));
    if (!eat(']')) return fail();
    return node;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out.clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return false;
        const char esc = text[pos++];
        switch (esc) {
          case '"': case '\\': case '/': c = esc; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The writers escape control characters as \u00XX (common/
            // strings.hpp); those decode exactly.  Anything beyond ASCII
            // is replaced rather than UTF-8-encoded.
            if (pos + 4 > text.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const int digit = hex_digit(text[pos++]);
              if (digit < 0) return false;
              code = code << 4 | static_cast<unsigned>(digit);
            }
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return false;  // not a JSON escape
        }
      }
      out.push_back(c);
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    return true;
  }

  JsonNode parse_string_node() {
    JsonNode node;
    node.kind = JsonNode::Kind::kString;
    if (!parse_string(node.str)) return fail();
    return node;
  }

  JsonNode parse_bool() {
    JsonNode node;
    node.kind = JsonNode::Kind::kBool;
    if (text.substr(pos, 4) == "true") {
      node.boolean = true;
      pos += 4;
      return node;
    }
    if (text.substr(pos, 5) == "false") {
      node.boolean = false;
      pos += 5;
      return node;
    }
    return fail();
  }

  JsonNode parse_null() {
    if (text.substr(pos, 4) != "null") return fail();
    pos += 4;
    return {};  // kNull
  }

  JsonNode parse_number() {
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) return fail();
    JsonNode node;
    const char* last = text.data() + pos;
    const auto [end, ec] =
        std::from_chars(text.data() + start, last, node.number);
    if (ec != std::errc() || end != last) return fail();
    node.kind = JsonNode::Kind::kNumber;
    return node;
  }
};

}  // namespace

std::optional<JsonNode> parse_json_doc(std::string_view text) {
  Parser p{text};
  JsonNode root = p.parse_value();
  if (p.failed) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing garbage
  return root;
}

}  // namespace refer::analysis
