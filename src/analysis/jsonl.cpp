#include "analysis/jsonl.hpp"

#include "analysis/json_doc.hpp"

namespace refer::analysis {

std::optional<JsonObject> parse_flat_object(std::string_view line) {
  std::optional<JsonNode> doc = parse_json_doc(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  JsonObject obj;
  for (auto& [key, node] : doc->members) {
    JsonValue value;
    switch (node.kind) {
      case JsonNode::Kind::kNull: break;
      case JsonNode::Kind::kBool:
        value.kind = JsonValue::Kind::kBool;
        value.boolean = node.boolean;
        break;
      case JsonNode::Kind::kNumber:
        value.kind = JsonValue::Kind::kNumber;
        value.number = node.number;
        break;
      case JsonNode::Kind::kString:
        value.kind = JsonValue::Kind::kString;
        value.str = std::move(node.str);
        break;
      case JsonNode::Kind::kArray:
      case JsonNode::Kind::kObject: return std::nullopt;  // flat only
    }
    obj.insert_or_assign(std::move(key), std::move(value));
  }
  return obj;
}

}  // namespace refer::analysis
