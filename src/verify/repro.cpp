#include "verify/repro.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/json_doc.hpp"
#include "runner/json.hpp"

namespace refer::verify {

std::string summarize(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += "; ";
    out += v.check + ": " + v.detail;
  }
  return out;
}

std::string to_repro_json(const ReproCase& repro) {
  const harness::Scenario& sc = repro.scenario;
  runner::JsonWriter w;
  w.begin_object();
  w.kv("repro_version", kReproVersion);
  w.kv("system", harness::to_string(repro.kind));
  w.kv("violation", repro.violation);
  w.kv("area_side_m", sc.area_side_m);
  w.kv("n_actuators", sc.n_actuators);
  w.kv("n_sensors", sc.n_sensors);
  w.kv("sensor_spread_m", sc.sensor_spread_m);
  w.kv("sensor_range_m", sc.sensor_range_m);
  w.kv("actuator_range_m", sc.actuator_range_m);
  w.kv("initial_battery_j", sc.initial_battery_j);
  w.kv("mobile", sc.mobile);
  w.kv("min_speed_mps", sc.min_speed_mps);
  w.kv("max_speed_mps", sc.max_speed_mps);
  w.kv("sources_per_round", sc.sources_per_round);
  w.kv("round_period_s", sc.round_period_s);
  w.kv("packets_per_second", sc.packets_per_second);
  w.kv("packet_bytes", static_cast<std::uint64_t>(sc.packet_bytes));
  w.kv("warmup_s", sc.warmup_s);
  w.kv("measure_s", sc.measure_s);
  w.kv("qos_deadline_s", sc.qos_deadline_s);
  w.kv("faulty_nodes", sc.faulty_nodes);
  w.kv("fault_period_s", sc.fault_period_s);
  w.kv("loss_probability", sc.loss_probability);
  w.kv("planted_bug", sc.planted_bug);
  w.kv("app_enabled", sc.app_enabled);
  w.kv("app_event_period_s", sc.app_event_period_s);
  w.kv("app_loop_deadline_s", sc.app_loop_deadline_s);
  w.kv("app_keepalive_period_s", sc.app_keepalive_period_s);
  w.kv("app_keepalive_miss_limit", sc.app_keepalive_miss_limit);
  w.kv("app_break_rate_hz", sc.app_break_rate_hz);
  w.kv("app_repair_s", sc.app_repair_s);
  w.kv("app_fault_schedule", sc.app_fault_schedule);
  // As a string: JSON numbers are doubles and drop seed bits past 2^53.
  w.kv("seed", std::to_string(sc.seed));
  w.kv("csma", sc.csma);
  w.kv("routing_policy", harness::to_string(sc.routing_policy));
  w.kv("timeline_bucket_s", sc.timeline_bucket_s);
  w.kv("phase_profile", sc.phase_profile);
  w.kv("profile", sc.profile);
  w.end_object();
  return w.str() + "\n";
}

bool write_repro(const std::string& path, const ReproCase& repro) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = to_repro_json(repro);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Pulls one typed field out of the parsed object; records an error and
/// leaves `out` untouched when absent or ill-typed.
struct FieldReader {
  const analysis::JsonNode& obj;
  std::string error;  // first problem seen; empty = all good

  void fail(const std::string& key, const char* what) {
    if (error.empty()) error = key + ": " + what;
  }

  const analysis::JsonNode* find(const std::string& key) {
    const analysis::JsonNode* v = obj.find(key);
    if (!v) fail(key, "missing");
    return v;
  }

  void number(const std::string& key, double& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kNumber) {
        fail(key, "expected a number");
      } else {
        out = v->number;
      }
    }
  }
  void integer(const std::string& key, int& out) {
    double d = 0;
    const std::string before = error;
    number(key, d);
    if (error == before) out = static_cast<int>(d);
  }
  void size(const std::string& key, std::size_t& out) {
    double d = 0;
    const std::string before = error;
    number(key, d);
    if (error == before) out = static_cast<std::size_t>(d);
  }
  /// Like boolean(), but a missing key keeps `out`'s default instead of
  /// erroring -- for fields added after files of this version shipped.
  void optional_boolean(const std::string& key, bool& out) {
    if (!obj.find(key)) return;
    boolean(key, out);
  }

  void boolean(const std::string& key, bool& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kBool) {
        fail(key, "expected a bool");
      } else {
        out = v->boolean;
      }
    }
  }
  void string(const std::string& key, std::string& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kString) {
        fail(key, "expected a string");
      } else {
        out = v->str;
      }
    }
  }
};

}  // namespace

std::optional<ReproCase> load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "repro: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto obj = analysis::parse_json_doc(buf.str());
  if (!obj || !obj->is_flat_object()) {
    std::fprintf(stderr, "repro: %s is not a flat JSON object\n",
                 path.c_str());
    return std::nullopt;
  }

  FieldReader r{*obj, {}};
  int version = 0;
  r.integer("repro_version", version);
  // v2 files stay loadable: they simply predate the app-layer knobs, so
  // those keep their Scenario defaults (app off).
  if (r.error.empty() && (version < 2 || version > kReproVersion)) {
    std::fprintf(stderr, "repro: %s has version %d, expected %d (or the "
                 "still-readable 2..%d)\n",
                 path.c_str(), version, kReproVersion, kReproVersion - 1);
    return std::nullopt;
  }

  ReproCase repro;
  std::string system, seed;
  r.string("system", system);
  r.string("violation", repro.violation);
  harness::Scenario& sc = repro.scenario;
  r.number("area_side_m", sc.area_side_m);
  r.integer("n_actuators", sc.n_actuators);
  r.integer("n_sensors", sc.n_sensors);
  r.number("sensor_spread_m", sc.sensor_spread_m);
  r.number("sensor_range_m", sc.sensor_range_m);
  r.number("actuator_range_m", sc.actuator_range_m);
  r.number("initial_battery_j", sc.initial_battery_j);
  r.boolean("mobile", sc.mobile);
  r.number("min_speed_mps", sc.min_speed_mps);
  r.number("max_speed_mps", sc.max_speed_mps);
  r.integer("sources_per_round", sc.sources_per_round);
  r.number("round_period_s", sc.round_period_s);
  r.number("packets_per_second", sc.packets_per_second);
  r.size("packet_bytes", sc.packet_bytes);
  r.number("warmup_s", sc.warmup_s);
  r.number("measure_s", sc.measure_s);
  r.number("qos_deadline_s", sc.qos_deadline_s);
  r.integer("faulty_nodes", sc.faulty_nodes);
  r.number("fault_period_s", sc.fault_period_s);
  r.number("loss_probability", sc.loss_probability);
  r.integer("planted_bug", sc.planted_bug);
  if (version >= 3) {
    r.boolean("app_enabled", sc.app_enabled);
    r.number("app_event_period_s", sc.app_event_period_s);
    r.number("app_loop_deadline_s", sc.app_loop_deadline_s);
    r.number("app_keepalive_period_s", sc.app_keepalive_period_s);
    r.integer("app_keepalive_miss_limit", sc.app_keepalive_miss_limit);
    r.number("app_break_rate_hz", sc.app_break_rate_hz);
    r.number("app_repair_s", sc.app_repair_s);
    r.string("app_fault_schedule", sc.app_fault_schedule);
  }
  r.string("seed", seed);
  r.boolean("csma", sc.csma);
  if (version >= 4) {
    std::string policy;
    r.string("routing_policy", policy);
    if (r.error.empty() &&
        !harness::parse_routing_policy(policy, sc.routing_policy)) {
      r.fail("routing_policy", "expected \"greedy\" or \"regular\"");
    }
  }
  r.number("timeline_bucket_s", sc.timeline_bucket_s);
  // Added mid-version-3: older repro files simply predate the flag.
  r.optional_boolean("phase_profile", sc.phase_profile);
  r.boolean("profile", sc.profile);
  if (!r.error.empty()) {
    std::fprintf(stderr, "repro: %s: %s\n", path.c_str(), r.error.c_str());
    return std::nullopt;
  }

  bool found = false;
  for (const harness::SystemKind kind : harness::kAllSystems) {
    if (system == harness::to_string(kind)) {
      repro.kind = kind;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "repro: unknown system \"%s\"\n", system.c_str());
    return std::nullopt;
  }
  try {
    sc.seed = std::stoull(seed);
  } catch (...) {
    std::fprintf(stderr, "repro: bad seed \"%s\"\n", seed.c_str());
    return std::nullopt;
  }
  return repro;
}

}  // namespace refer::verify
