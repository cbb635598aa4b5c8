// Minimal-reproducer files (repro.json): a shrunk failing scenario
// serialized flat so `referbench replay repro.json` re-executes it
// bit-identically.
//
// The format is one flat JSON object (analysis::JsonNode::is_flat_object:
// scalar members, no nesting) holding every Scenario field plus the system kind
// and the violation summary that produced it.  The 64-bit seed is
// written as a *string* -- JSON numbers are doubles and would silently
// lose seed bits past 2^53.
#pragma once

#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "verify/invariants.hpp"

namespace refer::verify {

// v2: adds the scenario's event-queue kernel toggle.
// v3: adds the closed-loop app layer's eight app_* scenario knobs
//     (src/app).  load_repro still reads v2 files -- the app fields
//     then keep their defaults (app_enabled = false).
// v4: adds the routing_policy toggle ("greedy" / "regular",
//     Scenario::routing_policy).  v2 / v3 files stay loadable -- the
//     policy then keeps its default (greedy), which is what every
//     pre-v4 run used.
// v5: drops the three retired perf switches (spatial index, neighbor
//     cache, event queue).  v2-v4 files stay loadable; their switch
//     keys are ignored (no switch ever changed a result).
inline constexpr int kReproVersion = 5;

struct ReproCase {
  harness::SystemKind kind = harness::SystemKind::kRefer;
  harness::Scenario scenario;
  /// "check: detail; ..." summary of the violations being reproduced.
  std::string violation;
};

/// Renders the case as a flat JSON object (one line, trailing newline).
[[nodiscard]] std::string to_repro_json(const ReproCase& repro);

/// Writes to_repro_json(repro) to `path`; false when the file cannot be
/// opened.
bool write_repro(const std::string& path, const ReproCase& repro);

/// Parses a repro.json back into a runnable case.  Returns nullopt (and
/// prints the reason to stderr) on unreadable files, version mismatch,
/// or missing / ill-typed fields.
[[nodiscard]] std::optional<ReproCase> load_repro(const std::string& path);

/// Summarizes violations for ReproCase::violation.
[[nodiscard]] std::string summarize(const std::vector<Violation>& violations);

}  // namespace refer::verify
