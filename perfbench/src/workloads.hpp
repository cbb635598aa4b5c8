// The benchmark's three workloads, as lists of harness::run_once jobs.
//
// Every job seed derives from the workload seed the benchmark is given,
// so the same seed always yields the same job set.  README.md records why
// each workload exists and which layers it is meant to load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

/// One run_once call of a workload.
struct Job {
  /// Stable identifier inside the workload, e.g. "REFER.regular.pps80.d0";
  /// keys the reference digests.
  std::string key;
  refer::harness::SystemKind kind = refer::harness::SystemKind::kRefer;
  refer::harness::Scenario scenario;
};

/// kTiny shrinks every workload to a few seconds in total; the smoke test
/// uses it.  kFull is what the benchmark measures.
enum class Scale { kFull, kTiny };

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The job set of `workload` for `seed`; empty for an unknown name.
[[nodiscard]] std::vector<Job> make_jobs(const std::string& workload,
                                         std::uint64_t seed, Scale scale);

/// The same deployment with no traffic sources, faults or app tier and a
/// near-empty measure window: its run time is deployment plus topology
/// construction (the set-up pass).
[[nodiscard]] refer::harness::Scenario setup_only(
    refer::harness::Scenario scenario);

/// Module-style system name used in per-layer metric names
/// ("refer", "datree", "ddear", "kautz_overlay").
[[nodiscard]] const char* system_slug(refer::harness::SystemKind kind);

}  // namespace perfbench
