// The verification engine end to end: fuzz seeds are pure functions of
// their value, clean scenarios raise no invariant violations, a planted
// bug is caught -> shrunk -> replayed from repro.json to the same
// violation, and replaying any seed twice is field-for-field identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/repro.hpp"
#include "verify/shrink.hpp"

namespace refer::verify {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ------------------------------------------------------------ generator

TEST(ScenarioFuzzer, GenerateIsAPureFunctionOfTheSeed) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xFFFFFFFFFFFFULL}) {
    const harness::Scenario a = ScenarioFuzzer::generate(seed);
    const harness::Scenario b = ScenarioFuzzer::generate(seed);
    ReproCase ra{harness::SystemKind::kRefer, a, ""};
    ReproCase rb{harness::SystemKind::kRefer, b, ""};
    EXPECT_EQ(to_repro_json(ra), to_repro_json(rb)) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ScenarioFuzzer, DifferentSeedsGiveDifferentScenarios) {
  const harness::Scenario a = ScenarioFuzzer::generate(1);
  const harness::Scenario b = ScenarioFuzzer::generate(2);
  ReproCase ra{harness::SystemKind::kRefer, a, ""};
  ReproCase rb{harness::SystemKind::kRefer, b, ""};
  EXPECT_NE(to_repro_json(ra), to_repro_json(rb));
}

// ------------------------------------------------------ invariant engine

TEST(InvariantChecker, CleanScenarioRaisesNothingAndSeesTraffic) {
  harness::Scenario sc = ScenarioFuzzer::generate(1);
  sc.trace_path = temp_path("verify_clean.jsonl");
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_GT(m.packets_sent, 0u) << "fuzz cases must carry real traffic";
  EXPECT_GT(checker.records_seen(), 100u)
      << "the tap must observe the run at event granularity";
  EXPECT_TRUE(checker.clean()) << "first violation: "
                               << checker.violations().front().check << ": "
                               << checker.violations().front().detail;
  std::remove(sc.trace_path.c_str());
}

TEST(InvariantChecker, WorksWithoutATraceFile) {
  harness::Scenario sc = ScenarioFuzzer::generate(2);
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  // The tap still feeds the event-granularity checks; only the offline
  // trace audit is skipped.
  EXPECT_GT(checker.records_seen(), 0u);
  EXPECT_TRUE(checker.clean());
}

TEST(InvariantChecker, ChecksTheBaselinesToo) {
  harness::Scenario sc = ScenarioFuzzer::generate(3);
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kDaTree, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_TRUE(checker.clean());
}

// ------------------------------------------------------------ determinism

void expect_identical(const harness::RunMetrics& a,
                      const harness::RunMetrics& b) {
  EXPECT_EQ(a.build_ok, b.build_ok);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.qos_delivered, b.qos_delivered);
  EXPECT_EQ(a.qos_throughput_kbps, b.qos_throughput_kbps);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.delay_p50_ms, b.delay_p50_ms);
  EXPECT_EQ(a.delay_p95_ms, b.delay_p95_ms);
  EXPECT_EQ(a.delay_p99_ms, b.delay_p99_ms);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.comm_energy_j, b.comm_energy_j);
  EXPECT_EQ(a.construction_energy_j, b.construction_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.timeseries.qos_kbps, b.timeseries.qos_kbps);
  EXPECT_EQ(a.app_loops_started, b.app_loops_started);
  EXPECT_EQ(a.app_loops_completed, b.app_loops_completed);
  EXPECT_EQ(a.app_loops_within_deadline, b.app_loops_within_deadline);
  EXPECT_EQ(a.app_loop_p50_ms, b.app_loop_p50_ms);
  EXPECT_EQ(a.app_loop_p95_ms, b.app_loop_p95_ms);
  EXPECT_EQ(a.app_loop_p99_ms, b.app_loop_p99_ms);
  EXPECT_EQ(a.app_loop_completion_ratio, b.app_loop_completion_ratio);
  EXPECT_EQ(a.app_actuator_availability, b.app_actuator_availability);
  EXPECT_EQ(a.app_recoveries, b.app_recoveries);
  EXPECT_EQ(a.app_mean_recovery_s, b.app_mean_recovery_s);
  ASSERT_EQ(a.observability.size(), b.observability.size());
  for (std::size_t i = 0; i < a.observability.size(); ++i) {
    const auto& ea = a.observability[i];
    const auto& eb = b.observability[i];
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.is_histogram, eb.is_histogram);
    EXPECT_EQ(ea.count, eb.count) << ea.name;
    EXPECT_EQ(ea.sum, eb.sum) << ea.name;
    EXPECT_EQ(ea.min, eb.min) << ea.name;
    EXPECT_EQ(ea.max, eb.max) << ea.name;
    EXPECT_EQ(ea.p50, eb.p50) << ea.name;
    EXPECT_EQ(ea.p95, eb.p95) << ea.name;
    EXPECT_EQ(ea.p99, eb.p99) << ea.name;
  }
}

TEST(FuzzDeterminism, ReplayingASeedIsFieldForFieldIdentical) {
  for (const std::uint64_t seed : {5ULL, 11ULL}) {
    harness::Scenario sc = ScenarioFuzzer::generate(seed);
    // The kernel profiler histograms are wall-time (the one intentional
    // nondeterminism in the observability snapshot); everything else
    // must match exactly.
    sc.profile = false;
    const harness::RunMetrics a =
        harness::run_once(harness::SystemKind::kRefer, sc);
    const harness::RunMetrics b =
        harness::run_once(harness::SystemKind::kRefer, sc);
    expect_identical(a, b);
  }
}

// -------------------------------------------------------------- repro.json

TEST(Repro, RoundTripsEveryScenarioField) {
  ReproCase repro;
  repro.kind = harness::SystemKind::kDDear;
  repro.violation = "energy.conservation: off by 0.25 J";
  harness::Scenario& sc = repro.scenario;
  sc = ScenarioFuzzer::generate(99);
  sc.seed = (1ULL << 63) + 12345;  // needs string serialization: > 2^53
  sc.loss_probability = 0.07421875;
  sc.planted_bug = 1;
  sc.packet_bytes = 3999;

  const std::string path = temp_path("verify_roundtrip.json");
  ASSERT_TRUE(write_repro(path, repro));
  const auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->kind, repro.kind);
  EXPECT_EQ(loaded->violation, repro.violation);
  EXPECT_EQ(loaded->scenario.seed, sc.seed);
  // One string comparison covers every serialized field exactly.
  EXPECT_EQ(to_repro_json(*loaded), to_repro_json(repro));
  std::remove(path.c_str());
}

TEST(Repro, StillLoadsVersion2FilesWithAppDefaults) {
  // A current document with every app_* key (and the other post-v2
  // fields) stripped and the version stamped back to 2 -- exactly what a
  // pre-app-layer fuzzer wrote.  It must load, with the app knobs at
  // their Scenario defaults (app off).
  ReproCase repro;
  repro.kind = harness::SystemKind::kRefer;
  repro.scenario = ScenarioFuzzer::generate(7);
  repro.scenario.app_enabled = false;
  std::string doc = to_repro_json(repro);
  const auto replace = [&doc](const std::string& from,
                              const std::string& to) {
    const std::size_t at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
  };
  replace("\"repro_version\":5", "\"repro_version\":2");
  replace("\"routing_policy\":\"greedy\",", "");
  const std::size_t app_from = doc.find("\"app_enabled\"");
  const std::size_t app_to = doc.find("\"seed\"");
  ASSERT_NE(app_from, std::string::npos);
  ASSERT_NE(app_to, std::string::npos);
  ASSERT_LT(app_from, app_to);
  doc.erase(app_from, app_to - app_from);

  const std::string path = temp_path("verify_v2_compat.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  const auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.has_value()) << doc;
  const harness::Scenario defaults;
  EXPECT_FALSE(loaded->scenario.app_enabled);
  EXPECT_EQ(loaded->scenario.app_event_period_s,
            defaults.app_event_period_s);
  EXPECT_EQ(loaded->scenario.app_keepalive_miss_limit,
            defaults.app_keepalive_miss_limit);
  EXPECT_TRUE(loaded->scenario.app_fault_schedule.empty());
  // Every non-app field survived the round trip.
  EXPECT_EQ(loaded->scenario.seed, repro.scenario.seed);
  EXPECT_EQ(loaded->scenario.n_sensors, repro.scenario.n_sensors);
  EXPECT_EQ(loaded->scenario.measure_s, repro.scenario.measure_s);
  std::remove(path.c_str());
}

TEST(Repro, StillLoadsVersion4FilesWithRetiredSwitchKeys) {
  // v4 files carry the since-retired perf switches next to "csma"; the
  // loader ignores them (no switch ever changed a result) and the
  // scenario otherwise round-trips unchanged.
  ReproCase repro;
  repro.kind = harness::SystemKind::kDaTree;
  repro.scenario = ScenarioFuzzer::generate(11);
  std::string doc = to_repro_json(repro);
  const auto replace = [&doc](const std::string& from,
                              const std::string& to) {
    const std::size_t at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
  };
  replace("\"repro_version\":5", "\"repro_version\":4");
  replace("\"routing_policy\":",
          "\"spatial_index\":false,\"neighbor_cache\":false,"
          "\"routing_policy\":");

  const std::string path = temp_path("verify_v4_compat.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  const auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.has_value()) << doc;
  EXPECT_EQ(to_repro_json(*loaded), to_repro_json(repro));
  std::remove(path.c_str());
}

TEST(Repro, RejectsMissingAndMalformedFiles) {
  EXPECT_FALSE(load_repro(temp_path("verify_nonexistent.json")).has_value());
  const std::string path = temp_path("verify_bad.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"repro_version\": 1}\n", f);  // missing everything else
  std::fclose(f);
  EXPECT_FALSE(load_repro(path).has_value());
  std::remove(path.c_str());
}

// ----------------------------------------- planted bug -> shrink -> replay

TEST(PlantedBug, IsCaughtShrunkAndReplayedFromRepro) {
  // 1. Fuzz with the planted off-by-one in the Theorem 3.8 fail-over
  // nominal length; the trace audit must flag it on some seed.
  FuzzOptions options;
  options.seeds = 12;
  options.base_seed = 1;
  options.jobs = 2;
  options.planted_bug = 1;
  options.trace_dir = temp_path("verify_plant");
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_EQ(summary.cases_run, 12);
  ASSERT_FALSE(summary.failures.empty())
      << "the planted bug escaped " << summary.cases_run << " fuzz cases";
  const FuzzFailure& first = summary.failures.front();
  bool flagged = false;
  for (const Violation& v : first.violations) {
    flagged |= v.check == "trace.failover_mismatches";
  }
  EXPECT_TRUE(flagged) << "expected the fail-over audit to flag the plant";

  // 2. Shrink to a minimal reproducer; it must still raise the same
  // check, with fewer nodes / a shorter horizon than where it started.
  ScenarioShrinker::Options shrink_options;
  shrink_options.max_runs = 32;
  shrink_options.trace_path = temp_path("verify_plant_shrink.jsonl");
  const ScenarioShrinker::Result shrunk =
      ScenarioShrinker::shrink(first.scenario, first.violations,
                               shrink_options);
  EXPECT_GT(shrunk.accepted, 0) << "nothing could be reduced";
  EXPECT_LE(shrunk.scenario.n_sensors, first.scenario.n_sensors);
  EXPECT_LE(shrunk.scenario.measure_s, first.scenario.measure_s);
  ASSERT_FALSE(shrunk.violations.empty());

  // 3. Write repro.json, load it back, and replay: bit-identical runs
  // mean the identical violation set, field for field.
  ReproCase repro;
  repro.kind = harness::SystemKind::kRefer;
  repro.scenario = shrunk.scenario;
  repro.scenario.trace_path.clear();
  repro.violation = summarize(shrunk.violations);
  const std::string repro_path = temp_path("verify_plant_repro.json");
  ASSERT_TRUE(write_repro(repro_path, repro));
  const auto loaded = load_repro(repro_path);
  ASSERT_TRUE(loaded.has_value());

  const std::vector<Violation> replayed = run_case(
      loaded->kind, loaded->scenario, shrink_options.trace_path);
  ASSERT_EQ(replayed.size(), shrunk.violations.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].check, shrunk.violations[i].check);
    EXPECT_EQ(replayed[i].detail, shrunk.violations[i].detail);
  }

  std::remove(repro_path.c_str());
  std::remove(shrink_options.trace_path.c_str());
  for (const FuzzFailure& f : summary.failures) {
    std::remove(f.trace_path.c_str());
  }
}

// ------------------------------------------------------------ fuzz driver

TEST(FuzzDriver, CleanSeedsProduceNoViolationsAndNoLeftoverTraces) {
  FuzzOptions options;
  options.seeds = 6;
  options.base_seed = 21;
  options.jobs = 2;
  options.trace_dir = temp_path("verify_fuzz_clean");
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_EQ(summary.cases_run, 6);
  EXPECT_TRUE(summary.clean())
      << summary.failures.size() << " failing case(s); first seed "
      << summary.failures.front().seed << ": "
      << summarize(summary.failures.front().violations);
  // Clean cases delete their traces.
  for (int i = 0; i < 6; ++i) {
    const std::string trace =
        options.trace_dir + "/fuzz_" + std::to_string(21 + i) + ".jsonl";
    std::FILE* f = std::fopen(trace.c_str(), "r");
    EXPECT_EQ(f, nullptr) << trace << " should have been deleted";
    if (f) std::fclose(f);
  }
}

}  // namespace
}  // namespace refer::verify
