// Tests for the offline trace analyzer: the flat JSONL parser, the
// schema / chain / Theorem 3.8 audits on synthetic traces, and an
// end-to-end run over a real REFER trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/json_doc.hpp"
#include "analysis/jsonl.hpp"
#include "analysis/timeline_report.hpp"
#include "analysis/trace_report.hpp"
#include "harness/experiment.hpp"
#include "refer/system.hpp"
#include "runner/results_writer.hpp"
#include "sim/trace.hpp"

namespace refer::analysis {
namespace {

TEST(JsonlParser, ParsesFlatObjects) {
  const auto obj = parse_flat_object(
      R"({"t":1.25,"event":"hop_forward","from":-1,"ok":true,"x":null,)"
      R"("at":"a\"b\\c\n"})");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->at("t").kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(obj->at("t").number, 1.25);
  EXPECT_EQ(obj->at("event").str, "hop_forward");
  EXPECT_DOUBLE_EQ(obj->at("from").number, -1.0);
  EXPECT_EQ(obj->at("ok").kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(obj->at("ok").boolean);
  EXPECT_EQ(obj->at("x").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(obj->at("at").str, "a\"b\\c\n");
}

TEST(JsonlParser, ParsesUnicodeEscapesAndEmptyObject) {
  const auto obj = parse_flat_object(R"({"s":"x\u0001y"})");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->at("s").str, std::string("x\x01y"));
  const auto empty = parse_flat_object("  { }  ");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(JsonlParser, RejectsNestedAndMalformed) {
  EXPECT_FALSE(parse_flat_object(R"({"a":{"b":1}})").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a":[1,2]})").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a":1)").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a" 1})").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(parse_flat_object("not json").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a":tru})").has_value());
  EXPECT_FALSE(parse_flat_object(R"({"a":"unterminated)").has_value());
}

// --- Synthetic-trace audits.  K(2,3) facts used below: from at=012 to
// dst=201 (overlap l=1) Theorem 3.8 yields successors 120 (shortest,
// nominal 2) and 121 (conflict, nominal 5).

std::string base_packet(const char* rest) {
  return std::string(
             R"({"t":0.0,"event":"packet_sent","from":1,"to":-1,)"
             R"("bytes":100,"bucket":0,"packet":0,"hop":0})") +
         "\n" + rest;
}

TEST(TraceReport, AcceptsAValidTheorem38Failover) {
  std::istringstream in(base_packet(
      R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":5,)"
      R"("at":"012","dst":"201","next":"121"})"
      "\n"));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.degree, 2);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.failovers_checked, 1u);
  EXPECT_EQ(r.failover_mismatches, 0u);
  EXPECT_EQ(r.violations(), 0u);
}

TEST(TraceReport, DetectsForgedNominalLength) {
  std::istringstream in(base_packet(
      R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":9,)"
      R"("at":"012","dst":"201","next":"121"})"
      "\n"));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.failovers_checked, 1u);
  EXPECT_EQ(r.failover_mismatches, 1u);
  EXPECT_GT(r.violations(), 0u);
}

TEST(TraceReport, DetectsNonDisjointRouteSuccessor) {
  // 210 is not a successor of 012 at all.
  std::istringstream in(base_packet(
      R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":2,)"
      R"("at":"012","dst":"201","next":"210"})"
      "\n"));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.failover_mismatches, 1u);
}

TEST(TraceReport, DetectsPathLongerThanNominal) {
  // Valid fail-over to the shortest route (nominal 2), but the packet
  // then wanders for 4 hops before reaching dst: observed > nominal.
  std::istringstream in(base_packet(
      R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":2,)"
      R"("at":"012","dst":"201","next":"120"})"
      "\n"
      R"({"t":0.2,"event":"hop_forward","from":1,"to":2,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":1,"at":"012","dst":"201","next":"120"})"
      "\n"
      R"({"t":0.3,"event":"hop_forward","from":2,"to":1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":2,"at":"120","dst":"201","next":"201"})"
      "\n"));
  // First check the clean 2-hop completion passes...
  const TraceReport clean = analyze_trace(in);
  EXPECT_EQ(clean.failover_mismatches, 0u);
  EXPECT_EQ(clean.path_length_violations, 0u);

  std::istringstream wander(base_packet(
      R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":2,)"
      R"("at":"012","dst":"201","next":"120"})"
      "\n"
      R"({"t":0.2,"event":"hop_forward","from":1,"to":2,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":1,"at":"012","dst":"201","next":"120"})"
      "\n"
      R"({"t":0.3,"event":"hop_forward","from":2,"to":1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":2,"at":"120","dst":"201","next":"012"})"
      "\n"
      R"({"t":0.4,"event":"hop_forward","from":1,"to":2,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":3,"at":"012","dst":"201","next":"120"})"
      "\n"
      R"({"t":0.5,"event":"hop_forward","from":2,"to":3,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":4,"at":"120","dst":"201","next":"201"})"
      "\n"));
  const TraceReport r = analyze_trace(wander);
  EXPECT_EQ(r.failover_mismatches, 0u);
  EXPECT_EQ(r.path_length_violations, 1u);
}

TEST(TraceReport, HeaderDegreeBeatsLabelInference) {
  // Labels only exercise digits {0,1,2} (which would infer d=2), but
  // the header says the overlay is K(3, k): the header wins.
  std::istringstream in(
      R"({"t":0.0,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0,"degree":3})"
      "\n" +
      base_packet(
          R"({"t":0.2,"event":"hop_forward","from":1,"to":2,"bytes":100,)"
          R"("bucket":0,"packet":0,"hop":1,"at":"012","dst":"201",)"
          R"("next":"120"})"
          "\n"));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.schema_errors, 0u);
  EXPECT_EQ(r.header_degree, 3);
  EXPECT_EQ(r.degree, 3);

  // An explicit --degree still overrides the header.
  std::istringstream in2(
      R"({"t":0.0,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0,"degree":3})"
      "\n");
  TraceReportOptions opts;
  opts.degree = 4;
  EXPECT_EQ(analyze_trace(in2, opts).degree, 4);
}

TEST(TraceReport, RejectsMalformedHeader) {
  // A header without a degree (or with an unusable one) is a schema
  // violation; the audit then falls back to label inference.
  std::istringstream in(
      R"({"t":0.0,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0})"
      "\n"
      R"({"t":0.1,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0,"degree":1})"
      "\n");
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.schema_errors, 2u);
  EXPECT_EQ(r.header_degree, 0);
}

// --- Regular-walk audit (audit 4).  K(2,3) facts used below, verified
// against kautz::regular_route: 012 -> 102 walks 012 121 210 102 (no
// separator); 012 -> 201 walks 012 121 212 120 201 (separator 1);
// 120 -> 201 walks 120 202 020 201.

std::string regular_header() {
  return R"({"t":0.0,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
         R"("bucket":0,"degree":2,"policy":"regular"})"
         "\n";
}

std::string hop(double t, const char* at, const char* dst, const char* next) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                R"({"t":%.1f,"event":"hop_forward","from":1,"to":2,)"
                R"("bytes":100,"bucket":0,"packet":0,"hop":1,"at":"%s",)"
                R"("dst":"%s","next":"%s"})"
                "\n",
                t, at, dst, next);
  return buf;
}

TEST(TraceReport, AcceptsAFaithfulRegularWalk) {
  std::istringstream in(regular_header() +
                        base_packet((hop(0.1, "012", "102", "121") +
                                     hop(0.2, "121", "102", "210") +
                                     hop(0.3, "210", "102", "102"))
                                        .c_str()));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.header_policy, "regular");
  EXPECT_EQ(r.regular_checked, 3u);
  EXPECT_EQ(r.regular_mismatches, 0u);
  EXPECT_EQ(r.violations(), 0u);
}

TEST(TraceReport, FlagsAHopThatLeavesTheRegularProgram) {
  // 012 -> 120 is a real Kautz arc (the arc audit is happy), but the
  // regular program for dst 102 appends digit 1 first (012 -> 121), and
  // a fresh walk derived at 012 starts the same way: 120 is neither a
  // continuation nor a restart.
  std::istringstream in(regular_header() +
                        base_packet(hop(0.1, "012", "102", "120").c_str()));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.regular_checked, 1u);
  EXPECT_EQ(r.regular_mismatches, 1u);
  EXPECT_GT(r.violations(), 0u);
}

TEST(TraceReport, FailoverDetourHopsAreExemptFromTheWalkAudit) {
  // A Theorem 3.8 fail-over to the shortest alternate (012 -> 120 for
  // dst 201, nominal 2) explains the off-program hop; the walk then
  // restarts at the detour node (120 -> 202 begins the fresh 120 -> 201
  // program) and only that hop is counted.
  std::istringstream in(
      regular_header() +
      base_packet(
          (std::string(
               R"({"t":0.1,"event":"failover","from":1,"to":-1,"bytes":100,)"
               R"("bucket":0,"packet":0,"hop":0,"alt":1,"nominal_len":2,)"
               R"("at":"012","dst":"201","next":"120"})"
               "\n") +
           hop(0.2, "012", "201", "120") + hop(0.3, "120", "201", "202"))
              .c_str()));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.failover_mismatches, 0u);
  EXPECT_EQ(r.regular_checked, 1u);
  EXPECT_EQ(r.regular_mismatches, 0u);
  EXPECT_EQ(r.violations(), 0u);
}

TEST(TraceReport, GreedyTracesSkipTheRegularAudit) {
  // Same off-program hop as above, but no policy in the header: the
  // run was greedy, so the walk audit must not fire at all.
  std::istringstream in(
      R"({"t":0.0,"event":"trace_header","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0,"degree":2})"
      "\n" +
      base_packet(hop(0.1, "012", "102", "120").c_str()));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.header_policy, "");
  EXPECT_EQ(r.regular_checked, 0u);
  EXPECT_EQ(r.regular_mismatches, 0u);
  EXPECT_EQ(r.violations(), 0u);
}

TEST(TraceReport, FlagsSchemaViolations) {
  std::istringstream in(
      // Routing event without a packet id.
      R"({"t":1,"event":"hop_forward","from":1,"to":2,"bytes":0,"bucket":0})"
      "\n"
      // Fail-over without an alt index.
      R"({"t":2,"event":"failover","from":1,"to":-1,"bytes":0,"bucket":0,)"
      R"("packet":7})"
      "\n"
      // Drop without a reason.
      R"({"t":3,"event":"packet_dropped","from":-1,"to":-1,"bytes":0,)"
      R"("bucket":0,"packet":7})"
      "\n"
      // Unknown event name.
      R"({"t":4,"event":"warp_drive","from":1,"to":2,"bytes":0,"bucket":0})"
      "\n"
      // Unparsable line.
      "{{{\n"
      // And one fine frame-level record.
      R"({"t":5,"event":"broadcast","from":3,"to":-1,"bytes":64,"bucket":1})"
      "\n"
      // QoS miss without a packet id (baseline systems): fine, counted.
      R"({"t":6,"event":"qos_deadline_miss","from":2,"to":-1,"bytes":0,)"
      R"("bucket":0})"
      "\n");
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.lines, 7u);
  EXPECT_EQ(r.parse_errors, 1u);
  EXPECT_EQ(r.schema_errors, 4u);
  EXPECT_EQ(r.qos_misses, 1u);
  EXPECT_GT(r.violations(), 0u);
}

TEST(TraceReport, DetectsChainBreaksAndInvalidArcs) {
  std::istringstream in(base_packet(
      R"({"t":0.2,"event":"hop_forward","from":1,"to":2,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":1})"
      "\n"
      // from=5 but the previous hop ended at node 2: chain break.
      R"({"t":0.3,"event":"hop_forward","from":5,"to":6,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":2})"
      "\n"
      // 012 -> 021 is not a Kautz arc (prefix must be the suffix).
      R"({"t":0.4,"event":"hop_forward","from":6,"to":7,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":3,"at":"012","dst":"201","next":"021"})"
      "\n"
      R"({"t":0.5,"event":"packet_delivered","from":7,"to":-1,"bytes":100,)"
      R"("bucket":0,"packet":0,"hop":3})"
      "\n"));
  const TraceReport r = analyze_trace(in);
  EXPECT_EQ(r.packets_delivered, 1u);
  EXPECT_EQ(r.chain_breaks, 1u);
  EXPECT_EQ(r.arc_violations, 1u);
}

TEST(TraceReport, MissingFileReportsViolation) {
  const TraceReport r =
      analyze_trace_file("/nonexistent-dir/nope.jsonl", {});
  EXPECT_EQ(r.lines, 0u);
  EXPECT_GT(r.violations(), 0u);
}

TEST(TraceReport, EndToEndReferTraceAuditsClean) {
  // Run a real REFER simulation with faults (to force fail-overs) and
  // audit its trace: every recorded Theorem 3.8 decision must re-derive
  // offline, hop chains must connect, and the schema must hold.
  harness::Scenario sc;
  sc.warmup_s = 5;
  sc.measure_s = 30;
  sc.packets_per_second = 4;
  sc.seed = 11;
  sc.faulty_nodes = 25;
  sc.trace_path = ::testing::TempDir() + "analysis_e2e.jsonl";
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);

  const TraceReport r = analyze_trace_file(sc.trace_path, {});
  EXPECT_GT(r.lines, 0u);
  EXPECT_EQ(r.parse_errors, 0u);
  EXPECT_EQ(r.schema_errors, 0u);
  EXPECT_EQ(r.header_degree, 2);  // build emitted a trace_header record
  EXPECT_EQ(r.degree, 2);         // the paper's K(2,3) cells
  // The trace also covers warmup traffic, so >= the windowed metrics.
  EXPECT_GE(r.packets_sent, m.packets_sent);
  EXPECT_GE(r.packets_delivered, m.packets_delivered);
  EXPECT_GT(r.packets_delivered, 0u);
  // Faults + mobility must have exercised the fail-over machinery, and
  // every audited decision must check out against kautz::disjoint_routes.
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GT(r.failovers_checked, 0u);
  EXPECT_EQ(r.failover_mismatches, 0u);
  EXPECT_EQ(r.path_length_violations, 0u);
  EXPECT_EQ(r.chain_breaks, 0u);
  EXPECT_EQ(r.arc_violations, 0u);
  EXPECT_EQ(r.violations(), 0u);
  std::remove(sc.trace_path.c_str());
}

TEST(TraceReport, RouteGenerationFloodsKeepHopChainsConnected) {
  // Regression: in FailoverMode::kRouteGeneration a recovered packet
  // travels a flooded path; that segment must appear as a (label-less)
  // hop_forward record, or the chain-continuity audit flags every
  // flood-recovered delivery as a break.
  const std::string path = ::testing::TempDir() + "routegen_trace.jsonl";
  {
    sim::Simulator simulator;
    sim::World world({{0, 0}, {500, 500}}, simulator);
    sim::EnergyTracker energy;
    sim::Channel channel(simulator, world, energy, Rng(3));
    for (const Point p : {Point{125, 125}, Point{375, 125}, Point{125, 375},
                          Point{375, 375}, Point{250, 250}}) {
      world.add_actuator(p, 250);
    }
    Rng rng(42);
    std::vector<sim::NodeId> sensors;
    for (int i = 0; i < 200; ++i) {
      sensors.push_back(world.add_static_sensor(
          {rng.uniform(0, 500), rng.uniform(0, 500)}, 100));
    }
    energy.resize(world.size());
    energy.set_initial_battery(1e9);

    core::ReferConfig config;
    config.router.failover = core::FailoverMode::kRouteGeneration;
    core::ReferSystem system(simulator, world, channel, energy, Rng(7),
                             config);
    sim::Tracer tracer;
    sim::JsonlTraceWriter writer(path);
    tracer.set_sink(std::ref(writer));
    system.set_tracer(&tracer);
    bool ok = false;
    system.build([&](bool r) { ok = r; });
    simulator.run_until(30);
    ASSERT_TRUE(ok);

    // Cross-cell full addressing: a flood-recovered packet keeps
    // routing (corner ascent, CAN transit, descent) after the flooded
    // segment, which is exactly where a missing hop record shows up as
    // a chain break.  Kill a fresh batch of sensors each round so
    // relays lose their shortest successors and fall back to
    // flood-discovered routes.
    const auto dst_cid =
        static_cast<core::Cid>(system.topology().cell_count()) - 1;
    const core::FullId dst{dst_cid, kautz::Label{1, 0, 1}};
    Rng pick(11), fault(13);
    std::vector<sim::NodeId> down;
    for (int round = 0; round < 8; ++round) {
      for (sim::NodeId n : down) world.set_alive(n, true);
      down.clear();
      for (std::size_t idx : fault.sample_indices(sensors.size(), 20)) {
        world.set_alive(sensors[idx], false);
        down.push_back(sensors[idx]);
      }
      for (int i = 0; i < 20; ++i) {
        const sim::NodeId src = sensors[pick.below(sensors.size())];
        if (!world.alive(src)) continue;
        system.send_to(src, dst, 1000, nullptr);
        simulator.run_until(simulator.now() + 0.2);
      }
    }
    simulator.run_until(simulator.now() + 3);
    EXPECT_GT(system.router().stats().route_gen_floods, 0u);
  }

  const TraceReport r = analyze_trace_file(path, {});
  EXPECT_EQ(r.parse_errors, 0u);
  EXPECT_EQ(r.schema_errors, 0u);
  EXPECT_EQ(r.header_degree, 2);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_EQ(r.chain_breaks, 0u);
  EXPECT_EQ(r.arc_violations, 0u);
  EXPECT_EQ(r.violations(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------- nested JSON parser

TEST(JsonDoc, ParsesNestedDocuments) {
  const auto doc = parse_json_doc(
      R"({"a":{"b":[1,2.5,-3e1]},"s":"hi","t":true,"z":null,"arr":[{"k":7}]})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonNode* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  const auto nums = a->member_numbers("b");
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[0], 1.0);
  EXPECT_DOUBLE_EQ(nums[1], 2.5);
  EXPECT_DOUBLE_EQ(nums[2], -30.0);
  ASSERT_NE(doc->find("s")->string_or_null(), nullptr);
  EXPECT_EQ(*doc->find("s")->string_or_null(), "hi");
  EXPECT_TRUE(doc->find("t")->bool_or(false));
  EXPECT_EQ(doc->find("z")->kind, JsonNode::Kind::kNull);
  const JsonNode* arr = doc->find("arr");
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->items.size(), 1u);
  EXPECT_DOUBLE_EQ(arr->items[0].member_number("k", 0), 7.0);
}

TEST(JsonDoc, RejectsMalformed) {
  EXPECT_FALSE(parse_json_doc("{").has_value());
  EXPECT_FALSE(parse_json_doc(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(parse_json_doc(R"({"a":})").has_value());
  EXPECT_FALSE(parse_json_doc(R"([1,2,)").has_value());
  EXPECT_FALSE(parse_json_doc("").has_value());
  EXPECT_TRUE(parse_json_doc("  [1, 2]  ").has_value());
}

// ------------------------------------------------- timeline detectors

TEST(TimelineDetect, WarmupCountsLeadingSubMedianBuckets) {
  EXPECT_EQ(detect_warmup({10, 40, 100, 100, 100, 100, 100, 100}), 2u);
  EXPECT_EQ(detect_warmup({100, 100, 100, 100}), 0u);
  // At most half the series can be warmup.
  EXPECT_EQ(detect_warmup({1, 1, 1, 1, 100, 100, 100, 100, 100, 100}), 4u);
  // The cap: a series that is mostly "warmup" has no steady state.
  EXPECT_EQ(detect_warmup({1, 1, 1, 1, 1, 90, 100, 110, 100, 100}), 5u);
}

TEST(TimelineDetect, PlantedKneeLocalizedWithinOneBucket) {
  // Rising 50 kbps/bucket until bucket 6, then flat: the classic
  // saturation curve.  Queue wait jumps across the knee.
  const std::vector<double> y{300, 350, 400, 450, 500, 550,
                              600, 610, 605, 615, 608, 612};
  const std::vector<double> wait{10, 10, 11, 10, 12, 11,
                                 40, 90, 160, 220, 260, 300};
  const Knee knee = detect_knee(y, wait);
  ASSERT_TRUE(knee.found);
  EXPECT_NEAR(static_cast<double>(knee.bucket), 6.0, 1.0);
  EXPECT_GT(knee.slope_before, 25.0);
  EXPECT_LT(knee.slope_after, 0.25 * knee.slope_before);
  EXPECT_TRUE(knee.queue_wait_grows);
}

TEST(TimelineDetect, FlatAndNoisySeriesHaveNoKnee) {
  EXPECT_FALSE(
      detect_knee({500, 501, 499, 502, 500, 498, 501, 500}, {}).found);
  // Monotone rise with no plateau: no knee either.
  EXPECT_FALSE(
      detect_knee({100, 200, 300, 400, 500, 600, 700, 800}, {}).found);
  // Too short to split.
  EXPECT_FALSE(detect_knee({1, 2, 3}, {}).found);
}

TEST(TimelineDetect, DipsSkipMissingDataAndFindRuns) {
  // -1 marks buckets with no samples: they join neither dip nor median.
  const std::vector<double> y{1.0, 1.0, -1.0, 0.2, 0.1, 0.3, 1.0, 1.0};
  const auto dips = detect_dips(y, 0.7);
  ASSERT_EQ(dips.size(), 1u);
  EXPECT_EQ(dips[0].from, 3u);
  EXPECT_EQ(dips[0].to, 5u);
  EXPECT_EQ(dips[0].deepest, 4u);
  EXPECT_NEAR(dips[0].depth_frac, 0.1, 1e-9);
  EXPECT_TRUE(detect_dips({1, 1, 1, 1}, 0.7).empty());
}

// ------------------------------------------------- document loading

TEST(TimelineReport, LoadsLegacyV3Documents) {
  const std::string v3 = R"({
    "schema_version": 3,
    "benchmark": "fig04",
    "scenario": {"timeline_bucket_s": 20},
    "jobs_run": [
      {"system": "REFER", "seed": 5, "x": 1, "rep": 0,
       "metrics": {"qos_timeline_kbps": [1000, 1000, 986, 1014]}},
      {"system": "DaTree", "seed": 5, "x": 1, "rep": 0,
       "metrics": {"delivery_ratio": 0.5}}
    ]
  })";
  const auto doc = load_timeline_doc(v3);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->schema_version, 3);
  EXPECT_EQ(doc->benchmark, "fig04");
  // The second job carries no timeline and is skipped.
  ASSERT_EQ(doc->jobs.size(), 1u);
  const TimelineSeries& s = doc->jobs[0];
  EXPECT_FALSE(s.v4);
  EXPECT_EQ(s.system, "REFER");
  EXPECT_EQ(s.seed, "5");
  EXPECT_DOUBLE_EQ(s.bucket_s, 20.0);  // backfilled from the scenario
  ASSERT_EQ(s.qos_kbps.size(), 4u);
  EXPECT_DOUBLE_EQ(s.qos_kbps[2], 986.0);
}

TEST(TimelineReport, RejectsPreTimelineSchemas) {
  EXPECT_FALSE(load_timeline_doc(R"({"schema_version": 2})").has_value());
  EXPECT_FALSE(load_timeline_doc("not json").has_value());
  // v3 with no jobs at all is a valid, empty document.
  const auto empty = load_timeline_doc(R"({"schema_version": 3})");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->jobs.empty());
}

TEST(TimelineReport, StrictExitCodeFlipsOnAnomalies) {
  const std::string doc_text = R"({
    "schema_version": 3,
    "scenario": {"timeline_bucket_s": 5},
    "jobs_run": [
      {"system": "REFER", "seed": 1, "x": 0, "rep": 0,
       "metrics": {"qos_timeline_kbps":
           [500, 500, 500, 100, 90, 500, 500, 500]}}
    ]
  })";
  const auto doc = load_timeline_doc(doc_text);
  ASSERT_TRUE(doc.has_value());
  ReportOptions lax;
  const TimelineReport report = analyze_timelines(*doc, lax);
  ASSERT_EQ(report.findings.size(), 1u);
  ASSERT_FALSE(report.findings[0].qos_dips.empty());
  EXPECT_GE(report.anomaly_count, 1u);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(print_timeline_report(sink, *doc, report, lax), 0);
  ReportOptions strict = lax;
  strict.strict = true;
  EXPECT_EQ(print_timeline_report(sink, *doc, report, strict), 1);
  std::fclose(sink);
}

// ------------------------------------------------- end-to-end dip run

TEST(TimelineReport, LocalizesScriptedActuatorFaultDip) {
  // The fig_app scripted break: actuator 0 is down for t0+30 .. t0+42
  // (relative to the workload start).  With warmup 0 the workload start
  // IS bucket 0's left edge, so the fault begins in bucket 30/5 = 6.
  harness::Scenario sc;
  sc.warmup_s = 0;
  sc.measure_s = 60;
  sc.timeline_bucket_s = 5;
  sc.app_enabled = true;
  sc.app_event_period_s = 1;
  sc.app_fault_schedule = "0@30+12";
  sc.seed = 7;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  ASSERT_GT(m.app_loops_started, 50u);

  // Round-trip through the schema-v4 writer: this is the exact document
  // the timeline_report CLI reads.
  runner::ResultsWriter writer;
  writer.set_tool("analysis_test");
  writer.set_benchmark("fault_dip");
  writer.set_scenario(sc);
  harness::JobRecord rec;
  rec.system = harness::SystemKind::kRefer;
  rec.seed = sc.seed;
  rec.metrics = m;
  writer.add_records({rec});
  const auto doc = load_timeline_doc(writer.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->schema_version, 6);
  ASSERT_EQ(doc->jobs.size(), 1u);
  EXPECT_TRUE(doc->jobs[0].v4);

  // One broken actuator out of five fails only the loops nearest to it
  // (the rest fail over), so judge the completion ratio against a 0.9
  // threshold rather than the default deep-outage 0.7.
  ReportOptions opts;
  opts.dip_frac = 0.9;
  const TimelineReport report = analyze_timelines(*doc, opts);
  ASSERT_EQ(report.findings.size(), 1u);
  const SeriesFindings& f = report.findings[0];
  ASSERT_FALSE(f.app_dips.empty()) << "the fault window must dip";
  const std::size_t fault_start_bucket =
      static_cast<std::size_t>(30.0 / sc.timeline_bucket_s);
  const std::size_t fault_end_bucket =
      static_cast<std::size_t>((30.0 + 12.0) / sc.timeline_bucket_s);
  const Dip& dip = f.app_dips.front();
  // Localized to within one bucket of the scripted window on both ends
  // (the supervision tier fails the survivors over before the scripted
  // repair, so recovery may land one bucket early).
  EXPECT_NEAR(static_cast<double>(dip.from),
              static_cast<double>(fault_start_bucket), 1.0);
  EXPECT_NEAR(static_cast<double>(dip.to),
              static_cast<double>(fault_end_bucket), 1.0);
  EXPECT_LT(dip.depth_frac, 0.9);
  EXPECT_FALSE(f.anomalies.empty());
}

}  // namespace
}  // namespace refer::analysis
