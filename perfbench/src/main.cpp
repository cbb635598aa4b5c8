// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload dense|saturated|faults --seed N --seconds S
//             --trace 0|1 --out DIR [--reference FILE] [--scale full|tiny]
//   perfbench --print-digests --workload W --seed N [--scale full|tiny]
//
// Untraced (--trace 0) it runs one untimed warm pass over the job set,
// then alternates set-up passes and measured passes until S seconds have
// been measured, and reports the end-to-end metrics.  Traced (--trace 1)
// it adds one pass with the phase profiler, kernel profiler, JSONL trace
// and invariant checker on every job, and reports the per-layer metrics.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
// Every number comes from outside the program: this binary times its own
// calls into run_once, ResultsWriter::write, analyze_trace_file and the
// Kautz route functions, and reads the counters and profiler accounts the
// program exports.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json_doc.hpp"
#include "analysis/trace_report.hpp"
#include "common/phase_profiler.hpp"
#include "kautz/route_cache.hpp"
#include "kautz/routing.hpp"
#include "measure.hpp"
#include "runner/results_writer.hpp"
#include "verify/invariants.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using refer::StatsRegistry;
using refer::harness::JobRecord;
using refer::harness::RunMetrics;
using refer::harness::Scenario;
using refer::harness::SystemKind;

/// Pairs of (set-up pass, measured pass): at least this many, whatever
/// --seconds says, so every median has several samples.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 500;
/// probe_seconds() on a quiet shared 4-vCPU host; end-to-end host times
/// are reported as if the host ran the probe this fast.
constexpr double kProbeReferenceS = 0.15;
/// The kautz replay times each function over at least this much work.
constexpr double kReplayMinSeconds = 0.05;
constexpr std::size_t kMaxReplayPairs = 200000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string out_dir;
  std::string reference;
  bool print_digests = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " requires a value");
    return argv[++i];
  };
  auto number = [&](int& i) -> double {
    const std::string flag = argv[i];
    const std::string raw = value(i);
    char* end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (raw.empty() || *end != '\0') usage(flag + ": not a number: " + raw);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      opt.workload = value(i);
    } else if (arg == "--seed") {
      const double s = number(i);
      if (s < 0) usage("--seed must be non-negative");
      opt.seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--seconds") {
      opt.seconds = number(i);
      if (opt.seconds <= 0) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string t = value(i);
      if (t != "0" && t != "1") usage("--trace expects 0 or 1");
      opt.trace = t == "1";
    } else if (arg == "--scale") {
      const std::string s = value(i);
      if (s != "full" && s != "tiny") usage("--scale expects full or tiny");
      opt.scale = s == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (arg == "--out") {
      opt.out_dir = value(i);
    } else if (arg == "--reference") {
      opt.reference = value(i);
    } else if (arg == "--print-digests") {
      opt.print_digests = true;
    } else {
      usage("unknown flag: " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!opt.print_digests && opt.out_dir.empty()) usage("--out is required");
  return opt;
}

const char* scale_name(Scale s) { return s == Scale::kTiny ? "tiny" : "full"; }

/// Reference digests of the workload's jobs for this seed; empty when the
/// file has none for the seed or the run is not at full scale (then only
/// run-to-run determinism is checked).
std::map<std::string, std::string> load_reference(const Options& opt,
                                                  const std::vector<Job>& jobs) {
  std::ifstream in(opt.reference);
  if (!in) usage("cannot read reference digests: " + opt.reference);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = refer::analysis::parse_json_doc(text.str());
  const refer::analysis::JsonNode* workloads =
      doc ? doc->find("workloads") : nullptr;
  if (!workloads) usage("malformed reference digests: " + opt.reference);
  std::map<std::string, std::string> out;
  const refer::analysis::JsonNode* w = workloads->find(opt.workload);
  if (opt.scale != Scale::kFull || !w) return out;
  const refer::analysis::JsonNode* keys = w->find("jobs");
  const refer::analysis::JsonNode* seeds = w->find("seeds");
  const refer::analysis::JsonNode* digests =
      seeds ? seeds->find(std::to_string(opt.seed)) : nullptr;
  if (!keys || !digests) return out;
  bool stale = keys->items.size() != jobs.size() ||
               digests->items.size() != jobs.size();
  for (std::size_t j = 0; !stale && j < jobs.size(); ++j) {
    const std::string* key = keys->items[j].string_or_null();
    const std::string* digest = digests->items[j].string_or_null();
    stale = !key || !digest || *key != jobs[j].key;
    if (!stale) out[*key] = *digest;
  }
  if (stale) {
    usage("reference digests do not match the job set of " + opt.workload +
          "; run perfbench/update_reference.py");
  }
  return out;
}

/// Attempted / failed job accounting; a failure keeps its reason.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(const std::string& key, const std::string& why) {
    ++failed;
    if (reasons.size() < 20) reasons.push_back(key + ": " + why);
  }
};

/// One timed run_once; nullopt when the program threw.
std::optional<RunMetrics> timed_run(const Job& job, const Scenario& sc,
                                    double& seconds, Tally& tally) {
  ++tally.attempted;
  const Stopwatch sw;
  try {
    RunMetrics m = refer::harness::run_once(job.kind, sc);
    seconds = sw.seconds();
    return m;
  } catch (const std::exception& e) {
    seconds = sw.seconds();
    tally.fail(job.key, std::string("run_once threw: ") + e.what());
  } catch (...) {
    seconds = sw.seconds();
    tally.fail(job.key, "run_once threw a non-standard exception");
  }
  return std::nullopt;
}

JobRecord record_of(const Job& job, const Scenario& sc, RunMetrics m) {
  JobRecord r;
  r.system = job.kind;
  r.seed = sc.seed;
  r.policy = sc.routing_policy;
  r.metrics = std::move(m);
  return r;
}

/// Checks one job's outputs: the build, basic accounting, that repeats of
/// the job agree, and the reference digest when the seed has one.  A
/// failed check counts the job as failed.
void check_outputs(const Job& job, const JobRecord& rec, bool setup_pass,
                   const std::map<std::string, std::string>& reference,
                   std::map<std::string, std::uint64_t>& first_digest,
                   Tally& tally) {
  const RunMetrics& m = rec.metrics;
  if (!m.build_ok) {
    tally.fail(job.key, "topology construction failed (build_ok=false)");
    return;
  }
  if (m.qos_delivered > m.packets_delivered ||
      m.packets_delivered > m.packets_sent) {
    tally.fail(job.key, "delivery accounting out of order");
    return;
  }
  if (setup_pass && m.packets_sent != 0) {
    tally.fail(job.key, "set-up pass sent traffic");
    return;
  }
  const std::uint64_t digest = job_digest(rec);
  const std::string slot = (setup_pass ? "setup:" : "") + job.key;
  const auto [it, fresh] = first_digest.emplace(slot, digest);
  if (!fresh && it->second != digest) {
    tally.fail(job.key, "outputs differ between repeats of the same job");
    return;
  }
  if (setup_pass || reference.empty()) return;
  const auto ref = reference.find(job.key);
  if (ref == reference.end()) {
    tally.fail(job.key, "no reference digest for this job");
  } else if (ref->second != hex_digest(digest)) {
    tally.fail(job.key, "outputs differ from the reference digest (" +
                            hex_digest(digest) + " != " + ref->second + ")");
  }
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< base of a ratio, or where the number comes from
  /// Printed in the table but left out of the result line: the simulated
  /// QoS numbers are exact per seed and swing widely between seeds, so
  /// they are checked through the reference digest instead of a bound,
  /// and job_fail_ratio is the result line's failed / attempted.
  bool table_only = false;
};

/// Observability lookups over one job's snapshot.
const StatsRegistry::Entry* entry(const RunMetrics& m,
                                  const std::string& name) {
  for (const StatsRegistry::Entry& e : m.observability) {
    if (e.name == name) return &e;
  }
  return nullptr;
}
double count(const RunMetrics& m, const std::string& name) {
  const StatsRegistry::Entry* e = entry(m, name);
  return e ? static_cast<double>(e->count) : 0.0;
}

struct WorkloadRun {
  std::vector<Job> jobs;
  int passes = 0;  ///< timed (set-up pass, measured pass) pairs
  std::vector<std::vector<double>> job_s;    ///< [job][pass]
  std::vector<std::vector<double>> setup_s;  ///< [job][setup pass]
  std::vector<double> probe_s;  ///< host-speed probe, twice per pass
  std::vector<JobRecord> records;  ///< outputs of the warm pass
  double peak_rss_mb = 0;          ///< read after the warm pass
  Tally tally;
};

WorkloadRun measure(const Options& opt, std::vector<Job> jobs,
                    const std::map<std::string, std::string>& reference) {
  WorkloadRun run;
  run.jobs = std::move(jobs);
  const std::size_t n = run.jobs.size();
  run.job_s.resize(n);
  run.setup_s.resize(n);
  std::map<std::string, std::uint64_t> first_digest;

  // One untimed warm pass: lazy allocations settle, its outputs are the
  // ones reported and digested, and peak RSS is read after exactly one
  // pass over the job set so it does not depend on how many timed passes
  // fit into --seconds.
  for (const Job& job : run.jobs) {
    double s = 0;
    if (auto m = timed_run(job, job.scenario, s, run.tally)) {
      JobRecord rec = record_of(job, job.scenario, std::move(*m));
      check_outputs(job, rec, false, reference, first_digest, run.tally);
      run.records.push_back(std::move(rec));
    }
  }
  run.peak_rss_mb = peak_rss_mb();

  // Set-up and measured passes alternate, so both sample the same
  // stretches of host load across the whole measure time.
  const Stopwatch clock;
  for (; run.passes < kMaxPasses &&
         (run.passes < kMinPasses || clock.seconds() < opt.seconds);
       ++run.passes) {
    for (std::size_t j = 0; j < n; ++j) {
      const Scenario sc = setup_only(run.jobs[j].scenario);
      double s = 0;
      auto m = timed_run(run.jobs[j], sc, s, run.tally);
      run.setup_s[j].push_back(s);
      if (m) {
        check_outputs(run.jobs[j], record_of(run.jobs[j], sc, std::move(*m)),
                      true, reference, first_digest, run.tally);
      }
    }
    run.probe_s.push_back(probe_seconds());

    std::vector<std::optional<RunMetrics>> outputs(n);
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      outputs[j] = timed_run(run.jobs[j], run.jobs[j].scenario, s, run.tally);
      run.job_s[j].push_back(s);
    }
    run.probe_s.push_back(probe_seconds());
    for (std::size_t j = 0; j < n; ++j) {
      if (!outputs[j]) continue;
      check_outputs(run.jobs[j],
                    record_of(run.jobs[j], run.jobs[j].scenario,
                              std::move(*outputs[j])),
                    false, reference, first_digest, run.tally);
    }
  }
  return run;
}

std::vector<double> job_medians(const std::vector<std::vector<double>>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& samples : s) out.push_back(median(samples));
  return out;
}

/// One pass over the job set: the sum of every job's median.  A burst of
/// host load then costs only the jobs it overlaps one sample each, where
/// the median of whole-pass sums lets a burst in most passes move it.
double pass_time(const std::vector<std::vector<double>>& s) {
  double total = 0;
  for (double m : job_medians(s)) total += m;
  return total;
}

std::vector<Metric> end_to_end(const WorkloadRun& run) {
  // Host times are scaled to a host running the speed probe in
  // kProbeReferenceS: on a shared host the same job set runs 10-40 %
  // slower for minutes at a time, and the probe slows with it.
  const double probe = median(run.probe_s);
  const double speed = ratio(kProbeReferenceS, probe);
  std::vector<double> per_job = job_medians(run.job_s);
  for (double& s : per_job) s *= speed;
  double refer_qos = 0, refer_p95 = 0, refer_jobs = 0;
  for (const JobRecord& r : run.records) {
    if (r.system != SystemKind::kRefer) continue;
    refer_qos += r.metrics.qos_throughput_kbps;
    refer_p95 += r.metrics.delay_p95_ms;
    ++refer_jobs;
  }
  char passes[96];
  std::snprintf(passes, sizeof passes,
                "sum over %zu jobs of each job's median of %d passes",
                run.jobs.size(), run.passes);
  char setups[96];
  std::snprintf(setups, sizeof setups,
                "sum over jobs of each job's median of %d set-up runs",
                run.passes);
  const double wall = pass_time(run.job_s);
  return {
      {"wall_s", wall * speed, "s", passes},
      {"job_ms_p50", median(per_job) * 1e3, "ms",
       "median over jobs of each job's median"},
      {"slowest_job_ms",
       per_job.empty() ? 0 : *std::max_element(per_job.begin(),
                                               per_job.end()) * 1e3,
       "ms", "costliest job's median"},
      {"setup_s", pass_time(run.setup_s) * speed, "s", setups},
      {"peak_rss_mb", run.peak_rss_mb, "MiB",
       "getrusage ru_maxrss after the warm pass"},
      {"host.probe_ms", probe * 1e3, "ms",
       "median of " + std::to_string(run.probe_s.size()) +
           " speed-probe runs; times above are scaled by reference / this",
       true},
      {"host.wall_s_unscaled", wall, "s", "wall_s as the clock read it",
       true},
      {"job_fail_ratio",
       ratio(static_cast<double>(run.tally.failed),
             static_cast<double>(run.tally.attempted)),
       "1",
       std::to_string(run.tally.failed) + " / " +
           std::to_string(run.tally.attempted) + " jobs",
       true},
      {"qos_kbps", ratio(refer_qos, refer_jobs), "kbit/s",
       "mean over REFER jobs (simulated)", true},
      {"delay_p95_ms", ratio(refer_p95, refer_jobs), "ms",
       "mean per-job p95 over REFER jobs (simulated)", true},
  };
}

// ---------------------------------------------------------------- traced

struct TracedPass {
  double wall_s = 0;
  double analysis_s = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_violations = 0;
  std::uint64_t invariant_violations = 0;
  std::array<double, refer::kPhaseCount> phase_ms{};
  /// sim.event_us.<tag> histograms merged over jobs: (sum us, events).
  std::map<std::string, std::pair<double, double>> event_us_sum;
  int degree = 0;
  std::vector<std::pair<refer::kautz::Label, refer::kautz::Label>> pairs;
  std::vector<JobRecord> records;
};

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

TracedPass traced_pass(const Options& opt, const WorkloadRun& run,
                       Tally& tally) {
  TracedPass tp;
  for (const Job& job : run.jobs) {
    Scenario sc = job.scenario;
    sc.profile = true;
    sc.phase_profile = true;
    sc.timeline_bucket_s = std::min(10.0, sc.measure_s);
    sc.trace_path = opt.out_dir + "/" + opt.workload + "-" + job.key + ".jsonl";
    refer::verify::InvariantChecker checker;
    sc.observer = &checker;
    double s = 0;
    auto m = timed_run(job, sc, s, tally);
    tp.wall_s += s;
    if (!m) continue;
    if (!m->build_ok) tally.fail(job.key, "traced run: build_ok=false");
    tp.invariant_violations += checker.violations().size();
    if (!checker.clean()) {
      tally.fail(job.key, "invariant violation: " +
                              checker.violations().front().check + ": " +
                              checker.violations().front().detail);
    }
    tp.trace_bytes += file_size(sc.trace_path);
    const Stopwatch sw;
    const refer::analysis::TraceReport report =
        refer::analysis::analyze_trace_file(sc.trace_path);
    tp.analysis_s += sw.seconds();
    std::filesystem::remove(sc.trace_path);
    tp.trace_records += report.lines;
    tp.trace_violations += report.violations();
    if (report.violations() != 0) {
      tally.fail(job.key, "trace audit reported " +
                              std::to_string(report.violations()) +
                              " violations");
    }
    if (report.degree > 0) tp.degree = report.degree;
    for (const auto& [id, packet] : report.packets) {
      for (const refer::analysis::HopRecord& hop : packet.hops) {
        if (hop.at.empty() || hop.dst.empty() || hop.at == hop.dst) continue;
        if (tp.pairs.size() >= kMaxReplayPairs) break;
        auto u = refer::kautz::Label::parse(hop.at);
        auto v = refer::kautz::Label::parse(hop.dst);
        if (u && v) tp.pairs.emplace_back(*u, *v);
      }
    }
    const refer::sim::TimeSeries& ts = m->timeseries;
    for (std::size_t i = 0; i < ts.phase_wall_us.size(); ++i) {
      tp.phase_ms[i % refer::kPhaseCount] += ts.phase_wall_us[i] / 1e3;
    }
    for (const StatsRegistry::Entry& e : m->observability) {
      if (!e.is_histogram || !e.name.starts_with("sim.event_us.")) continue;
      auto& [sum, n] = tp.event_us_sum[e.name];
      sum += e.sum;
      n += static_cast<double>(e.count);
    }
    tp.records.push_back(record_of(job, sc, std::move(*m)));
  }
  return tp;
}

/// Nanoseconds per call of `fn` over every pair, repeated until the
/// replay has run for kReplayMinSeconds.
template <typename Fn>
double replay_ns(const TracedPass& tp, Fn&& fn) {
  if (tp.pairs.empty() || tp.degree <= 0) return 0;
  std::uint64_t calls = 0;
  const Stopwatch sw;
  do {
    for (const auto& [u, v] : tp.pairs) fn(u, v);
    calls += tp.pairs.size();
  } while (sw.seconds() < kReplayMinSeconds);
  return sw.seconds() * 1e9 / static_cast<double>(calls);
}

std::vector<Metric> per_layer(const Options& opt, WorkloadRun& run) {
  TracedPass tp = traced_pass(opt, run, run.tally);
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, std::string unit,
                 std::string note = {}) {
    out.push_back(
        {std::move(name), value, std::move(unit), std::move(note), false});
  };

  // harness: per-system host time of the untraced passes.
  const std::vector<double> job_med = job_medians(run.job_s);
  const std::vector<double> setup_med = job_medians(run.setup_s);
  for (SystemKind kind : refer::harness::kAllSystems) {
    double job_ms = 0, setup_ms = 0;
    for (std::size_t j = 0; j < run.jobs.size(); ++j) {
      if (run.jobs[j].kind != kind) continue;
      job_ms += job_med[j] * 1e3;
      setup_ms += setup_med[j] * 1e3;
    }
    add(std::string("harness.job_ms.") + system_slug(kind), job_ms, "ms",
        "untraced, summed over the system's jobs");
    add(std::string("harness.setup_ms.") + system_slug(kind), setup_ms, "ms",
        "no-traffic pass");
  }
  double setup_total_ms = 0;
  for (double s : setup_med) setup_total_ms += s * 1e3;
  const double dispatch_ms =
      tp.phase_ms[static_cast<int>(refer::Phase::kKernelDispatch)];
  add("harness.unattributed_ms", tp.wall_s * 1e3 - setup_total_ms - dispatch_ms,
      "ms", "traced job time - set-up time - kernel_dispatch");

  // Deterministic counts of the untraced warm pass.
  auto sum = [&](const std::string& name) {
    double s = 0;
    for (const JobRecord& r : run.records) s += count(r.metrics, name);
    return s;
  };
  auto maximum = [&](const std::string& name) {
    double mx = 0;
    for (const JobRecord& r : run.records) {
      mx = std::max(mx, count(r.metrics, name));
    }
    return mx;
  };
  auto hist_median = [&](const std::string& name, double StatsRegistry::Entry::*
                                                      field) {
    std::vector<double> v;
    for (const JobRecord& r : run.records) {
      if (const StatsRegistry::Entry* e = entry(r.metrics, name)) {
        if (e->count > 0) v.push_back(e->*field);
      }
    }
    return median(v);
  };
  auto phase = [&](refer::Phase p) {
    return tp.phase_ms[static_cast<std::size_t>(p)];
  };
  const double untraced_wall = pass_time(run.job_s);

  const double events = sum("sim.events_executed");
  add("sim.events", events, "count");
  add("sim.events_per_s", ratio(events, untraced_wall), "1/s",
      "events / untraced pass wall time");
  add("sim.peak_queue_depth", maximum("sim.peak_queue_depth"), "count",
      "max over jobs");
  add("sim.closures_pooled", sum("sim.closure.pooled"), "count",
      "must stay 0");
  add("sim.kernel_dispatch_ms", dispatch_ms, "ms",
      "phase account, measure window only");
  for (const char* tag :
       {"other", "channel.unicast", "channel.broadcast", "telemetry.tick"}) {
    const auto it = tp.event_us_sum.find(std::string("sim.event_us.") + tag);
    const double mean_us = it == tp.event_us_sum.end()
                               ? 0
                               : ratio(it->second.first, it->second.second);
    add(std::string("sim.event_us.") + tag, mean_us, "us",
        "mean per event, traced pass");
  }

  const double unicasts = sum("channel.unicasts_sent");
  add("sim.channel.unicasts", unicasts, "count");
  add("sim.channel.broadcasts", sum("channel.broadcasts_sent"), "count");
  add("sim.channel.unicast_fail_ratio",
      ratio(sum("channel.unicasts_failed"), unicasts), "1",
      "base: sim.channel.unicasts");
  add("sim.channel.queue_wait_us_p50",
      hist_median("channel.queue_wait_us", &StatsRegistry::Entry::p50), "us",
      "median over jobs of the job p50 (simulated)");
  add("sim.channel.queue_wait_us_p99",
      hist_median("channel.queue_wait_us", &StatsRegistry::Entry::p99), "us",
      "median over jobs of the job p99 (simulated)");
  add("sim.channel.medium_scan_ms", phase(refer::Phase::kMediumScan), "ms",
      "phase account");

  const double queries = sum("world.grid.queries");
  const double hits = sum("world.neighbor_cache.hits");
  const double lookups = hits + sum("world.neighbor_cache.rebuilds") +
                         sum("world.neighbor_cache.skipped_fills");
  const bool mobile = !run.jobs.empty() && run.jobs.front().scenario.mobile;
  add("sim.world.grid_queries", queries, "count");
  add("sim.world.candidates_per_query",
      ratio(sum("world.grid.candidates"), queries), "1",
      "base: sim.world.grid_queries");
  add("sim.world.rebins", sum("world.grid.rebins"), "count");
  add("sim.world.cache_lookups", lookups, "count",
      "hits + rebuilds + skipped_fills");
  add("sim.world.cache_hit_ratio", ratio(hits, lookups), "1",
      std::string("base: sim.world.cache_lookups; ") +
          (mobile ? "mobile sensors" : "static sensors"));
  add("sim.world.cache_invalidations",
      sum("world.neighbor_cache.invalidations"), "count");
  add("sim.world.spatial_query_ms", phase(refer::Phase::kSpatialQuery), "ms",
      "phase account");

  add("net.flooding_ms", phase(refer::Phase::kFlooding), "ms",
      "phase account");
  add("net.route_gen_floods", sum("router.route_gen_floods"), "count");

  const double rc_hits = sum("router.route_cache_hits");
  const double rc_lookups = rc_hits + sum("router.route_cache_misses");
  add("kautz.route_cache_lookups", rc_lookups, "count");
  add("kautz.route_cache_hit_ratio", ratio(rc_hits, rc_lookups), "1",
      "base: kautz.route_cache_lookups");
  add("kautz.failovers", sum("router.failovers"), "count");
  add("kautz.regular_walks", sum("router.regular_walks"), "count");
  add("kautz.replayed_pairs", static_cast<double>(tp.pairs.size()), "count",
      "traced (at, dst) label pairs");
  std::vector<refer::kautz::Route> routes_out;
  add("kautz.disjoint_routes_ns",
      replay_ns(tp,
                [&](const auto& u, const auto& v) {
                  routes_out = refer::kautz::disjoint_routes(tp.degree, u, v);
                }),
      "ns", "per call, replaying kautz.replayed_pairs");
  refer::kautz::RouteCache cache;
  add("kautz.route_cache_lookup_ns",
      replay_ns(tp,
                [&](const auto& u, const auto& v) {
                  cache.lookup(tp.degree, u, v, routes_out);
                }),
      "ns", "per lookup, replaying kautz.replayed_pairs");

  const double refer_sent = sum("router.packets_sent");
  add("refer.routing_decide_ms", phase(refer::Phase::kRoutingDecide), "ms",
      "phase account");
  add("refer.packets_sent", refer_sent, "count");
  add("refer.drop_ratio", ratio(sum("router.packets_dropped"), refer_sent),
      "1", "base: refer.packets_sent");
  add("refer.relays_used", sum("router.relays_used"), "count");
  add("refer.can_hops", sum("router.can_hops"), "count");

  add("app.loops_started", sum("app.loops_started"), "count");
  add("app.registrations", sum("app.registrations"), "count");
  add("app.keepalive_misses", sum("app.keepalive_misses"), "count");
  add("app.recoveries", sum("app.recoveries"), "count");

  add("sim.trace.records", static_cast<double>(tp.trace_records), "count");
  add("sim.trace.bytes", static_cast<double>(tp.trace_bytes), "B");
  add("sim.trace.overhead_ratio", ratio(tp.wall_s, untraced_wall), "1",
      "traced wall_s / untraced wall_s");

  refer::runner::ResultsWriter writer;
  writer.set_tool("perfbench");
  writer.set_benchmark(opt.workload);
  writer.add_records(run.records);
  writer.add_records(tp.records);
  const std::string results_path =
      opt.out_dir + "/" + opt.workload + "-results.json";
  const Stopwatch sw;
  if (!writer.write(results_path)) {
    run.tally.fail("runner", "cannot write " + results_path);
  }
  add("runner.write_ms", sw.seconds() * 1e3, "ms",
      "ResultsWriter::write of every job record");
  add("runner.results_bytes", static_cast<double>(file_size(results_path)),
      "B");
  std::filesystem::remove(results_path);

  add("analysis.trace_report_ms", tp.analysis_s * 1e3, "ms",
      "analyze_trace_file over every trace");
  add("analysis.trace_violations", static_cast<double>(tp.trace_violations),
      "count", "must be 0");
  add("verify.invariant_violations",
      static_cast<double>(tp.invariant_violations), "count", "must be 0");
  return out;
}

// ---------------------------------------------------------------- output

void print_table(const Options& opt, const WorkloadRun& run,
                 const std::vector<Metric>& metrics) {
  std::printf("perfbench %s  seed %llu  scale %s  %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              scale_name(opt.scale), opt.trace ? "traced" : "untraced");
  if (opt.trace) {
    std::printf(
        "Phase accounts nest inclusively (a spatial query inside the medium "
        "scan counts in both)\nand cover only the measure window of the "
        "traced pass.\n");
  }
  std::printf("%-34s %16s  %-7s %s\n", "metric", "value", "unit", "basis");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("jobs attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed));
  for (const std::string& r : run.tally.reasons) {
    std::printf("FAILED %s\n", r.c_str());
  }
}

void print_result(const WorkloadRun& run, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.table_only) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Prints {"jobs": [keys], "digests": [hex]} for the reference file.
int print_digests(const std::vector<Job>& jobs) {
  std::string keys, digests;
  for (const Job& job : jobs) {
    const RunMetrics m = refer::harness::run_once(job.kind, job.scenario);
    if (!keys.empty()) {
      keys += ", ";
      digests += ", ";
    }
    keys.append("\"").append(job.key).append("\"");
    digests.append("\"")
        .append(hex_digest(job_digest(record_of(job, job.scenario, m))))
        .append("\"");
  }
  std::printf("{\"jobs\": [%s], \"digests\": [%s]}\n", keys.c_str(),
              digests.c_str());
  return 0;
}

int run_main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::vector<Job> jobs = make_jobs(opt.workload, opt.seed, opt.scale);
  if (jobs.empty()) usage("unknown workload: " + opt.workload);
  if (opt.print_digests) return print_digests(jobs);
  std::filesystem::create_directories(opt.out_dir);
  const std::map<std::string, std::string> reference =
      opt.reference.empty() ? std::map<std::string, std::string>{}
                            : load_reference(opt, jobs);
  WorkloadRun run = measure(opt, std::move(jobs), reference);
  const std::vector<Metric> metrics =
      opt.trace ? per_layer(opt, run) : end_to_end(run);
  print_table(opt, run, metrics);
  print_result(run, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
