// Self-tests of the benchmark's helpers: order statistics, ratios, the
// output digest and the workload definitions.  Exits non-zero on the first
// failed check; run it through perfbench/test_perfbench.py.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/phase_profiler.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile() {
  using perfbench::percentile;
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "median of an even sample");
  check(near(percentile({5, 1, 3}, 0.5), 3), "median of an odd sample");
  check(near(percentile({4, 1, 3, 2}, 0.0), 1), "q=0 is the minimum");
  check(near(percentile({4, 1, 3, 2}, 1.0), 4), "q=1 is the maximum");
  check(near(percentile({4, 1, 3, 2}, 0.25), 1.75), "q=0.25 interpolates");
  check(near(percentile({7}, 0.9), 7), "single sample");
  check(percentile({}, 0.5) == 0, "empty sample reads 0");
  check(near(perfbench::median({10, 30, 20}), 20), "median helper");
}

void test_ratio() {
  check(near(perfbench::ratio(3, 4), 0.75), "plain ratio");
  check(perfbench::ratio(5, 0) == 0, "zero base reads 0");
  check(perfbench::ratio(0, 0) == 0, "no work reads 0");
}

refer::StatsRegistry::Entry counter(const std::string& name,
                                    std::uint64_t n) {
  refer::StatsRegistry::Entry e;
  e.name = name;
  e.count = n;
  return e;
}

refer::harness::JobRecord sample_record() {
  refer::harness::JobRecord r;
  r.seed = 7;
  r.wall_ms = 12.5;
  refer::harness::RunMetrics& m = r.metrics;
  m.build_ok = true;
  m.packets_sent = 100;
  m.packets_delivered = 90;
  m.qos_delivered = 80;
  m.qos_throughput_kbps = 123.25;
  m.delay_p95_ms = 47.5;
  m.arc_forwards = {3, 1, 4};
  m.observability = {counter("router.failovers", 2),
                     counter("world.grid.queries", 1000),
                     counter("world.neighbor_cache.hits", 900)};
  refer::sim::TimeSeries& ts = m.timeseries;
  ts.bucket_s = 10;
  ts.window_s = 10;
  ts.sent = {100};
  ts.delivered = {90};
  ts.qos_delivered = {80};
  ts.failovers = {2};
  ts.phase_wall_us.assign(refer::kPhaseCount, 5.0);
  return r;
}

void test_digest() {
  using perfbench::job_digest;
  const refer::harness::JobRecord base = sample_record();
  const std::uint64_t d0 = job_digest(base);
  check(job_digest(base) == d0, "digest is a pure function");

  // Excluded: host time and host-tuning counters.
  refer::harness::JobRecord r = base;
  r.wall_ms = 99;
  check(job_digest(r) == d0, "wall_ms is ignored");
  r = base;
  r.metrics.observability[1].count = 5;
  check(job_digest(r) == d0, "world.grid.* is ignored");
  r = base;
  r.metrics.observability[2].count = 5;
  check(job_digest(r) == d0, "world.neighbor_cache.* is ignored");
  r = base;
  r.metrics.observability.erase(r.metrics.observability.begin() + 1,
                                r.metrics.observability.end());
  check(job_digest(r) == d0, "absent world.* entries are ignored");
  r = base;
  r.metrics.timeseries.phase_wall_us.assign(refer::kPhaseCount, 6.0);
  check(job_digest(r) == d0, "phase_us / phase_total_us are ignored");

  // Covered: everything else.
  r = base;
  r.metrics.qos_delivered = 79;
  check(job_digest(r) != d0, "a changed QoS count is caught");
  r = base;
  r.metrics.qos_throughput_kbps = 123.0;
  check(job_digest(r) != d0, "a changed QoS throughput is caught");
  r = base;
  r.metrics.delay_p95_ms = std::nextafter(47.5, 48.0);
  check(job_digest(r) != d0, "a one-ulp delay change is caught");
  r = base;
  r.metrics.observability[0].count = 3;
  check(job_digest(r) != d0, "a changed router counter is caught");
  r = base;
  r.metrics.arc_forwards[0] = 4;
  check(job_digest(r) != d0, "a changed arc load is caught");
  r = base;
  r.metrics.timeseries.qos_delivered[0] = 81;
  check(job_digest(r) != d0, "a changed timeseries bucket is caught");
  r = base;
  r.metrics.build_ok = false;
  check(job_digest(r) != d0, "a failed build is caught");
  check(perfbench::hex_digest(0xABCULL) == "0000000000000abc",
        "hex digest is 16 zero-padded digits");
}

void test_workloads() {
  using perfbench::make_jobs;
  using perfbench::Scale;
  for (const std::string& w : perfbench::workload_names()) {
    const auto a = make_jobs(w, 3, Scale::kFull);
    const auto b = make_jobs(w, 3, Scale::kFull);
    const auto c = make_jobs(w, 4, Scale::kFull);
    check(!a.empty(), "every workload has jobs");
    check(a.size() == b.size() && a.size() == c.size(),
          "the job count does not depend on the seed");
    bool same = true, differs = false;
    for (std::size_t j = 0; j < a.size() && j < c.size(); ++j) {
      same = same && a[j].key == b[j].key &&
             a[j].scenario.seed == b[j].scenario.seed;
      differs = differs || a[j].scenario.seed != c[j].scenario.seed;
    }
    check(same, "the same seed gives the same jobs");
    check(differs, "another seed gives other deployments");
    check(!make_jobs(w, 3, Scale::kTiny).empty(), "tiny scale has jobs");
  }
  check(make_jobs("nope", 1, Scale::kFull).empty(), "unknown workload");
  const auto faults = make_jobs("faults", 1, Scale::kFull);
  const auto setup = perfbench::setup_only(faults.front().scenario);
  check(setup.sources_per_round == 0 && setup.faulty_nodes == 0 &&
            !setup.app_enabled,
        "the set-up pass has no traffic, faults or app tier");
  check(setup.n_sensors == faults.front().scenario.n_sensors &&
            setup.seed == faults.front().scenario.seed,
        "the set-up pass keeps the deployment");
}

}  // namespace

int main() {
  test_percentile();
  test_ratio();
  test_digest();
  test_workloads();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
