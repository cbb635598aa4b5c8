#include "workloads.hpp"

#include <cmath>

namespace perfbench {

using refer::harness::RoutingPolicy;
using refer::harness::Scenario;
using refer::harness::SystemKind;

namespace {

/// splitmix64: decorrelates the deployment seeds of consecutive workload
/// seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The referbench defaults every figure bench starts from.
Scenario base_scenario() {
  Scenario sc;
  sc.warmup_s = 10;
  sc.measure_s = 60;
  sc.packets_per_second = 10;
  return sc;
}

/// fig08's constant-density rule: a larger network spreads wider.
void set_size(Scenario& sc, int n) {
  sc.n_sensors = n;
  sc.sensor_spread_m = 220.0 * std::sqrt(n / 200.0);
}

void add_all_systems(std::vector<Job>& jobs, const Scenario& sc,
                     const std::string& suffix) {
  for (SystemKind kind : refer::harness::kAllSystems) {
    jobs.push_back(
        {std::string(refer::harness::to_string(kind)) + suffix, kind, sc});
  }
}

/// The seed of deployment `d` of a workload run with `seed`.
std::uint64_t deployment_seed(std::uint64_t seed, int d) {
  return mix(seed * 16 + static_cast<std::uint64_t>(d));
}

/// Dense end of fig08: set-up, geometry and flooding dominate.
std::vector<Job> dense(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Scenario sc = base_scenario();
  set_size(sc, tiny ? 200 : 1600);
  sc.measure_s = tiny ? 2 : 5;
  sc.warmup_s = tiny ? 1 : 5;
  sc.seed = deployment_seed(seed, 0);
  std::vector<Job> jobs;
  add_all_systems(jobs, sc, ".d0");
  return jobs;
}

/// fig_sat past the knee: kernel, CSMA medium scan and per-hop routing.
std::vector<Job> saturated(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  std::vector<Job> jobs;
  for (int d = 0; d < (tiny ? 1 : 6); ++d) {
    for (const int pps : {40, 80}) {
      Scenario sc = base_scenario();
      sc.packets_per_second = pps;
      sc.measure_s = tiny ? 3 : 20;
      sc.warmup_s = tiny ? 1 : 10;
      sc.seed = deployment_seed(seed, d);
      const std::string tail =
          ".pps" + std::to_string(pps) + ".d" + std::to_string(d);
      add_all_systems(jobs, sc, tail);
      sc.routing_policy = RoutingPolicy::kRegular;
      jobs.push_back({"REFER.regular" + tail, SystemKind::kRefer, sc});
    }
  }
  return jobs;
}

/// Static sensors with re-drawn faulty sets and app-tier actuator breaks:
/// fail-over, repair floods and the app supervisors.
std::vector<Job> faults(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  std::vector<Job> jobs;
  // Sixteen short deployments rather than a few long ones: the work a
  // deployment makes depends on its geometry and on which sensors die, and
  // more deployments per pass keep the pass time steady across seeds.
  for (int d = 0; d < (tiny ? 1 : 16); ++d) {
    Scenario sc = base_scenario();
    set_size(sc, tiny ? 100 : 400);
    sc.mobile = false;
    sc.faulty_nodes = tiny ? 4 : 8;
    sc.fault_period_s = 10;
    sc.app_enabled = true;
    sc.app_break_rate_hz = 20.0 / 1000.0;
    sc.measure_s = tiny ? 20 : 30;
    sc.warmup_s = tiny ? 2 : 5;
    sc.seed = deployment_seed(seed, d);
    add_all_systems(jobs, sc, ".d" + std::to_string(d));
  }
  return jobs;
}

}  // namespace

const char* system_slug(SystemKind kind) {
  switch (kind) {
    case SystemKind::kRefer: return "refer";
    case SystemKind::kDaTree: return "datree";
    case SystemKind::kDDear: return "ddear";
    case SystemKind::kKautzOverlay: return "kautz_overlay";
  }
  return "unknown";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"dense", "saturated", "faults"};
  return names;
}

std::vector<Job> make_jobs(const std::string& workload, std::uint64_t seed,
                           Scale scale) {
  if (workload == "dense") return dense(seed, scale);
  if (workload == "saturated") return saturated(seed, scale);
  if (workload == "faults") return faults(seed, scale);
  return {};
}

Scenario setup_only(Scenario scenario) {
  scenario.sources_per_round = 0;
  scenario.faulty_nodes = 0;
  scenario.app_enabled = false;
  scenario.warmup_s = 0;
  scenario.measure_s = 1e-3;
  return scenario;
}

}  // namespace perfbench
