// Ablation: within-run decay -- QoS throughput over time for a single
// long mobile run.
//
// The cross-run figures (4, 8) average whole runs; this view shows *why*
// they differ: all systems start perfect right after construction, then
// DaTree decays as its parent pointers go stale, D-DEAR holds longer
// (only head paths age), and REFER stays flat because maintenance keeps
// replacing drifting Kautz nodes.  Kautz-overlay starts degraded (long
// random arcs break immediately).
#include <algorithm>

#include "registry.hpp"

namespace refer::bench {
namespace {

int run_ablation_timeline(Context& ctx) {
  print_header("Ablation", "within-run throughput decay under mobility");

  harness::Scenario sc = ctx.opt.base;
  sc.mobile = true;
  sc.max_speed_mps = 4.0;
  sc.measure_s = std::max(sc.measure_s, 120.0);
  sc.timeline_bucket_s = 20.0;
  sc.seed = 5;

  std::vector<std::vector<double>> timelines;
  for (harness::SystemKind kind : harness::kAllSystems) {
    const auto m = ctx.executor.run_once(kind, sc);
    timelines.push_back(m.build_ok ? m.timeseries.qos_kbps
                                   : std::vector<double>{});
  }

  std::printf("QoS throughput (kbit/s) per %.0f s bucket; mobile U[0,%g] m/s\n\n",
              sc.timeline_bucket_s, sc.max_speed_mps);
  std::printf("%-14s", "t (s)");
  for (harness::SystemKind kind : harness::kAllSystems) {
    std::printf("%-16s", harness::to_string(kind));
  }
  std::printf("\n");
  const std::size_t buckets =
      static_cast<std::size_t>(sc.measure_s / sc.timeline_bucket_s);
  for (std::size_t b = 0; b < buckets; ++b) {
    std::printf("%-14.0f", (static_cast<double>(b) + 1) * sc.timeline_bucket_s);
    for (const auto& tl : timelines) {
      std::printf("%-16.1f", b < tl.size() ? tl[b] : 0.0);
    }
    std::printf("\n");
  }
  std::printf(
      "\nFlat REFER vs. decaying DaTree is the stale-topology mechanism\n"
      "behind Figures 4 and 8.\n");
  return 0;
}

}  // namespace

REFER_REGISTER_BENCH("ablation_timeline",
                     "Ablation: within-run throughput decay under mobility",
                     run_ablation_timeline);

}  // namespace refer::bench
