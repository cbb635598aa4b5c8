// Saturation sweep (no paper counterpart -- seeds ROADMAP item 3, the
// congestion regime of Faber & Streib's all-to-all Kautz routing): QoS
// throughput, delay and delivery ratio vs. offered load, ramped past the
// medium's saturation point.
//
// x is packets per second per source.  The default workload (5 sources x
// 10 pps x 20 kbit) fills ~half the 2 Mbit/s medium with spatial reuse;
// by 40-80 pps every source's local medium is saturated, CSMA deferrals
// dominate, and each transmission's medium scan fires against a busy
// neighbourhood -- exactly the regime the neighbor cache targets (the
// perfbench `saturated` workload times it).
//
// Expected shape: carried QoS throughput rises linearly with offered
// load, peaks near the saturation knee, then flattens or sags while
// delay and loss climb; REFER's knee sits highest (shortest physical
// paths => least airtime per delivered bit), DaTree saturates first --
// its root links are the bottleneck the tree concentrates load onto.
#include <iterator>

#include "registry.hpp"

namespace refer::bench {
namespace {

int run_fig_sat(Context& ctx) {
  print_header("Saturation", "QoS vs. offered load (pps per source)");

  const std::vector<double> pps{5, 10, 20, 40, 80};
  const auto points = run_sweep(
      ctx, ctx.opt.base, pps,
      [](harness::Scenario& sc, double load) {
        sc.packets_per_second = load;
      },
      "packets/s per source");
  emit_series(ctx, "QoS throughput vs. offered load", "pps per source",
              "QoS-guaranteed throughput (kbps)", "fig_sat_tput", points,
              [](const harness::AggregateMetrics& a) {
                return a.qos_throughput_kbps;
              });
  emit_series(ctx, "Delay vs. offered load", "pps per source",
              "avg delay of QoS-guaranteed data (ms)", "fig_sat_delay",
              points, [](const harness::AggregateMetrics& a) {
                return a.avg_delay_ms;
              });
  emit_series(ctx, "Delay p95 vs. offered load", "pps per source",
              "delay p95 (ms)", "fig_sat_p95", points,
              [](const harness::AggregateMetrics& a) {
                return a.delay_p95_ms;
              });
  emit_series(ctx, "Delivery ratio vs. offered load", "pps per source",
              "packets delivered / sent", "fig_sat_delivery", points,
              [](const harness::AggregateMetrics& a) {
                return a.delivery_ratio;
              });

  // Routing-policy comparison past the knee (ROADMAP item 3 payoff):
  // the same offered-load ramp again, REFER only, under Faber-Streib
  // regular all-to-all routing, next to the greedy numbers from the
  // sweep above.  Skipped when the whole bench was already pinned to
  // the regular policy via --routing-policy.
  if (ctx.opt.base.routing_policy == harness::RoutingPolicy::kGreedy) {
    print_header("Saturation x routing policy",
                 "REFER greedy vs. regular all-to-all (kautz/regular.hpp)");
    std::vector<harness::SweepPoint> reg_points;
    reg_points.reserve(pps.size());
    for (const double load : pps) {
      harness::Scenario sc = ctx.opt.base;
      sc.packets_per_second = load;
      sc.routing_policy = harness::RoutingPolicy::kRegular;
      harness::SweepPoint point;
      point.x = load;
      point.by_system.resize(std::size(harness::kAllSystems));
      point.by_system[0] = ctx.executor.run_repeated(
          harness::SystemKind::kRefer, sc, ctx.opt.reps, load);
      reg_points.push_back(std::move(point));
    }
    ctx.results.add_series("packets/s per source (REFER regular policy)",
                           reg_points);
    std::printf("\nREFER greedy vs. regular (cells are mean +- 95%% CI; "
                "aGini = airtime Gini, arc x = arc-load max/min)\n");
    std::printf("%-8s%-21s%-21s%-9s%-9s%-9s%-9s\n", "pps", "greedy kbps",
                "regular kbps", "g aGini", "r aGini", "g arc x", "r arc x");
    for (std::size_t i = 0; i < pps.size(); ++i) {
      const harness::AggregateMetrics& g = points[i].by_system[0];
      const harness::AggregateMetrics& r = reg_points[i].by_system[0];
      std::printf("%-8g%-21s%-21s%-9.4f%-9.4f%-9.2f%-9.2f\n", pps[i],
                  g.qos_throughput_kbps.to_string(1).c_str(),
                  r.qos_throughput_kbps.to_string(1).c_str(),
                  g.airtime_gini.mean(), r.airtime_gini.mean(),
                  g.arc_load_max_min.mean(), r.arc_load_max_min.mean());
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

REFER_REGISTER_BENCH("fig_sat",
                     "Saturation: QoS vs. offered load past the knee",
                     run_fig_sat);

}  // namespace refer::bench
