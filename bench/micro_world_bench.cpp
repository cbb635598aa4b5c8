// Micro-benchmarks (google-benchmark) for the spatial grid index and the
// Theorem 3.8 route cache -- the two hot-path optimisations that keep
// per-packet cost proportional to *degree* instead of deployment size.
//
// BM_ReachableFrom scales the deployment at constant density (area side
// grows with sqrt(n)), so the per-query neighbour count stays flat while
// n grows: the per-query cost should stay flat too.
//
// BM_DisjointRoutes_{Uncached,Cached} replay a repeating working set of
// (u, v) pairs, the traffic pattern real flows produce.
//
// BM_CsmaReserveTxSlot and BM_BroadcastReceivers drive the two Channel
// paths that issue a geometric query per transmission (the CSMA medium
// scan and broadcast receiver materialisation) through the real event
// kernel.  Simulated time advances with every send, so mobility re-bins
// and neighbor-row rebuilds happen at their natural rate.  A/B timings
// of the index and cache belong to perfbench/compare.py.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "kautz/graph.hpp"
#include "kautz/route_cache.hpp"
#include "kautz/routing.hpp"
#include "sim/channel.hpp"
#include "sim/world.hpp"

namespace {

using namespace refer;
using sim::NodeId;

/// The fig04/fig08 deployment shape at constant density: ~200 sensors per
/// 500 m x 500 m, sensors i.i.d. around a quincunx of actuators.
struct Fixture {
  explicit Fixture(int n_sensors)
      : side(500.0 * std::sqrt(n_sensors / 200.0)),
        world({{0, 0}, {side, side}}, simulator) {
    Rng rng(42);
    std::vector<NodeId> actuators;
    for (const Point p :
         {Point{0.25 * side, 0.25 * side}, Point{0.75 * side, 0.25 * side},
          Point{0.25 * side, 0.75 * side}, Point{0.75 * side, 0.75 * side},
          Point{0.50 * side, 0.50 * side}}) {
      actuators.push_back(world.add_actuator(p, 250));
    }
    for (int i = 0; i < n_sensors; ++i) {
      const Point anchor =
          world.position(actuators[rng.below(actuators.size())]);
      const double ang = rng.uniform(0, 2 * 3.14159265358979323846);
      const double rad = 0.44 * side * std::sqrt(rng.uniform());
      world.add_sensor(clamp({anchor.x + rad * std::cos(ang),
                              anchor.y + rad * std::sin(ang)},
                             world.area()),
                       100, 0, 3, rng.split());
    }
  }

  double side;
  sim::Simulator simulator;
  sim::World world;
};

void BM_ReachableFrom(benchmark::State& state) {
  Fixture fx(static_cast<int>(state.range(0)));
  const auto n = static_cast<NodeId>(fx.world.size());
  NodeId from = 0;
  std::uint64_t visited = 0;
  // Advance simulated time every few queries so the mobile nodes drift
  // and the index has to revalidate -- the realistic steady state, where
  // one simulator event issues several geometric queries.
  double t = 0;
  int countdown = 0;
  for (auto _ : state) {
    if (--countdown <= 0) {
      countdown = 8;
      t += 1e-3;
      fx.simulator.run_until(t);
    }
    from = (from + 1) % n;
    fx.world.visit_reachable(from, [&](NodeId) { ++visited; });
  }
  benchmark::DoNotOptimize(visited);
  state.counters["visited_per_query"] =
      benchmark::Counter(static_cast<double>(visited),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_ReachableFrom)->Arg(250)->Arg(1000)->Arg(4000);

void BM_ClosestActuator(benchmark::State& state) {
  Fixture fx(static_cast<int>(state.range(0)));
  const auto n = static_cast<NodeId>(fx.world.size());
  NodeId from = 0;
  for (auto _ : state) {
    from = (from + 1) % n;
    benchmark::DoNotOptimize(fx.world.closest_actuator(from));
  }
}

BENCHMARK(BM_ClosestActuator)->Arg(1000)->Arg(4000);

/// Fixture + shared medium: the channel's CSMA scan and receiver
/// materialisation both funnel through World::visit_reachable.
struct ChannelFixture : Fixture {
  explicit ChannelFixture(int n_sensors)
      : Fixture(n_sensors), channel(simulator, world, energy, Rng(5)) {
    energy.resize(world.size());
  }

  sim::EnergyTracker energy;
  sim::Channel channel;
};

void BM_CsmaReserveTxSlot(benchmark::State& state) {
  ChannelFixture fx(static_cast<int>(state.range(0)));
  const auto n = static_cast<NodeId>(fx.world.size());
  NodeId from = 0;
  // A relay draining a 16-deep MAC queue -- the congested steady state
  // past fig_sat's saturation knee, where transmissions leave the same
  // node back to back and each one's CSMA medium scan repeats against an
  // unchanged neighbourhood.  Each iteration enqueues one such drain and
  // runs the kernel (deliveries, acks, timeouts) to completion; per-send
  // cost is the reported time / 16.
  for (auto _ : state) {
    from = (from + 1) % n;
    for (int k = 0; k < 16; ++k) {
      fx.channel.unicast(from, (from + 7 + k) % n, 2500,
                         sim::EnergyBucket::kData, nullptr);
    }
    fx.simulator.run_all();
  }
  benchmark::DoNotOptimize(fx.channel.stats().unicasts_sent);
}

BENCHMARK(BM_CsmaReserveTxSlot)->Arg(250)->Arg(1000)->Arg(4000);

void BM_BroadcastReceivers(benchmark::State& state) {
  ChannelFixture fx(static_cast<int>(state.range(0)));
  const auto n = static_cast<NodeId>(fx.world.size());
  NodeId from = 0;
  std::uint64_t received = 0;
  // One broadcast = one medium scan (tx slot) + one receiver
  // materialisation -- the per-hop cost of flooding.
  for (auto _ : state) {
    from = (from + 1) % n;
    fx.channel.broadcast(from, 100, sim::EnergyBucket::kMaintenance,
                         [&](NodeId) { ++received; });
    fx.simulator.run_all();
  }
  benchmark::DoNotOptimize(received);
  state.counters["receivers_per_bcast"] =
      benchmark::Counter(static_cast<double>(received),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_BroadcastReceivers)->Arg(250)->Arg(1000)->Arg(4000);

/// A working set of 64 (u, v) pairs replayed round-robin: what a handful
/// of concurrent flows look like to a relay's route derivation.
std::vector<std::pair<kautz::Label, kautz::Label>> working_set(
    const kautz::Graph& g) {
  std::vector<std::pair<kautz::Label, kautz::Label>> pairs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto n = g.node_count();
    const kautz::Label u =
        kautz::Label::from_index((i * 131) % n, g.degree(), g.diameter());
    kautz::Label v =
        kautz::Label::from_index((i * 7919 + 13) % n, g.degree(),
                                 g.diameter());
    if (v == u) {
      v = kautz::Label::from_index((i * 7919 + 14) % n, g.degree(),
                                   g.diameter());
    }
    pairs.emplace_back(u, v);
  }
  return pairs;
}

void BM_DisjointRoutes_Uncached(benchmark::State& state) {
  const kautz::Graph g(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  const auto pairs = working_set(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(kautz::disjoint_routes(g.degree(), u, v));
  }
}

void BM_DisjointRoutes_Cached(benchmark::State& state) {
  const kautz::Graph g(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  const auto pairs = working_set(g);
  kautz::RouteCache cache;
  std::vector<kautz::Route> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ % pairs.size()];
    cache.lookup(g.degree(), u, v, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}

BENCHMARK(BM_DisjointRoutes_Uncached)->Args({2, 3})->Args({4, 4});
BENCHMARK(BM_DisjointRoutes_Cached)->Args({2, 3})->Args({4, 4});

}  // namespace

BENCHMARK_MAIN();
