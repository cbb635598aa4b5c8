// ReferSystem: the public facade of the REFER WSAN.
//
// Wires the embedding protocol, the fault-tolerant router, the topology
// maintenance and the inter-cell CAN over a simulated deployment.  This
// is the API the examples and the benchmark harness drive:
//
//   sim::Simulator sim;
//   sim::World world{area, sim};            // place actuators + sensors
//   sim::EnergyTracker energy; ...
//   refer::ReferSystem refer(sim, world, channel, energy, rng);
//   refer.build([&](bool ok) { ... });       // embed K(2,3) cells + CAN
//   sim.run_until(t);
//   refer.send_to_actuator(src, bytes, [](const DeliveryReport& r) {...});
//
// Every component, the private flooder included, reports to the
// observers in the simulator's Instruments.
#pragma once

#include <memory>

#include "net/flooding.hpp"
#include "refer/embedding.hpp"
#include "refer/maintenance.hpp"
#include "refer/oracle_embedding.hpp"
#include "refer/routing.hpp"

namespace refer::core {

struct ReferConfig {
  EmbeddingConfig embedding{};
  RouterConfig router{};
  MaintenanceConfig maintenance{};
  bool run_maintenance = true;
  /// When true, build() uses the offline oracle embedding (general
  /// K(d, k), see oracle_embedding.hpp) instead of the paper's K(2,3)
  /// message-level protocol.
  bool use_oracle_embedding = false;
  OracleEmbeddingConfig oracle{};
};

class ReferSystem {
 public:
  ReferSystem(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
              sim::EnergyTracker& energy, Rng rng, ReferConfig config = {});

  /// Runs the embedding protocol; when it completes (ok), topology
  /// maintenance starts.  Must be called once before sending.
  void build(std::function<void(bool ok)> done);

  /// True once build() completed successfully.
  [[nodiscard]] bool ready() const noexcept { return ready_; }

  /// Evaluation workload: an active sensor reports to its nearest
  /// actuator.
  void send_to_actuator(NodeId src, std::size_t bytes,
                        ReferRouter::DeliveryFn done);

  /// Full (CID, KID) addressing across cells.
  void send_to(NodeId src, FullId dst, std::size_t bytes,
               ReferRouter::DeliveryFn done);

  /// A uniformly random active Kautz sensor (the evaluation picks event
  /// sources among the awake overlay sensors); -1 when none exist.
  [[nodiscard]] NodeId random_active_sensor(Rng& rng) const;

  [[nodiscard]] Topology& topology() noexcept { return embedding_.topology(); }
  [[nodiscard]] const Topology& topology() const noexcept {
    return embedding_.topology();
  }
  [[nodiscard]] ReferRouter& router() noexcept { return *router_; }
  [[nodiscard]] const ReferRouter& router() const noexcept {
    return *router_;
  }
  [[nodiscard]] MaintenanceProtocol& maintenance() noexcept {
    return *maintenance_;
  }
  [[nodiscard]] const EmbeddingProtocol::Stats& embedding_stats() const {
    return embedding_.stats();
  }

 private:
  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder flooder_;
  EmbeddingProtocol embedding_;
  std::unique_ptr<ReferRouter> router_;
  std::unique_ptr<MaintenanceProtocol> maintenance_;
  ReferConfig config_;
  bool ready_ = false;
};

}  // namespace refer::core
