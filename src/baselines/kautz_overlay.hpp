// Kautz-overlay [20] (paper SII, SIV): the same Kautz cells as REFER but
// built at the *application layer* -- Kautz IDs are assigned by hashing,
// with no relation to physical position, so two neighbouring overlay
// nodes are usually several radio hops apart.
//
// Construction: the cell partition (as REFER), then every overlay arc's
// multi-hop physical path is discovered by flooding -- by far the most
// expensive construction of the four systems (paper Fig. 10).
//
// Data: REFER's fault-tolerant routing protocol on the overlay (the
// paper evaluates it with exactly this protocol for fairness); every
// overlay hop walks a cached multi-hop path.  When a physical hop
// breaks, the current holder re-floods to re-establish the path to the
// overlay neighbour and the message continues (no source
// retransmission), but the consecutive multi-hop paths make both delay
// and repair energy high.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "baselines/wsan_system.hpp"
#include "common/rng.hpp"
#include "kautz/routing.hpp"
#include "net/flooding.hpp"
#include "refer/cell.hpp"
#include "sim/channel.hpp"

namespace refer::baselines {

using core::Cell;
using core::Cid;
using kautz::Label;

class KautzOverlay final : public WsanSystem {
 public:
  KautzOverlay(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
               net::Flooder& flooder, Rng rng);

  void build(std::function<void(bool)> done) override;
  void send_event(NodeId src, std::size_t bytes,
                  std::function<void(const Delivery&)> done) override;
  [[nodiscard]] const char* name() const override { return "Kautz-overlay"; }

  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] const Cell& cell(Cid cid) const {
    return cells_.at(static_cast<std::size_t>(cid));
  }
  /// The overlay binding of a sensor, if any.
  [[nodiscard]] std::optional<std::pair<Cid, Label>> binding_of(
      NodeId node) const;

  struct Stats {
    std::uint64_t path_repairs = 0;
    std::uint64_t failovers = 0;
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
    std::uint64_t arc_paths_built = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    std::size_t bytes;
    double sent_at;
    int physical_hops = 0;
    int overlay_hops_left;
    std::function<void(const Delivery&)> done;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  bool partition_cells();
  void assign_random_labels();
  /// Eagerly discovers the physical path of every overlay arc.
  void discover_arcs(std::vector<std::pair<NodeId, NodeId>> arcs,
                     std::size_t index, std::function<void(bool)> done);

  void enter_overlay(NodeId at, int budget, PendingPtr msg);
  void overlay_step(Cid cid, Label label, NodeId node, PendingPtr msg);
  void try_successors(Cid cid, Label label, NodeId node,
                      std::vector<kautz::Route> routes, std::size_t choice,
                      PendingPtr msg);
  /// Walks the cached path node -> to; repairs once on breakage.
  void walk_arc(NodeId from, NodeId to, std::size_t hop, int repairs_left,
                PendingPtr msg, std::function<void(bool)> done);
  void finish(NodeId actuator, PendingPtr msg);
  void drop(PendingPtr msg);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder* flooder_;
  Rng rng_;
  Stats stats_;
  std::vector<Cell> cells_;
  std::unordered_map<NodeId, std::pair<Cid, Label>> bindings_;
  std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> arc_paths_;
};

}  // namespace refer::baselines
