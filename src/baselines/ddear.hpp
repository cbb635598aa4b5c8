// D-DEAR [8] (paper SII, SIV): distributed energy-aware clustering with a
// mesh of cluster heads.
//
// Construction: every sensor exchanges hello messages with its 2-hop
// neighbourhood and the highest-energy node becomes cluster head; members
// attach to the closest head.  Each head discovers a multi-hop path to
// its closest actuator by flooding.
//
// Data: member -> head (1-2 hops) -> head's cached multi-hop path ->
// actuator.  When a path hop fails, the *head* re-floods to rebuild the
// path and retransmits from itself -- only heads maintain long paths,
// which is why D-DEAR degrades more gracefully than DaTree (paper
// Figs. 4-7) but still pays broadcast repairs.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/wsan_system.hpp"
#include "net/flooding.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::baselines {

struct DDearConfig {
  int cluster_radius_hops = 2;
  int repair_ttl = 8;
  double repair_deadline_s = 0.5;
  int max_retransmissions = 3;
  std::size_t control_bytes = 48;
};

/// One D-DEAR clustering of the sensors alive at the current instant.
struct Clustering {
  /// Heads in election order: first every sensor that outscores its whole
  /// k-hop neighbourhood, by ascending id; then each isolated sensor that
  /// saw no head and became its own, in the order members attached.
  std::vector<NodeId> heads;
  /// Indexed by NodeId: the head each alive sensor attached to, -1 for
  /// dead sensors and actuators.
  std::vector<NodeId> head_of;
};

/// D-DEAR's cluster election at the current simulation time.  A sensor is
/// a head when its (battery, id) score beats every sensor within
/// `radius_hops` forwarding hops (directed by sender range, actuators
/// never relay); every other sensor joins the physically closest head in
/// that neighbourhood (the first one in BFS order on a distance tie), or
/// becomes its own head when it sees none.  Works on one snapshot of the
/// 1-hop sensor adjacency: a single range query per alive sensor.
[[nodiscard]] Clustering cluster_sensors(sim::World& world,
                                         const sim::EnergyTracker& energy,
                                         int radius_hops);

class DDear final : public WsanSystem {
 public:
  DDear(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
        net::Flooder& flooder, sim::EnergyTracker& energy,
        DDearConfig config = {});

  void build(std::function<void(bool)> done) override;
  void send_event(NodeId src, std::size_t bytes,
                  std::function<void(const Delivery&)> done) override;
  [[nodiscard]] const char* name() const override { return "D-DEAR"; }

  [[nodiscard]] bool is_head(NodeId sensor) const;
  [[nodiscard]] NodeId head_of(NodeId sensor) const;
  [[nodiscard]] std::size_t head_count() const { return head_paths_.size(); }

  struct Stats {
    std::uint64_t repairs = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t reattachments = 0;
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    NodeId src;
    std::size_t bytes;
    double sent_at;
    int hops = 0;
    int retries_left;
    std::function<void(const Delivery&)> done;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// Nodes within `hops` forwarding hops of `node` right now.
  [[nodiscard]] std::vector<NodeId> khop_neighborhood(NodeId node, int hops);
  void elect_heads_and_paths(std::function<void(bool)> done);
  void discover_head_path(std::size_t head_index,
                          std::vector<NodeId> heads,
                          std::function<void(bool)> done);
  void route_from_member(NodeId src, PendingPtr msg);
  void send_via_head(NodeId head, PendingPtr msg);
  void walk_head_path(NodeId head, std::size_t hop_index, PendingPtr msg);
  void repair_head_path(NodeId head, PendingPtr msg);
  void reattach_member(NodeId member, PendingPtr msg);
  void finish(NodeId actuator, PendingPtr msg);
  void drop(PendingPtr msg);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder* flooder_;
  sim::EnergyTracker* energy_;
  DDearConfig config_;
  Stats stats_;
  std::vector<NodeId> head_of_;  // member -> head, indexed by NodeId
  std::unordered_map<NodeId, std::vector<NodeId>> head_paths_;  // head -> path to actuator
};

}  // namespace refer::baselines
