// DaTree [2] (paper SII, SIV): per-actuator data-dissemination trees.
//
// Construction: every actuator floods one beacon; a sensor's parent is
// the node it first heard the beacon from, so each sensor joins exactly
// one actuator tree.  This is the cheapest construction of all systems
// (paper Fig. 10).
//
// Data: a sensor forwards up the parent chain to its tree root.  When a
// parent link fails (mobility / faulty node), the sensor broadcasts
// towards the root to re-establish a new parent, and the message is
// retransmitted *from the source* (paper SII: "a source node retransmits
// a message upon a routing failure") -- the repair storm plus
// retransmission is what costs DaTree throughput and energy under churn.
#pragma once

#include <memory>
#include <unordered_map>

#include "baselines/wsan_system.hpp"
#include "net/flooding.hpp"
#include "sim/channel.hpp"

namespace refer::baselines {

class DaTree final : public WsanSystem {
 public:
  DaTree(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
         net::Flooder& flooder);

  void build(std::function<void(bool)> done) override;
  void send_event(NodeId src, std::size_t bytes,
                  std::function<void(const Delivery&)> done) override;
  [[nodiscard]] const char* name() const override { return "DaTree"; }

  /// The current parent of a sensor (tests); -1 when detached.
  [[nodiscard]] NodeId parent_of(NodeId sensor) const;
  /// The tree root (actuator) a sensor ultimately reports to.
  [[nodiscard]] NodeId root_of(NodeId sensor) const;

  struct Stats {
    std::uint64_t repairs = 0;
    std::uint64_t retransmissions = 0;
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

  void forward(NodeId at, PendingPtr msg);
  void repair_and_retransmit(NodeId broken_node, PendingPtr msg);
  void finish(NodeId actuator, PendingPtr msg);
  void drop(PendingPtr msg);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder* flooder_;
  Stats stats_;
  std::unordered_map<NodeId, NodeId> parent_;
};

}  // namespace refer::baselines
