// The REFER routing protocol (paper SIII-C2).
//
// Intra-cell: at every hop the current node derives the d disjoint routes
// to the destination label from nothing but the two KIDs (Theorem 3.8,
// kautz::disjoint_routes) and tries their successors in nominal-length
// order; a failed MAC ACK moves on to the next successor locally -- no
// notification to the source, no route re-discovery.  Conflict routes
// carry the Proposition 3.7 forced-second-hop directive in the packet
// header.
//
// Inter-cell: the packet climbs to a corner actuator, hops across the
// actuator CAN greedily by cell coordinates (SIII-B3), and descends into
// the destination cell.
//
// Physical transmission of one Kautz arc prefers the direct link; when
// mobility has stretched the arc beyond range, a one-relay detour through
// a common physical neighbour is used when available (the paper's
// "multi-hop path with the lowest delay").
//
// Observability (the simulator's Instruments): every forwarding decision
// emits a routing-level trace event (kPacketSent / kHopForward /
// kFailover / kPacketDropped / kPacketDelivered) carrying the packet id,
// overlay labels and Theorem-3.8 nominal lengths -- one branch per
// decision when nothing records -- and charges Phase::kRoutingDecide
// (route-cache lookup, alternative ordering, fail-over selection).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "kautz/regular.hpp"
#include "kautz/route_cache.hpp"
#include "kautz/routing.hpp"
#include "net/flooding.hpp"
#include "refer/topology.hpp"
#include "sim/channel.hpp"

namespace refer::core {

/// How a relay finds an alternative when the shortest successor fails.
enum class FailoverMode {
  /// Theorem 3.8: derive the next disjoint successor from the IDs alone
  /// (REFER; no messages).
  kTheorem38,
  /// BAKE/DFTR-style route generation [18, 21]: flood a route request to
  /// the destination and follow the discovered path (energy + delay for
  /// every fail-over).  Provided for the ablation bench.
  kRouteGeneration,
};

/// Which route family an intra-cell relay tries *first*
/// (harness::Scenario::routing_policy maps onto this).
enum class RoutingPolicy {
  /// Paper SIII-C2 greedy: the Theorem 3.8 routes in nominal-length
  /// order, shortest first.
  kGreedy,
  /// Faber-Streib regular all-to-all routing (kautz/regular.hpp): the
  /// fixed concatenation-walk successor first, the Theorem 3.8 routes
  /// demoted to fail-over for broken hops.
  kRegular,
};

struct RouterConfig {
  RoutingPolicy policy = RoutingPolicy::kGreedy;
  FailoverMode failover = FailoverMode::kTheorem38;
  /// TESTING ONLY (harness::Scenario::planted_bug).  1 = report a wrong
  /// Theorem 3.8 nominal length in fail-over trace records, so the
  /// verification engine (src/verify) can prove its trace audit catches
  /// real divergences.  0 in production.
  int planted_bug = 0;
};

/// Outcome of one end-to-end send.
struct DeliveryReport {
  bool delivered = false;
  double delay_s = 0;      ///< send -> delivery (simulated)
  int kautz_hops = 0;      ///< overlay hops taken
  int physical_hops = 0;   ///< frames on the air (>= kautz_hops)
  int failovers = 0;       ///< alternate-successor switches en route
  NodeId final_node = -1;  ///< the node that terminated the packet
  std::int64_t packet_id = -1;  ///< router-assigned id (matches traces)
  /// Why the packet died (kNone when delivered).
  sim::DropReason drop_reason = sim::DropReason::kNone;
};

class ReferRouter {
 public:
  using DeliveryFn = std::function<void(const DeliveryReport&)>;

  ReferRouter(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
              Topology& topology, RouterConfig config = {}, Rng rng = Rng(1));

  /// Required for FailoverMode::kRouteGeneration (unused otherwise).
  void set_flooder(net::Flooder* flooder) noexcept { flooder_ = flooder; }

  /// Emits one kTraceHeader record carrying the overlay's Kautz degree
  /// d (no-op without a tracer).  ReferSystem calls this once after a
  /// successful build so trace_report can audit Theorem 3.8 with the
  /// exact degree instead of inferring it from observed label digits.
  void emit_trace_header();

  /// Sends sensed data from an active Kautz sensor to the nearest corner
  /// actuator of its cell (the evaluation workload: sensors report events
  /// to nearby actuators).  Delivery completes at the first actuator
  /// reached.
  void send_to_actuator(NodeId src, std::size_t bytes, DeliveryFn done);

  /// Full (CID, KID) addressing: intra-cell ascent, CAN transit, descent.
  void send_to(NodeId src, FullId dst, std::size_t bytes, DeliveryFn done);

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t failovers = 0;      ///< alternate-successor switches
    std::uint64_t route_gen_floods = 0;  ///< kRouteGeneration discoveries
    std::uint64_t relays_used = 0;    ///< 1-relay physical detours
    std::uint64_t can_hops = 0;       ///< inter-cell overlay hops
    /// RoutingPolicy::kRegular only: fresh concatenation-walk
    /// derivations (one per source hop plus one per fail-over detour
    /// re-entry; stays 0 under greedy).
    std::uint64_t regular_walks = 0;
    /// Drop counts indexed by sim::DropReason (observability snapshot).
    std::array<std::uint64_t,
               static_cast<std::size_t>(sim::DropReason::kDropReasonCount)>
        drops_by_reason{};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Theorem 3.8 memo cache (hit/miss counters feed observability).
  [[nodiscard]] const kautz::RouteCache& route_cache() const noexcept {
    return route_cache_;
  }

  /// Successful intra-cell forwards per Kautz arc, indexed
  /// u.to_index(d) * d + rank of the appended digit in {0..d} \ {u_k}
  /// (ascending).  Sized lazily on the first forward; empty when no
  /// intra-cell hop happened.  This is the measured arc-load histogram
  /// the routing-policy fairness series (RunMetrics::arc_forwards) and
  /// the conformance tests compare against kautz/regular.hpp's theory.
  [[nodiscard]] const std::vector<std::uint64_t>& arc_forwards()
      const noexcept {
    return arc_forwards_;
  }

 private:
  /// In-flight packet state (shared by the hop closures).
  struct Packet {
    FullId dst;                    ///< final destination
    Label current_target;          ///< intra-cell label being routed to
    bool stop_at_any_actuator;     ///< evaluation workload mode
    std::size_t bytes;
    double sent_at;
    int hops_left;
    std::int64_t id = -1;          ///< router-assigned trace id
    int kautz_hops = 0;
    int physical_hops = 0;
    int failovers = 0;
    std::optional<Label> forced_next;  ///< Prop. 3.7 directive
    /// Corner actuators already found unreachable during overlay ascent;
    /// the packet re-targets the next-nearest corner instead of dying.
    std::vector<Label> excluded_corners;
    /// Set while the packet is climbing towards a corner actuator.
    std::optional<Label> ascent_target;
    // RoutingPolicy::kRegular walk state: the out-digit program being
    // followed, the next position in it, and the (label, target) the
    // program expects.  Any deviation -- fail-over detour, Prop. 3.7
    // forced hop, corner re-target -- breaks the expectation and the
    // next relay derives a fresh walk from its own label (regular
    // routes are pure functions of the endpoint labels, so this costs
    // no signalling).
    kautz::RegularRoute regular_walk;
    int regular_pos = 0;
    Label regular_expected;
    Label regular_target;
    bool regular_active = false;
    DeliveryFn done;
  };
  using PacketPtr = std::shared_ptr<Packet>;

  void start(NodeId src, FullId dst, bool stop_at_any_actuator,
             std::size_t bytes, DeliveryFn done);
  /// Greedy walk of a non-overlay sensor's packet towards the nearest
  /// actuator until an overlay member picks it up.
  void enter_overlay(NodeId at, int budget, PacketPtr pkt);
  /// One intra-cell routing step at `node` (which holds `label` in `cid`).
  void intra_step(Cid cid, Label label, NodeId node, PacketPtr pkt);
  /// Try the route alternatives starting at index `next_choice`.
  void try_routes(Cid cid, Label label, NodeId node,
                  std::vector<kautz::Route> routes, std::size_t next_choice,
                  PacketPtr pkt);
  /// At an actuator: either done, or CAN transit toward dst cell.
  void inter_step(NodeId actuator, PacketPtr pkt);
  /// CAN transit: unicast to the next cell's corner actuators in order of
  /// distance, starting at index `next_choice`, until one delivers.
  void try_successors(NodeId actuator, std::vector<NodeId> candidates,
                      std::size_t next_choice, PacketPtr pkt);
  /// Physical transfer of one Kautz arc, with a 1-relay detour when the
  /// direct frame fails.
  void transmit_arc(NodeId from, NodeId to, PacketPtr pkt,
                    std::function<void(bool)> done);
  /// kRouteGeneration fail-over: flood-discover a path from `node` to the
  /// target label's holder and walk it.
  void route_generation_failover(Cid cid, NodeId node, Label target,
                                 PacketPtr pkt);
  void deliver(NodeId at, PacketPtr pkt);
  void drop(PacketPtr pkt, sim::DropReason reason);
  /// Bumps the per-arc forward histogram for the arc u -> u·digit
  /// (lazily sizes the table from the cell's (d, k) on first use).
  void record_arc(const Label& u, const Label& next);

  /// True when routing-level trace emission is on (one branch).
  [[nodiscard]] bool tracing() const noexcept {
    return sim::active_tracer(*sim_) != nullptr;
  }
  /// Emits through the simulator's tracer; call only when tracing().
  void emit(const sim::TraceRecord& rec) const {
    sim_->instruments().tracer->emit(rec);
  }
  /// A routing-level record pre-filled with time / packet id / hop count.
  [[nodiscard]] sim::TraceRecord trace_base(sim::TraceEvent event,
                                            const Packet& pkt,
                                            NodeId from) const;

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  Topology* topology_;
  RouterConfig config_;
  Rng rng_;
  net::Flooder* flooder_ = nullptr;
  std::int64_t next_packet_id_ = 0;
  Stats stats_;
  /// Repeated (label, target) pairs -- every hop of every flow -- serve
  /// their Theorem 3.8 table from here instead of re-deriving it.
  kautz::RouteCache route_cache_;
  std::vector<kautz::Route> cache_scratch_;  ///< reused lookup buffer
  /// Per-arc successful forward counts (see arc_forwards()).
  std::vector<std::uint64_t> arc_forwards_;
};

}  // namespace refer::core
