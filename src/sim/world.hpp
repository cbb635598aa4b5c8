// The physical deployment: node kinds, positions (via mobility), liveness
// and range queries.
//
// Geometric queries go through a uniform-grid SpatialIndex kept
// incrementally consistent under random-waypoint mobility; results are
// bit-identical to a linear scan (candidates are sorted into ascending
// NodeId order and re-checked against exact live positions).  The
// property tests cross-check against a brute-force scan kept in tests/.
// Only a world where no index can be built (every range zero) falls back
// to scanning all nodes.
//
// On top of the grid sits a NeighborCache (sim/neighbor_cache.hpp): the
// sorted candidate row of each (node, query radius) pair is remembered
// and reused until any grid re-bin bumps a global epoch, turning repeat
// queries -- the CSMA medium scan fires one per transmission -- into a
// flat array read.  A query classifies first and visits after:
// reachable() settles its row (the current one, or one built from the
// grid on a miss) into a leased buffer of the exact in-range ids, and
// only then does visit_reachable hand them to the visitor.  Settling is
// two passes: a branch-free pass that sorts each candidate into reject,
// accept or check-exactly by its anchor distance and its liveness byte,
// and the exact live-position check for the thin annulus that needs it.
// closest_actuator needs no index: it scans the few static actuators in
// id order.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "sim/mobility.hpp"
#include "sim/neighbor_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/spatial_index.hpp"

namespace refer::sim {

enum class NodeKind { kSensor, kActuator };

/// A pool of NodeId buffers leased to in-flight queries.  Query results
/// nest: a visitor or broadcast receive handler iterating one result may
/// query again (a flood hop starts the next broadcast), and that result
/// needs its own buffer.  Leases nest like a stack; buffers only grow and
/// are never freed, so steady-state queries allocate nothing.
class ScratchPool {
 public:
  /// One query's result: the first size() ids of a pooled buffer, which
  /// World fills in place.
  class Lease {
   public:
    Lease(ScratchPool& pool, std::vector<NodeId>& buf) noexcept
        : pool_(&pool), buf_(&buf) {}
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), buf_(o.buf_), size_(o.size_) {
      o.pool_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_) --pool_->depth_;
    }
    [[nodiscard]] const NodeId* begin() const noexcept {
      return buf_->data();
    }
    [[nodiscard]] const NodeId* end() const noexcept {
      return buf_->data() + size_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    friend class World;
    ScratchPool* pool_;
    std::vector<NodeId>* buf_;
    std::size_t size_ = 0;
  };

  [[nodiscard]] Lease acquire() {
    if (depth_ == buffers_.size())
      buffers_.push_back(std::make_unique<std::vector<NodeId>>());
    return Lease(*this, *buffers_[depth_++]);
  }

 private:
  // unique_ptr keeps leased buffers stable when the pool vector grows.
  std::vector<std::unique_ptr<std::vector<NodeId>>> buffers_;
  std::size_t depth_ = 0;
};

/// Deployment area + node population.  Owns per-node mobility state and
/// liveness flags; all geometric queries evaluate positions at the current
/// simulator time.
class World {
 public:
  World(Rect area, Simulator& sim) : area_(area), sim_(&sim) {}

  /// Adds a static actuator (paper: actuators are resource-rich and
  /// stationary; transmission range 250 m in the evaluation).
  NodeId add_actuator(Point pos, double range);

  /// Adds a mobile sensor (range 100 m in the evaluation) with
  /// random-waypoint speeds uniform in [min_speed, max_speed].
  NodeId add_sensor(Point pos, double range, double min_speed,
                    double max_speed, Rng rng);

  /// Adds a stationary sensor (ablation: static networks).
  NodeId add_static_sensor(Point pos, double range);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] NodeKind kind(NodeId id) const;
  [[nodiscard]] bool is_actuator(NodeId id) const {
    return kind(id) == NodeKind::kActuator;
  }
  [[nodiscard]] double range(NodeId id) const;
  [[nodiscard]] const Rect& area() const noexcept { return area_; }

  /// Position at the current simulation time.
  [[nodiscard]] Point position(NodeId id);

  /// Liveness: faulty/broken-down nodes neither transmit nor receive.
  [[nodiscard]] bool alive(NodeId id) const;
  /// Liveness flips emit kNodeDown / kNodeUp through the simulator's
  /// tracer.
  void set_alive(NodeId id, bool alive);

  /// True iff `from` can reach `to` right now: both alive and the distance
  /// is within the *sender's* transmission range.  Already O(1) -- a
  /// single pairwise check needs no index.
  [[nodiscard]] bool can_reach(NodeId from, NodeId to);

  /// Every alive node within `from`'s transmission range (excluding
  /// itself) in ascending NodeId order -- identical ids and order to the
  /// linear scan, but via the spatial index and without allocating.  The
  /// set is fixed at the call: liveness flips afterwards do not edit it.
  /// `range_override` > 0 models transmit power control (used by the
  /// embedding protocol's path queries); 0 uses the node's own range.
  /// Empty when `from` is dead.
  [[nodiscard]] ScratchPool::Lease reachable(NodeId from,
                                             double range_override = 0);

  /// Calls `fn` on each id of reachable(from, range_override), in order.
  /// `fn` may query the world again; its queries lease their own buffers.
  template <typename Fn>
  void visit_reachable(NodeId from, Fn&& fn, double range_override = 0) {
    const ScratchPool::Lease ids = reachable(from, range_override);
    for (const NodeId i : ids) fn(i);
  }

  /// All node ids of one kind.
  [[nodiscard]] std::vector<NodeId> all_of(NodeKind kind) const;

  /// The alive actuator physically closest to `id` (or -1 if none).  Ties
  /// go to the lowest id.  Actuators are few and static, so this scans
  /// them in id order and needs no index.
  [[nodiscard]] NodeId closest_actuator(NodeId id);

  /// Cache health counters, exported as world.neighbor_cache.*
  /// observability.
  [[nodiscard]] const NeighborCache::Stats& neighbor_cache_stats()
      const noexcept {
    return ncache_.stats();
  }

  /// Index health counters, exported as world.grid.* observability.
  struct IndexStats {
    std::uint64_t queries = 0;     ///< indexed range queries served
    std::uint64_t candidates = 0;  ///< ids surviving the grid prefilter
    std::uint64_t rebins = 0;      ///< mobility-driven cell moves
    std::uint64_t rebuilds = 0;    ///< full index (re)builds
  };
  [[nodiscard]] const IndexStats& index_stats() const noexcept {
    return index_stats_;
  }

 private:
  /// Sorts a candidate buffer into ascending NodeId order.  Candidates
  /// are *unique* (each node is binned in exactly one cell), so instead
  /// of a comparison sort the ids are marked in a bitmap and swept out in
  /// word order -- O(k + n/64) with no data-dependent branches, several
  /// times cheaper than sorting a radio neighbourhood.  Tiny buffers
  /// skip the word sweep; insertion sort wins there.
  void sort_ids(std::vector<NodeId>& buf) {
    if (buf.size() <= 8) {
      for (std::size_t k = 1; k < buf.size(); ++k) {
        const NodeId v = buf[k];
        std::size_t j = k;
        for (; j > 0 && buf[j - 1] > v; --j) buf[j] = buf[j - 1];
        buf[j] = v;
      }
      return;
    }
    const std::size_t words = nodes_.size() / 64 + 1;
    if (mark_.size() < words) mark_.resize(words, 0);
    for (const NodeId i : buf)
      mark_[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
    std::size_t k = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = mark_[w];
      if (m == 0) continue;
      mark_[w] = 0;  // clear as we sweep: marks never outlive the call
      const NodeId base = static_cast<NodeId>(w << 6);
      do {
        buf[k++] = base + std::countr_zero(m);
        m &= m - 1;
      } while (m != 0);
    }
    assert(k == buf.size());
  }

  struct Node {
    NodeKind kind;
    double range;
    Waypoint motion;
  };

  /// The settle passes over a row: fills `out` with the row's candidates
  /// that are alive and within `r` of `p` now, in row order.
  void settle_row(const NeighborCache::Row& row, Point p, double r,
                  ScratchPool::Lease& out);

  NodeId add_node(Node node);
  /// Revalidates (or lazily rebuilds) the index for the current time;
  /// false when no index can exist (no nodes / zero ranges).
  bool ensure_index();
  void rebuild_index(Time now);
  /// (Re)bins one node at its exact position with a fresh drift deadline.
  void bin_node(NodeId id, Time now);

  Rect area_;
  Simulator* sim_;
  std::vector<Node> nodes_;
  /// Liveness per node, 1 = alive: one byte each, so the settle pass
  /// reads it without touching the node's mobility state.
  std::vector<std::uint8_t> alive_;

  bool index_dirty_ = true;
  bool index_usable_ = false;
  SpatialIndex index_;
  std::vector<NodeId> actuators_;  ///< ascending; closest_actuator scans it
  NeighborCache ncache_;
  ScratchPool scratch_;
  std::vector<std::uint64_t> mark_;  ///< sort_ids scratch bitmap
  std::vector<NodeId> candidates_;   ///< a row being built, before store
  /// settle_row scratch: output positions of the annulus candidates.
  std::vector<std::uint32_t> annulus_;
  IndexStats index_stats_;
};

}  // namespace refer::sim
