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
// flat array walk.  A query either walks its current row or, on a miss,
// builds the row from the grid and walks that; the exact per-candidate
// check still runs on live positions, so cached results stay
// bit-identical too.  closest_actuator needs no index: it scans the few
// static actuators in id order.
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

/// A pool of NodeId buffers leased to in-flight queries.  Queries re-enter:
/// a flood receive handler fired while iterating one neighbour set starts a
/// fresh broadcast that needs its own, so a single scratch vector would be
/// clobbered mid-iteration.  Leases nest like a stack; buffers are never
/// freed, so steady-state queries allocate nothing.
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(ScratchPool& pool, std::vector<NodeId>& buf) noexcept
        : pool_(&pool), buf_(&buf) {}
    Lease(Lease&& o) noexcept : pool_(o.pool_), buf_(o.buf_) {
      o.pool_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_) --pool_->depth_;
    }
    [[nodiscard]] std::vector<NodeId>& operator*() const noexcept {
      return *buf_;
    }

   private:
    ScratchPool* pool_;
    std::vector<NodeId>* buf_;
  };

  [[nodiscard]] Lease acquire() {
    if (depth_ == buffers_.size())
      buffers_.push_back(std::make_unique<std::vector<NodeId>>());
    std::vector<NodeId>& buf = *buffers_[depth_++];
    buf.clear();
    return Lease(*this, buf);
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

  /// Visits every alive node within `from`'s transmission range (excluding
  /// itself) in ascending NodeId order -- identical ids and order to the
  /// linear scan, but via the spatial index and without allocating.
  /// `range_override` > 0 models transmit power control (used by the
  /// embedding protocol's path queries); 0 uses the node's own range.
  template <typename Fn>
  void visit_reachable(NodeId from, Fn&& fn, double range_override = 0) {
    // Every geometric query charges the simulator's phase profiler.
    PhaseProfiler::Scope phase(sim_->instruments().phases,
                               Phase::kSpatialQuery);
    if (!alive(from)) return;
    const Point p = position(from);
    const double r = range_override > 0 ? range_override : range(from);
    if (ensure_index()) {
      NeighborCache::Row row;
      if (!ncache_.lookup(from, r, row)) {
        ScratchPool::Lease lease = scratch_.acquire();
        std::vector<NodeId>& buf = *lease;
        // A row serves queries until the next re-bin.  Between its
        // build and its last reuse the querying node and any true
        // neighbour have each drifted at most `slack` from their binned
        // anchors (the re-bin IS the moment that bound would break), so
        // the build widens the radius by two slack budgets on top of
        // collect()'s own binned-position expansion: the row stays a
        // superset of every in-range set it serves, and the exact check
        // in walk_row keeps results bit-identical to a linear scan.
        index_.collect(p, r + 2 * index_.slack(), buf);
        sort_ids(buf);
        index_stats_.queries += 1;
        index_stats_.candidates += buf.size();
        row = ncache_.store(from, r, buf,
                            [this](NodeId j) { return index_.anchor(j); });
      }
      walk_row(row, from, p, r, sim_->now(), fn);
      return;
    }
    // No index can exist (every range zero): scan all nodes.
    for (NodeId i = 0; static_cast<std::size_t>(i) < nodes_.size(); ++i) {
      if (i == from || !alive(i)) continue;
      if (within_range(p, position(i), r)) fn(i);
    }
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

  /// Leases a reusable NodeId buffer for callers that need to materialise
  /// a neighbour set without allocating (e.g. broadcast delivery).
  [[nodiscard]] ScratchPool::Lease lease_scratch() {
    return scratch_.acquire();
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
    bool alive = true;
    Waypoint motion;
  };

  /// Exact filter pass over a cached row: ascending-id candidates
  /// settled by the anchor shortcut where the slack bound is decisive
  /// and re-checked against live positions in the remaining annulus, so
  /// survivors match a linear scan bit for bit.  Candidates are read
  /// back through (pool, index) rather than a raw pointer because `fn` may re-enter
  /// visit_reachable (flood handlers do) and the nested miss may append
  /// to the same pool, relocating its storage -- indices survive that.
  template <typename Fn>
  void walk_row(NeighborCache::Row row, NodeId from, Point p, double r,
                Time now, Fn&& fn) {
    // Anchor shortcut: within the epoch every candidate's live position
    // stays within slack of its stored anchor, so the cheap anchor
    // distance settles all but a thin annulus of candidates without
    // evaluating their waypoint positions.  The epsilon keeps
    // floating-point edge cases on the exact-check path; it only narrows
    // the shortcut bands, never changes results.
    const double s = index_.slack() + 1e-6;
    const double reject = (r + s) * (r + s);
    const double accept = r > s ? (r - s) * (r - s) : -1.0;
    for (std::uint32_t k = 0; k < row.len; ++k) {
      const double d2 = distance_sq(p, (*row.anchors)[row.begin + k]);
      if (d2 > reject) continue;  // out of range even after drift
      const NodeId i = (*row.pool)[row.begin + k];
      if (i == from) continue;
      Node& n = nodes_[static_cast<std::size_t>(i)];
      if (!n.alive) continue;
      if (d2 < accept) {  // in range even after drift
        fn(i);
        continue;
      }
      if (within_range(p, n.motion.position_at(now), r)) fn(i);
    }
  }

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

  bool index_dirty_ = true;
  bool index_usable_ = false;
  SpatialIndex index_;
  std::vector<NodeId> actuators_;  ///< ascending; closest_actuator scans it
  NeighborCache ncache_;
  ScratchPool scratch_;
  std::vector<std::uint64_t> mark_;  ///< sort_ids scratch bitmap
  IndexStats index_stats_;
};

}  // namespace refer::sim
