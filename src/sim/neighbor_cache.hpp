// Epoch-validated neighbor-row cache over the spatial grid.
//
// Every CSMA medium scan (Channel::reserve_tx_slot), broadcast receiver
// set and routing reachable query funnels through World::reachable,
// which -- with only the grid -- walks the cells intersecting the query
// radius, gathers candidates and sorts them into ascending NodeId order
// *per query*.  Under load the same node queries the same radius
// thousands of times between mobility re-bins, so the cell walk + sort
// is pure repetition.  This cache remembers the sorted candidate row per
// (node, query radius) and turns repeat queries into a linear read of a
// flat array.
//
// Layout: one Table per distinct query radius the run uses (sensor
// range, actuator range, and any range_override such as flooding's
// query_tx_range).  Each table is CSR-shaped: per-node (begin, len)
// offsets into one shared append-only pool of NodeIds, rows stored in
// ascending id order.  Rows for different nodes share the pool, so a
// table's steady-state footprint is O(sum of row lengths) and rebuilding
// a row after an invalidation reuses the pool's capacity -- no
// steady-state allocations (pinned by a counting-operator-new test).
//
// Correctness rides the SpatialIndex validity deadlines.  The index
// guarantees every binned position is at most `slack` metres stale at
// revalidate() times; a re-bin is exactly the moment that guarantee was
// about to expire for some node.  The cache therefore keys validity on a
// single global epoch: any re-bin (or full rebuild) bumps it, and a row
// stamped with an older epoch is a miss.  Within one epoch the querying
// node and any true neighbour have each drifted at most `slack` from the
// positions the row was built against, so a row built from
// collect(p, r + 2*slack) -- collect() itself adds a third slack for
// binned-position staleness -- remains a *superset* of the true in-range
// set for every query it serves.  World's settle passes (alive +
// within_range on live positions, ascending id order) then yield results
// bit-identical to a linear scan.  Liveness flips need no invalidation
// at all: dead nodes stay binned and are dropped when a row is settled.
//
// The superset would make cached queries *slower* than uncached ones if
// every candidate still needed its live position evaluated: the row
// covers ~(1 + 3*slack/r)^2 times the radio disk's area, and the
// per-candidate waypoint interpolation dominates settle cost.  So each
// row also stores every candidate's binned anchor.  Within the epoch a
// candidate's live position stays within `slack` of its anchor, giving
// the settle pass a two-sided verdict on the cheap anchor distance d:
//   d > r + slack  =>  certainly out of range, reject;
//   d < r - slack  =>  certainly in range, accept;
// only the thin annulus in between needs the exact live-position check.
// Both bands carry a small epsilon so floating-point edge cases fall
// through to the exact check rather than trusting the bound to the ulp.
//
// A Row is a plain pointer view.  World settles a row into its own
// buffer before any caller code runs, so no store() can move a pool
// while a row is being read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/spatial_index.hpp"  // NodeId

namespace refer::sim {

class NeighborCache {
 public:
  /// A view of one cached row: `len` ascending ids and, parallel to
  /// them, each candidate's binned anchor.  Valid until the next store()
  /// or reset().
  struct Row {
    const NodeId* ids = nullptr;
    const Point* anchors = nullptr;
    std::uint32_t len = 0;
  };

  /// Counters exported as world.neighbor_cache.* observability.
  struct Stats {
    std::uint64_t hits = 0;           ///< queries served from a cached row
    std::uint64_t rebuilds = 0;       ///< rows (re)built from the grid
    std::uint64_t invalidations = 0;  ///< epoch bumps (re-bins + rebuilds)
  };

  /// New node universe (full index rebuild / node added).  Drops every
  /// table; radii are rediscovered on first use.
  void reset(std::size_t n);

  /// Kills every cached row (O(1): bumps the epoch; rows die lazily on
  /// lookup, pools are recycled on the first store of the new epoch).
  /// Called per spatial-index re-bin -- the moment a binned position's
  /// slack guarantee expired.
  void invalidate() noexcept {
    ++epoch_;
    ++stats_.invalidations;
  }

  /// True when `id` has a current-epoch row for radius `range`; fills
  /// `out` with a view of it.
  [[nodiscard]] bool lookup(NodeId id, double range, Row& out) noexcept {
    for (Table& t : tables_) {
      if (t.range == range) {
        const auto slot = static_cast<std::size_t>(id);
        if (t.stamp[slot] != epoch_) return false;
        out.ids = t.pool.data() + t.begin[slot];
        out.anchors = t.apool.data() + t.begin[slot];
        out.len = t.len[slot];
        ++stats_.hits;
        return true;
      }
    }
    return false;
  }

  /// Records `ids` (ascending, unique) as `id`'s row for radius `range`
  /// and returns a view of the stored copy.  `anchor_of(nid)` must
  /// return the candidate's binned anchor position (the prefilter
  /// contract above); World passes SpatialIndex::anchor.
  template <typename AnchorFn>
  Row store(NodeId id, double range, const std::vector<NodeId>& ids,
            AnchorFn&& anchor_of) {
    ++stats_.rebuilds;
    Table& t = table_for(range);
    if (t.pool_epoch != epoch_) {
      // First row of a new epoch: every old row is dead, recycle the
      // pools (capacity is kept, so steady-state rebuilds allocate
      // nothing).
      t.pool.clear();
      t.apool.clear();
      t.pool_epoch = epoch_;
    }
    const auto begin = static_cast<std::uint32_t>(t.pool.size());
    const auto len = static_cast<std::uint32_t>(ids.size());
    t.pool.insert(t.pool.end(), ids.begin(), ids.end());
    for (const NodeId nid : ids) t.apool.push_back(anchor_of(nid));
    const auto slot = static_cast<std::size_t>(id);
    t.begin[slot] = begin;
    t.len[slot] = len;
    t.stamp[slot] = epoch_;
    return Row{t.pool.data() + begin, t.apool.data() + begin, len};
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Table {
    double range = 0;
    std::uint64_t pool_epoch = 0;      ///< epoch the pool was last recycled for
    std::vector<std::uint32_t> begin;  ///< per-node row offset into pool
    std::vector<std::uint32_t> len;    ///< per-node row length
    std::vector<std::uint64_t> stamp;  ///< per-node build epoch (0 = never)
    std::vector<NodeId> pool;          ///< shared row storage, append-only
    std::vector<Point> apool;          ///< candidate anchors, parallel to pool
  };

  Table& table_for(double range);

  std::vector<Table> tables_;  ///< one per query radius, in first-use order
  std::uint64_t epoch_ = 1;   ///< starts above the stamp default of 0
  std::size_t n_ = 0;
  Stats stats_;
};

}  // namespace refer::sim
