// Uniform-grid spatial index over node positions.
//
// Replaces World's O(n) range-query scans (CSMA medium occupancy,
// broadcast receivers, routing neighbourhoods) with cell-local candidate
// generation.  The cell side is a caller policy (World uses a fraction
// of the maximum transmission range; see World::rebuild_index) --
// queries visit every cell intersecting their radius, so cell size
// affects only speed, never results.
//
// Mobility without per-tick updates: each entry is binned at its exact
// analytic position and carries a *validity deadline* derived from the
// node's current random-waypoint leg -- the time by which the node could
// have drifted more than `slack` metres from where it was binned
// (min(leg end, bin time + slack / leg speed)).  Deadlines are quantized
// into time buckets and kept in a min-heap; revalidate(now) re-bins
// exactly the entries whose bucket has passed.  Static nodes get an
// infinite deadline and are never re-binned.  Queries expand their
// radius by `slack`, so a candidate set built from positions that are at
// most `slack` metres stale is still a superset of the true in-range
// set; the caller's exact range check (on live positions) makes results
// *bit-identical* to a linear scan.
//
// Bucket quantization detail: a re-bin scheduled during revalidation is
// always pushed at least one bucket into the future (otherwise a leg
// ending inside the current bucket would re-queue itself forever).  That
// can delay a re-bin past its deadline by at most one bucket width W, in
// which case the entry drifts at most W * v_max extra metres; choosing
// W = slack / v_max keeps the total drift within `slack` (the index only
// needs validity at revalidate() times -- nothing queries it between).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/geometry.hpp"
#include "sim/simulator.hpp"

namespace refer::sim {

/// Physical node index (same meaning as World's NodeId).
using NodeId = int;

class SpatialIndex {
 public:
  /// Drops every cell, slot and deadline.
  void clear();

  /// (Re)initialises the grid: `bounds` is the deployment area, `cell`
  /// the cell side, `slack` the staleness budget in metres, `max_speed`
  /// the fastest any node can move (sizes the deadline buckets) and `n`
  /// the node-id universe.  Call update() for every node afterwards.
  void start_build(Rect bounds, double cell, double slack, double max_speed,
                   std::size_t n);

  /// Bins (or re-bins) `id` at its exact position `p`, valid until
  /// `valid_until` (+inf = static, never revisited).  `now` anchors the
  /// deadline bucket.
  void update(NodeId id, Point p, Time valid_until, Time now);

  /// Re-bins every entry whose deadline bucket has passed by `now`.
  /// `rebin(id)` must call update(id, fresh position, fresh deadline).
  template <typename RebinFn>
  void revalidate(Time now, RebinFn&& rebin) {
    const std::int64_t current = bucket_of(now);
    while (!due_.empty() && due_.top().bucket <= current) {
      const Due due = due_.top();
      due_.pop();
      if (due.deadline != slots_[static_cast<std::size_t>(due.id)].valid_until)
        continue;  // superseded entry
      rebin(due.id);
    }
  }

  /// Appends to `out` every id binned within `radius + slack` of
  /// `center` (by binned position; the slack expansion makes this a
  /// guaranteed superset of the true in-range set).  Unordered.  Hits
  /// are compacted without a branch per entry.
  void collect(Point center, double radius, std::vector<NodeId>& out) const;

  /// The binned (anchor) position of `id` -- where update() last placed
  /// it.  Until the node's next re-bin its true position stays within
  /// slack() of this anchor (the deadline contract above), which is what
  /// lets the neighbor cache prefilter candidates without evaluating
  /// their live positions.  Only valid for ids currently binned.
  [[nodiscard]] Point anchor(NodeId id) const noexcept {
    const Slot& s = slots_[static_cast<std::size_t>(id)];
    return cells_[static_cast<std::size_t>(s.cell)]
        .entries[static_cast<std::size_t>(s.pos)]
        .p;
  }

  [[nodiscard]] double slack() const noexcept { return slack_; }

 private:
  /// One binned node: position first (the prefilter reads it for every
  /// entry, the id only for survivors).
  struct Entry {
    Point p;
    NodeId id;
  };
  /// Per-cell storage: one contiguous entry array, so a query streams a
  /// single buffer per visited cell instead of chasing node state.
  struct Cell {
    std::vector<Entry> entries;
  };
  /// Per-node bookkeeping: which cell the node sits in, where inside its
  /// vectors, and until when the binning is trusted.
  struct Slot {
    int cell = -1;
    int pos = -1;
    Time valid_until = 0;
  };
  struct Due {
    std::int64_t bucket;
    Time deadline;
    NodeId id;
  };
  struct Later {
    bool operator()(const Due& a, const Due& b) const noexcept {
      if (a.bucket != b.bucket) return a.bucket > b.bucket;
      return a.id > b.id;
    }
  };

  [[nodiscard]] int cell_x(double x) const noexcept;
  [[nodiscard]] int cell_y(double y) const noexcept;
  [[nodiscard]] std::size_t cell_index(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  }
  [[nodiscard]] std::int64_t bucket_of(Time t) const noexcept;

  Rect bounds_{};
  double inv_cell_ = 0;
  double slack_ = 0;
  double bucket_width_ = std::numeric_limits<double>::infinity();
  int nx_ = 0;
  int ny_ = 0;
  std::vector<Cell> cells_;
  std::vector<Slot> slots_;
  std::priority_queue<Due, std::vector<Due>, Later> due_;
};

}  // namespace refer::sim
