#include "sim/spatial_index.hpp"

#include <cassert>
#include <cmath>

namespace refer::sim {

void SpatialIndex::clear() {
  cells_.clear();
  slots_.clear();
  due_ = {};
  nx_ = ny_ = 0;
}

void SpatialIndex::start_build(Rect bounds, double cell, double slack,
                               double max_speed, std::size_t n) {
  assert(cell > 0);
  clear();
  bounds_ = bounds;
  inv_cell_ = 1.0 / cell;
  slack_ = slack;
  bucket_width_ = max_speed > 0 ? slack / max_speed
                                : std::numeric_limits<double>::infinity();
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.width() * inv_cell_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds.height() * inv_cell_)));
  cells_.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_));
  slots_.resize(n);
}

int SpatialIndex::cell_x(double x) const noexcept {
  const int cx = static_cast<int>((x - bounds_.lo.x) * inv_cell_);
  return cx < 0 ? 0 : (cx >= nx_ ? nx_ - 1 : cx);
}

int SpatialIndex::cell_y(double y) const noexcept {
  const int cy = static_cast<int>((y - bounds_.lo.y) * inv_cell_);
  return cy < 0 ? 0 : (cy >= ny_ ? ny_ - 1 : cy);
}

std::int64_t SpatialIndex::bucket_of(Time t) const noexcept {
  if (bucket_width_ == std::numeric_limits<double>::infinity()) return 0;
  return static_cast<std::int64_t>(std::floor(t / bucket_width_));
}

void SpatialIndex::update(NodeId id, Point p, Time valid_until, Time now) {
  assert(id >= 0 && static_cast<std::size_t>(id) < slots_.size());
  Slot& slot = slots_[static_cast<std::size_t>(id)];

  // Unlink from the previous cell (swap-remove, fixing the moved entry's
  // back-pointer).
  if (slot.cell >= 0) {
    Cell& old_cell = cells_[static_cast<std::size_t>(slot.cell)];
    const std::size_t pos = static_cast<std::size_t>(slot.pos);
    const std::size_t last = old_cell.entries.size() - 1;
    if (pos != last) {
      old_cell.entries[pos] = old_cell.entries[last];
      slots_[static_cast<std::size_t>(old_cell.entries[pos].id)].pos =
          static_cast<int>(pos);
    }
    old_cell.entries.pop_back();
  }

  const std::size_t ci = cell_index(cell_x(p.x), cell_y(p.y));
  Cell& cell = cells_[ci];
  slot.cell = static_cast<int>(ci);
  slot.pos = static_cast<int>(cell.entries.size());
  slot.valid_until = valid_until;
  cell.entries.push_back(Entry{p, id});

  if (valid_until != std::numeric_limits<Time>::infinity()) {
    // Always land at least one bucket past `now`, or a deadline inside the
    // current bucket would re-trigger on the very next revalidate() at the
    // same time and loop forever.  The <= one-bucket delay this introduces
    // is covered by the slack budget (see the header comment).
    const std::int64_t bucket =
        std::max(bucket_of(valid_until), bucket_of(now) + 1);
    due_.push(Due{bucket, valid_until, id});
  }
}

void SpatialIndex::collect(Point center, double radius,
                           std::vector<NodeId>& out) const {
  const double r = radius + slack_;
  const double r_sq = r * r;
  const int x0 = cell_x(center.x - r);
  const int x1 = cell_x(center.x + r);
  const int y0 = cell_y(center.y - r);
  const int y1 = cell_y(center.y + r);
  // Room for every entry of the covered cells, then each id is written
  // and the write head advances past it only when it is in range: one
  // compare per entry and no branch on its outcome.
  std::size_t room = out.size();
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      room += cells_[cell_index(cx, cy)].entries.size();
    }
  }
  std::size_t n = out.size();
  out.resize(room);
  NodeId* const dst = out.data();
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      for (const Entry& e : cells_[cell_index(cx, cy)].entries) {
        dst[n] = e.id;
        n += static_cast<std::size_t>(distance_sq(center, e.p) <= r_sq);
      }
    }
  }
  out.resize(n);
}

}  // namespace refer::sim
