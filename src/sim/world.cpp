#include "sim/world.hpp"

#include <cassert>
#include <limits>

#include "sim/trace.hpp"

namespace refer::sim {
namespace {

/// Staleness budget as a fraction of the smallest positive transmission
/// range.  Larger slack means fewer re-bins but a wider candidate ring;
/// the ring cost is paid on every query and re-bins only per drifted leg,
/// so a small 5% keeps the prefilter tight.
constexpr double kSlackFraction = 0.05;

}  // namespace

NodeId World::add_node(Node node) {
  nodes_.push_back(std::move(node));
  index_dirty_ = true;
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId World::add_actuator(Point pos, double range) {
  const NodeId id =
      add_node(Node{NodeKind::kActuator, range, true, Waypoint(pos)});
  actuators_.push_back(id);
  return id;
}

NodeId World::add_sensor(Point pos, double range, double min_speed,
                         double max_speed, Rng rng) {
  return add_node(Node{NodeKind::kSensor, range, true,
                       Waypoint(pos, area_, min_speed, max_speed, rng)});
}

NodeId World::add_static_sensor(Point pos, double range) {
  return add_node(Node{NodeKind::kSensor, range, true, Waypoint(pos)});
}

NodeKind World::kind(NodeId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].kind;
}

double World::range(NodeId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].range;
}

Point World::position(NodeId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].motion.position_at(sim_->now());
}

bool World::alive(NodeId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].alive;
}

void World::set_alive(NodeId id, bool alive) {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  auto& node = nodes_[static_cast<std::size_t>(id)];
  if (Tracer* tracer = active_tracer(*sim_); tracer && node.alive != alive) {
    tracer->emit(frame_record(
        sim_->now(), alive ? TraceEvent::kNodeUp : TraceEvent::kNodeDown, id,
        -1, 0, EnergyBucket::kMaintenance));
  }
  node.alive = alive;
}

bool World::can_reach(NodeId from, NodeId to) {
  if (from == to) return false;
  if (!alive(from) || !alive(to)) return false;
  return within_range(position(from), position(to), range(from));
}

std::vector<NodeId> World::all_of(NodeKind k) const {
  std::vector<NodeId> out;
  for (NodeId i = 0; static_cast<std::size_t>(i) < nodes_.size(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].kind == k) out.push_back(i);
  }
  return out;
}

bool World::ensure_index() {
  const Time now = sim_->now();
  if (index_dirty_) rebuild_index(now);
  if (!index_usable_) return false;
  // A re-bin is exactly the moment some binned position's slack bound
  // was about to break, so it also expires every cached neighbor row.
  index_.revalidate(now, [this, now](NodeId id) {
    bin_node(id, now);
    ncache_.invalidate();
  });
  return true;
}

void World::rebuild_index(Time now) {
  index_dirty_ = false;
  ncache_.reset(nodes_.size());
  double max_range = 0;
  double min_range = std::numeric_limits<double>::infinity();
  double max_speed = 0;
  for (const Node& n : nodes_) {
    max_range = std::max(max_range, n.range);
    if (n.range > 0) min_range = std::min(min_range, n.range);
    max_speed = std::max(max_speed, n.motion.max_speed());
  }
  index_usable_ = !nodes_.empty() && max_range > 0;
  if (!index_usable_) return;

  // The prefilter scans every cell intersecting the query rect, so its
  // cost is ~density * (2r + 2*cell)^2: max-range cells would guarantee a
  // 3x3 block but make short-range queries (the common case -- sensor
  // range is well below actuator range) scan far past their radius.  A
  // quarter of max range keeps the over-scan ring thin; the side/64 floor
  // bounds the grid at 64x64 cells for sparse wide-area deployments.
  const double side = std::max(area_.width(), area_.height());
  const double cell = std::max(max_range / 4.0, side / 64.0);
  // The slack is sized by what can move.  When nothing can, every anchor
  // is its node's live position for good, so slack 0 costs no re-bins
  // and makes a row built from collect(p, r) exactly the in-range set
  // (plus dead nodes and the querier): the anchor test settles every
  // candidate not at exactly the query range.  Otherwise the slack
  // scales with the smallest range, the radius most queries use
  // (sensors, not the far-reaching actuators): each row is collected
  // three slack budgets wider than its radius, and a smaller slack
  // trades that over-scan for more frequent re-bins.
  const double slack = max_speed > 0 ? min_range * kSlackFraction : 0.0;
  index_.start_build(area_, cell, slack, max_speed, nodes_.size());
  for (NodeId i = 0; static_cast<std::size_t>(i) < nodes_.size(); ++i) {
    bin_node(i, now);
  }
  index_stats_.rebuilds += 1;
}

void World::bin_node(NodeId id, Time now) {
  Node& n = nodes_[static_cast<std::size_t>(id)];
  const Point p = n.motion.position_at(now);
  Time valid_until = std::numeric_limits<Time>::infinity();
  if (n.motion.is_mobile()) {
    // The binning is trusted until the node could have drifted `slack`
    // metres on its current leg, or the leg ends (new direction/speed) --
    // whichever comes first.  A pause (speed 0) is trusted to the leg end.
    const double speed = n.motion.current_speed();
    const Time leg_end = n.motion.segment_end();
    valid_until =
        speed > 0 ? std::min(leg_end, now + index_.slack() / speed) : leg_end;
  }
  index_.update(id, p, valid_until, now);
  index_stats_.rebins += 1;
}

NodeId World::closest_actuator(NodeId id) {
  PhaseProfiler::Scope phase(sim_->instruments().phases,
                             Phase::kSpatialQuery);
  const Point p = position(id);
  // Ascending ids and a strict < keep the lowest id on ties.
  NodeId best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (const NodeId i : actuators_) {
    if (i == id || !alive(i)) continue;
    const double d = distance_sq(p, position(i));
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace refer::sim
