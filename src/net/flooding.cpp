#include "net/flooding.hpp"

#include <deque>
#include <memory>

namespace refer::net {

namespace {

/// One flood in flight.  Each forwarding broadcast's receive callback (and
/// the deadline, where there is one) owns the query through
/// shared_from_this(), so the query lives exactly as long as a frame or
/// timer can still reach it and is freed after the last of them fires;
/// no closure refers to itself.
///
/// A node forwards a query at most once, so the path any copy carries is
/// always "the forwarder's first-accepted path plus the forwarder".  That
/// makes the set of travelled paths a tree: each acceptance records only
/// its parent in a flat array sized to the world, and the full path is
/// reconstructed -- identically -- on the rare target arrival.
template <typename Self>
class FloodQuery : public std::enable_shared_from_this<Self> {
 protected:
  FloodQuery(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
             sim::EnergyBucket bucket, std::size_t bytes)
      : sim_(&sim),
        world_(&world),
        channel_(&channel),
        bucket_(bucket),
        bytes_(bytes),
        parent_(world.size(), kUnseen) {}

  /// True once `at` accepted (and so forwarded or answered) the query.
  [[nodiscard]] bool forwarded(NodeId at) const {
    return parent_[static_cast<std::size_t>(at)] != kUnseen;
  }
  void accept(NodeId at, NodeId from) {
    parent_[static_cast<std::size_t>(at)] = from;
  }

  /// The path src ... at (inclusive) along first-acceptance parents.
  [[nodiscard]] std::vector<NodeId> path_to(NodeId at) const {
    std::vector<NodeId> path{at};
    for (NodeId up = parent_[static_cast<std::size_t>(at)]; up >= 0;
         up = parent_[static_cast<std::size_t>(up)]) {
      path.push_back(up);
    }
    return {path.rbegin(), path.rend()};
  }

  /// Rebroadcasts the query from `at`; every receiver r gets
  /// Self::receive(r, at, next).
  void rebroadcast(NodeId at, int next, double tx_range = 0) {
    channel_->broadcast(
        at, bytes_, bucket_,
        [self = this->shared_from_this(), at, next](NodeId r) {
          self->receive(r, at, next);
        },
        tx_range);
  }

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  sim::EnergyBucket bucket_;
  std::size_t bytes_;

 private:
  static constexpr NodeId kUnseen = -2;  // the source's parent is -1
  std::vector<NodeId> parent_;
};

class DiscoverQuery final : public FloodQuery<DiscoverQuery> {
 public:
  DiscoverQuery(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
                sim::EnergyBucket bucket, std::size_t bytes, NodeId target,
                Flooder::DiscoverDone done)
      : FloodQuery(sim, world, channel, bucket, bytes),
        target_(target),
        done_(std::move(done)) {}

  void receive(NodeId at, NodeId from, int ttl_left) {
    PhaseProfiler::Scope phase(sim_->instruments().phases, Phase::kFlooding);
    if (finished_ || forwarded(at)) return;
    // Only accept over symmetric links: the discovered route must carry
    // the reply (and later data) back towards the source, so a node that
    // cannot reach the forwarder ignores the query copy (AODV-style
    // blacklisting of unidirectional links).
    if (from >= 0 && !world_->can_reach(at, from)) return;
    accept(at, from);
    if (at == target_) {
      // The first copy to arrive: unicast the reply back along the
      // reverse path; the requester learns the route when it arrives.
      route_ = path_to(at);
      reply_hop(0);
      return;
    }
    if (ttl_left > 0) rebroadcast(at, ttl_left - 1);
  }

  void expire() { finish(std::nullopt); }

 private:
  /// Reply hop i travels route_[n-1-i] -> route_[n-2-i].
  void reply_hop(std::size_t i) {
    if (finished_) return;
    const std::size_t n = route_.size();
    if (i + 1 >= n) {
      finish(std::move(route_));
      return;
    }
    channel_->unicast(route_[n - 1 - i], route_[n - 2 - i], bytes_, bucket_,
                      [self = shared_from_this(), i](bool ok) {
                        if (!ok) {
                          self->finish(std::nullopt);
                          return;
                        }
                        self->reply_hop(i + 1);
                      });
  }

  void finish(std::optional<std::vector<NodeId>> path) {
    if (finished_) return;
    finished_ = true;
    done_(std::move(path));
  }

  NodeId target_;
  Flooder::DiscoverDone done_;
  std::vector<NodeId> route_;  // src ... target, once the target answers
  bool finished_ = false;
};

class CollectQuery final : public FloodQuery<CollectQuery> {
 public:
  CollectQuery(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
               sim::EnergyBucket bucket, std::size_t bytes, NodeId target,
               double tx_range, Flooder::CollectDone done)
      : FloodQuery(sim, world, channel, bucket, bytes),
        target_(target),
        tx_range_(tx_range),
        done_(std::move(done)) {}

  void receive(NodeId at, NodeId from, int ttl_left) {
    PhaseProfiler::Scope phase(sim_->instruments().phases, Phase::kFlooding);
    if (finished_) return;
    if (at == target_) {
      // Record every arrival: forwarder's first-accept path + target.
      std::vector<NodeId> path =
          from >= 0 ? path_to(from) : std::vector<NodeId>{};
      path.push_back(at);
      arrived_.push_back(std::move(path));
      return;
    }
    if (forwarded(at)) return;
    accept(at, from);
    if (ttl_left > 0) rebroadcast(at, ttl_left - 1, tx_range_);
  }

  void expire() {
    finished_ = true;
    done_(std::move(arrived_));
  }

 private:
  NodeId target_;
  double tx_range_;
  Flooder::CollectDone done_;
  std::vector<std::vector<NodeId>> arrived_;
  bool finished_ = false;
};

class AnnounceQuery final : public FloodQuery<AnnounceQuery> {
 public:
  using OnNode = std::function<bool(NodeId, int, NodeId)>;

  AnnounceQuery(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
                sim::EnergyBucket bucket, std::size_t bytes, int ttl,
                OnNode on_node)
      : FloodQuery(sim, world, channel, bucket, bytes),
        ttl_(ttl),
        on_node_(std::move(on_node)) {}

  void receive(NodeId at, NodeId parent, int hops_travelled) {
    PhaseProfiler::Scope phase(sim_->instruments().phases, Phase::kFlooding);
    if (forwarded(at)) return;
    if (on_node_ && parent >= 0 && !on_node_(at, hops_travelled, parent)) {
      return;  // rejected: `at` stays eligible for later copies
    }
    accept(at, parent);
    if (hops_travelled < ttl_) rebroadcast(at, hops_travelled + 1);
  }

 private:
  int ttl_;
  OnNode on_node_;
};

}  // namespace

void Flooder::discover(NodeId src, NodeId target, int ttl,
                       sim::EnergyBucket bucket, DiscoverDone done,
                       std::size_t query_bytes, double deadline_s) {
  ++next_query_;
  auto query = std::make_shared<DiscoverQuery>(
      *sim_, *world_, *channel_, bucket, query_bytes, target,
      std::move(done));
  // Kick off: src "receives" its own query with full TTL.
  query->receive(src, -1, ttl);
  sim_->schedule_in(deadline_s, [query] { query->expire(); });
}

void Flooder::collect_paths(NodeId src, NodeId target, int ttl,
                            sim::EnergyBucket bucket, CollectDone done,
                            std::size_t query_bytes, double deadline_s,
                            double query_tx_range) {
  ++next_query_;
  auto query = std::make_shared<CollectQuery>(
      *sim_, *world_, *channel_, bucket, query_bytes, target,
      query_tx_range, std::move(done));
  query->receive(src, -1, ttl + 1);  // src itself does not consume TTL
  sim_->schedule_in(deadline_s, [query] { query->expire(); });
}

void Flooder::announce(NodeId src, int ttl, sim::EnergyBucket bucket,
                       std::function<bool(NodeId, int, NodeId)> on_node,
                       std::size_t bytes) {
  ++next_query_;
  std::make_shared<AnnounceQuery>(*sim_, *world_, *channel_, bucket, bytes,
                                  ttl, std::move(on_node))
      ->receive(src, -1, 0);
}

std::optional<std::vector<NodeId>> bfs_path(
    sim::World& world, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>* exclude) {
  if (src == dst) return std::vector<NodeId>{src};
  std::unordered_map<NodeId, NodeId> parent;
  std::deque<NodeId> frontier{src};
  parent[src] = src;
  // One leased neighbour buffer reused across every BFS expansion.
  sim::ScratchPool::Lease lease = world.lease_scratch();
  std::vector<NodeId>& neighbours = *lease;
  while (!frontier.empty()) {
    const NodeId at = frontier.front();
    frontier.pop_front();
    world.reachable_from(at, neighbours);
    for (NodeId next : neighbours) {
      if (parent.contains(next)) continue;
      if (exclude && next != dst && exclude->contains(next)) continue;
      parent[next] = at;
      if (next == dst) {
        std::vector<NodeId> path{dst};
        for (NodeId cur = dst; cur != src;) {
          cur = parent[cur];
          path.push_back(cur);
        }
        return std::vector<NodeId>(path.rbegin(), path.rend());
      }
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

namespace {

/// One send_along_path transfer; like a flood query it is owned by the
/// callback of its in-flight hop, so it is freed once the last hop fires.
class PathSend final : public std::enable_shared_from_this<PathSend> {
 public:
  PathSend(sim::Channel& channel, std::vector<NodeId> path,
           std::size_t bytes, sim::EnergyBucket bucket,
           std::function<void(std::size_t, bool)> done)
      : channel_(&channel),
        path_(std::move(path)),
        bytes_(bytes),
        bucket_(bucket),
        done_(std::move(done)) {}

  void hop(std::size_t i) {
    if (i + 1 >= path_.size()) {
      done_(i, true);
      return;
    }
    channel_->unicast(path_[i], path_[i + 1], bytes_, bucket_,
                      [self = shared_from_this(), i](bool ok) {
                        if (!ok) {
                          self->done_(i, false);
                          return;
                        }
                        self->hop(i + 1);
                      });
  }

 private:
  sim::Channel* channel_;
  std::vector<NodeId> path_;
  std::size_t bytes_;
  sim::EnergyBucket bucket_;
  std::function<void(std::size_t, bool)> done_;
};

}  // namespace

void send_along_path(sim::Channel& channel, std::vector<NodeId> path,
                     std::size_t bytes, sim::EnergyBucket bucket,
                     std::function<void(std::size_t, bool)> done) {
  if (path.size() < 2) {
    if (done) done(0, true);
    return;
  }
  std::make_shared<PathSend>(channel, std::move(path), bytes, bucket,
                             std::move(done))
      ->hop(0);
}

}  // namespace refer::net
