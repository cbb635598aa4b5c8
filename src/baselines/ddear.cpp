#include "baselines/ddear.hpp"

#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>

namespace refer::baselines {

using sim::EnergyBucket;

DDear::DDear(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
             net::Flooder& flooder, sim::EnergyTracker& energy,
             DDearConfig config)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      flooder_(&flooder),
      energy_(&energy),
      config_(config) {}

std::vector<NodeId> DDear::khop_neighborhood(NodeId node, int hops) {
  std::unordered_set<NodeId> seen{node};
  std::vector<NodeId> frontier{node}, out;
  for (int h = 0; h < hops; ++h) {
    std::vector<NodeId> next;
    for (NodeId at : frontier) {
      world_->visit_reachable(at, [&](NodeId n) {
        if (world_->is_actuator(n)) return;
        if (seen.insert(n).second) {
          next.push_back(n);
          out.push_back(n);
        }
      });
    }
    frontier = std::move(next);
  }
  return out;
}

void DDear::build(std::function<void(bool)> done) {
  // Hello exchange: every sensor broadcasts twice (its id+energy, then its
  // 1-hop table) so all sensors learn their 2-hop neighbourhood.
  for (NodeId s : world_->all_of(sim::NodeKind::kSensor)) {
    if (!world_->alive(s)) continue;
    channel_->broadcast(s, config_.control_bytes, EnergyBucket::kConstruction,
                        nullptr);
    channel_->broadcast(s, config_.control_bytes, EnergyBucket::kConstruction,
                        nullptr);
  }
  sim_->schedule_in(0.5, [this, done = std::move(done)]() mutable {
    elect_heads_and_paths(std::move(done));
  });
}

Clustering cluster_sensors(sim::World& world,
                           const sim::EnergyTracker& energy,
                           int radius_hops) {
  const std::size_t n = world.size();
  const auto sensors = world.all_of(sim::NodeKind::kSensor);
  // Snapshot of the 1-hop sensor adjacency (CSR, rows in the ascending-id
  // order visit_reachable yields).  Dead sensors and actuators keep empty
  // rows and never appear in one, so walks over it are exactly the
  // k-hop walks the hello exchange describes.
  std::vector<std::size_t> row(n + 1, 0);
  std::vector<NodeId> adj;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<NodeId>(i);
    if (!world.is_actuator(v)) {
      world.visit_reachable(v, [&](NodeId r) {
        if (!world.is_actuator(r)) adj.push_back(r);
      });
    }
    row[i + 1] = adj.size();
  }
  auto neighbours = [&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return std::span<const NodeId>(adj.data() + row[i], row[i + 1] - row[i]);
  };
  auto score = [&energy](NodeId v) {
    return std::pair(energy.battery(static_cast<std::size_t>(v)), v);
  };

  // Election: after `radius_hops` rounds of max-propagation best[v] is the
  // top-scoring sensor within that many hops of v (ties cannot happen:
  // the id is part of the score).
  std::vector<NodeId> best(n, -1), next;
  for (NodeId s : sensors) {
    if (world.alive(s)) best[static_cast<std::size_t>(s)] = s;
  }
  for (int round = 0; round < radius_hops; ++round) {
    next = best;
    for (NodeId s : sensors) {
      NodeId& mine = next[static_cast<std::size_t>(s)];
      for (NodeId r : neighbours(s)) {
        const NodeId theirs = best[static_cast<std::size_t>(r)];
        if (score(theirs) > score(mine)) mine = theirs;
      }
    }
    best.swap(next);
  }
  Clustering out;
  std::vector<char> is_head(n, 0);
  for (NodeId s : sensors) {
    if (world.alive(s) && best[static_cast<std::size_t>(s)] == s) {
      out.heads.push_back(s);
      is_head[static_cast<std::size_t>(s)] = 1;
    }
  }

  // Attachment: a BFS of `radius_hops` levels from each member; the
  // closest head wins, the first in discovery order on a tie.  A sensor
  // that sees no head becomes one at once, so later members may join it.
  out.head_of.assign(n, -1);
  std::vector<std::uint32_t> seen(n, 0);
  std::uint32_t stamp = 0;
  std::vector<NodeId> frontier, level;
  for (NodeId s : sensors) {
    if (!world.alive(s)) continue;
    const auto si = static_cast<std::size_t>(s);
    if (is_head[si]) {
      out.head_of[si] = s;
      continue;
    }
    NodeId my_head = -1;
    double best_d = std::numeric_limits<double>::infinity();
    const Point at = world.position(s);
    seen[si] = ++stamp;
    frontier.assign(1, s);
    for (int h = 0; h < radius_hops && !frontier.empty(); ++h) {
      level.clear();
      for (NodeId v : frontier) {
        for (NodeId r : neighbours(v)) {
          const auto ri = static_cast<std::size_t>(r);
          if (seen[ri] == stamp) continue;
          seen[ri] = stamp;
          level.push_back(r);
          if (!is_head[ri]) continue;
          const double d = distance_sq(at, world.position(r));
          if (d < best_d) {
            best_d = d;
            my_head = r;
          }
        }
      }
      frontier.swap(level);
    }
    if (my_head < 0) {
      out.heads.push_back(s);  // isolated: self-cluster
      is_head[si] = 1;
      my_head = s;
    }
    out.head_of[si] = my_head;
  }
  return out;
}

void DDear::elect_heads_and_paths(std::function<void(bool)> done) {
  Clustering clusters =
      cluster_sensors(*world_, *energy_, config_.cluster_radius_hops);
  head_of_ = std::move(clusters.head_of);
  discover_head_path(0, std::move(clusters.heads), std::move(done));
}

void DDear::discover_head_path(std::size_t head_index,
                               std::vector<NodeId> heads,
                               std::function<void(bool)> done) {
  if (head_index >= heads.size()) {
    done(true);
    return;
  }
  const NodeId head = heads[head_index];
  const NodeId actuator = world_->closest_actuator(head);
  if (actuator < 0) {
    done(false);
    return;
  }
  flooder_->discover(
      head, actuator, config_.repair_ttl, EnergyBucket::kConstruction,
      [this, head, head_index, heads = std::move(heads),
       done = std::move(done)](std::optional<std::vector<NodeId>> path) mutable {
        if (path) head_paths_[head] = *path;
        else head_paths_[head] = {};  // repaired lazily on first use
        discover_head_path(head_index + 1, std::move(heads), std::move(done));
      },
      config_.control_bytes, config_.repair_deadline_s);
}

bool DDear::is_head(NodeId sensor) const { return head_paths_.contains(sensor); }

NodeId DDear::head_of(NodeId sensor) const {
  const auto i = static_cast<std::size_t>(sensor);
  return sensor >= 0 && i < head_of_.size() ? head_of_[i] : -1;
}

void DDear::send_event(NodeId src, std::size_t bytes,
                       std::function<void(const Delivery&)> done) {
  auto msg = std::make_shared<Pending>();
  msg->src = src;
  msg->bytes = bytes;
  msg->sent_at = sim_->now();
  msg->retries_left = config_.max_retransmissions;
  msg->done = std::move(done);
  route_from_member(src, msg);
}

void DDear::route_from_member(NodeId src, PendingPtr msg) {
  if (world_->is_actuator(src)) {
    finish(src, msg);
    return;
  }
  const NodeId head = head_of(src);
  if (head < 0) {
    reattach_member(src, msg);
    return;
  }
  if (head == src) {
    send_via_head(head, msg);
    return;
  }
  // Member -> head: direct, or via one relay within the cluster radius.
  channel_->unicast(src, head, msg->bytes, EnergyBucket::kData,
                    [this, src, head, msg](bool ok) {
                      if (ok) {
                        ++msg->hops;
                        send_via_head(head, msg);
                        return;
                      }
                      // Try a relay towards the head.
                      NodeId relay = -1;
                      double best = std::numeric_limits<double>::infinity();
                      world_->visit_reachable(src, [&](NodeId r) {
                        if (!world_->can_reach(r, head)) return;
                        const double d = distance_sq(world_->position(r),
                                                     world_->position(head));
                        if (d < best) {
                          best = d;
                          relay = r;
                        }
                      });
                      if (relay < 0) {
                        reattach_member(src, msg);
                        return;
                      }
                      channel_->unicast(
                          src, relay, msg->bytes, EnergyBucket::kData,
                          [this, src, relay, head, msg](bool ok1) {
                            if (!ok1) {
                              reattach_member(src, msg);
                              return;
                            }
                            ++msg->hops;
                            channel_->unicast(
                                relay, head, msg->bytes, EnergyBucket::kData,
                                [this, src, head, msg](bool ok2) {
                                  if (!ok2) {
                                    reattach_member(src, msg);
                                    return;
                                  }
                                  ++msg->hops;
                                  send_via_head(head, msg);
                                });
                          });
                    });
}

void DDear::send_via_head(NodeId head, PendingPtr msg) {
  if (world_->is_actuator(head)) {
    finish(head, msg);
    return;
  }
  const auto it = head_paths_.find(head);
  if (it == head_paths_.end() || it->second.size() < 2) {
    repair_head_path(head, msg);
    return;
  }
  walk_head_path(head, 0, msg);
}

void DDear::walk_head_path(NodeId head, std::size_t hop_index,
                           PendingPtr msg) {
  const auto& path = head_paths_[head];
  if (hop_index + 1 >= path.size()) {
    finish(path.back(), msg);
    return;
  }
  channel_->unicast(path[hop_index], path[hop_index + 1], msg->bytes,
                    EnergyBucket::kData,
                    [this, head, hop_index, msg](bool ok) {
                      if (!ok) {
                        repair_head_path(head, msg);
                        return;
                      }
                      ++msg->hops;
                      walk_head_path(head, hop_index + 1, msg);
                    });
}

void DDear::repair_head_path(NodeId head, PendingPtr msg) {
  if (msg->retries_left-- <= 0) {
    drop(msg);
    return;
  }
  ++stats_.repairs;
  const NodeId actuator = world_->closest_actuator(head);
  if (actuator < 0 || !world_->alive(head)) {
    drop(msg);
    return;
  }
  flooder_->discover(
      head, actuator, config_.repair_ttl, EnergyBucket::kMaintenance,
      [this, head, msg](std::optional<std::vector<NodeId>> path) {
        if (!path) {
          drop(msg);
          return;
        }
        head_paths_[head] = *path;
        ++stats_.retransmissions;
        walk_head_path(head, 0, msg);  // retransmit from the head
      },
      config_.control_bytes, config_.repair_deadline_s);
}

void DDear::reattach_member(NodeId member, PendingPtr msg) {
  if (msg->retries_left-- <= 0) {
    drop(msg);
    return;
  }
  ++stats_.reattachments;
  // The member announces itself (one broadcast) and adopts the closest
  // reachable head; without one it becomes a self-head.
  channel_->broadcast(member, config_.control_bytes,
                      EnergyBucket::kMaintenance, nullptr);
  NodeId new_head = -1;
  double best = std::numeric_limits<double>::infinity();
  for (NodeId n : khop_neighborhood(member, config_.cluster_radius_hops)) {
    if (!is_head(n) || !world_->alive(n)) continue;
    const double d = distance_sq(world_->position(member),
                                 world_->position(n));
    if (d < best) {
      best = d;
      new_head = n;
    }
  }
  if (new_head < 0) {
    new_head = member;
    head_paths_.try_emplace(member);  // becomes a head, path found lazily
  }
  const auto mi = static_cast<std::size_t>(member);
  if (mi >= head_of_.size()) head_of_.resize(mi + 1, -1);
  head_of_[mi] = new_head;
  // Source retransmission after the re-attachment settles; the message
  // keeps its original timestamp and retry budget.
  ++stats_.retransmissions;
  sim_->schedule_in(0.01, [this, member, msg] { route_from_member(member, msg); });
}

void DDear::finish(NodeId actuator, PendingPtr msg) {
  ++stats_.delivered;
  Delivery d;
  d.delivered = true;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  d.actuator = actuator;
  if (msg->done) msg->done(d);
}

void DDear::drop(PendingPtr msg) {
  ++stats_.drops;
  Delivery d;
  d.delivered = false;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  if (msg->done) msg->done(d);
}

}  // namespace refer::baselines
