#include "sim/channel.hpp"

#include <algorithm>
#include <cassert>

#include "sim/telemetry.hpp"

namespace refer::sim {

namespace {

constexpr double kBandwidthBps = 2e6;     ///< IEEE 802.11 DSSS basic rate
constexpr double kMacOverheadS = 0.6e-3;  ///< DIFS + preamble + ACK exchange
constexpr double kAckTimeoutS = 5e-3;     ///< extra delay before reporting loss

}  // namespace

Channel::Channel(Simulator& sim, World& world, EnergyTracker& energy, Rng rng,
                 ChannelConfig config)
    : sim_(&sim),
      world_(&world),
      energy_(&energy),
      rng_(rng),
      config_(config),
      queue_wait_us_(sim.instruments().stats
                         ? &sim.instruments().stats->histogram(
                               "channel.queue_wait_us")
                         : nullptr) {}

double Channel::frame_time(std::size_t bytes) const noexcept {
  return kMacOverheadS + static_cast<double>(bytes) * 8.0 / kBandwidthBps;
}

Time Channel::reserve_tx_slot(NodeId node, double duration) {
  // Nodes may join the world after the channel was built; grow the
  // per-node medium state to cover the sender and every neighbour.
  if (busy_until_.size() < world_->size()) {
    busy_until_.resize(world_->size(), 0.0);
    airtime_.resize(world_->size(), 0.0);
  }
  const auto idx = static_cast<std::size_t>(node);
  airtime_[idx] += duration;
  stats_.total_airtime_s += duration;
  const Time start = std::max(sim_->now(), busy_until_[idx]);
  const Time end = start + duration;
  busy_until_[idx] = end;
  if (config_.mac == MacMode::kCsma) {
    // CSMA: the medium around the sender is occupied; in-range nodes defer.
    PhaseProfiler::Scope phase(sim_->instruments().phases,
                               Phase::kMediumScan);
    world_->visit_reachable(node, [this, end](NodeId n) {
      auto& busy = busy_until_[static_cast<std::size_t>(n)];
      busy = std::max(busy, end);
    });
  }
  return start;
}

void Channel::record_queue_wait(Time start) {
  const double us = (start - sim_->now()) * 1e6;
  if (queue_wait_us_) queue_wait_us_->record(us);
  if (TelemetryRecorder* telemetry = sim_->instruments().telemetry) {
    telemetry->on_queue_wait(sim_->now(), us);
  }
}

void Channel::unicast(NodeId from, NodeId to, std::size_t bytes,
                      EnergyBucket bucket, UnicastDone done) {
  assert(from != to);
  ++stats_.unicasts_sent;
  if (Tracer* tracer = active_tracer(*sim_)) {
    tracer->emit(frame_record(sim_->now(), TraceEvent::kUnicastQueued, from,
                              to, bytes, bucket));
  }
  if (!world_->alive(from)) {
    // A dead node cannot transmit; its pending sends vanish.  The trace
    // still records the failure -- trace_report's hop chains would
    // otherwise see a queued send with no outcome.
    ++stats_.unicasts_failed;
    if (Tracer* tracer = active_tracer(*sim_)) {
      tracer->emit(frame_record(sim_->now(), TraceEvent::kUnicastFailed,
                                from, to, 0, bucket));
    }
    if (done) sim_->schedule_in(kAckTimeoutS, [done] { done(false); });
    return;
  }
  const double airtime =
      frame_time(bytes) + rng_.uniform(0.0, config_.max_jitter_s);
  const Time start = reserve_tx_slot(from, airtime);
  record_queue_wait(start);
  const Time deliver_at = start + airtime;
  const bool lost = rng_.chance(config_.loss_probability);
  sim_->schedule_tagged(deliver_at, "channel.unicast",
                        [this, from, to, bucket, lost,
                         done = std::move(done)] {
    // TX energy is spent whether or not the frame arrives.
    energy_->charge_tx(static_cast<std::size_t>(from), bucket);
    const bool ok = !lost && world_->can_reach(from, to);
    if (Tracer* tracer = active_tracer(*sim_)) {
      tracer->emit(frame_record(sim_->now(),
                                ok ? TraceEvent::kUnicastDelivered
                                   : TraceEvent::kUnicastFailed,
                                from, to, 0, bucket));
    }
    if (ok) {
      energy_->charge_rx(static_cast<std::size_t>(to), bucket);
      ++stats_.unicasts_delivered;
      if (done) done(true);
    } else {
      ++stats_.unicasts_failed;
      if (done) {
        sim_->schedule_in(kAckTimeoutS, [done] { done(false); });
      }
    }
  });
}

void Channel::broadcast(NodeId from, std::size_t bytes, EnergyBucket bucket,
                        ReceiveFn on_receive, double range_override) {
  ++stats_.broadcasts_sent;
  if (!world_->alive(from)) return;
  if (Tracer* tracer = active_tracer(*sim_)) {
    tracer->emit(frame_record(sim_->now(), TraceEvent::kBroadcast, from, -1,
                              bytes, bucket));
  }
  const double airtime =
      frame_time(bytes) + rng_.uniform(0.0, config_.max_jitter_s);
  const Time start = reserve_tx_slot(from, airtime);
  record_queue_wait(start);
  sim_->schedule_tagged(start + airtime, "channel.broadcast",
                        [this, from, bucket, range_override,
                         on_receive = std::move(on_receive)] {
    energy_->charge_tx(static_cast<std::size_t>(from), bucket);
    // Materialise the receiver set before invoking handlers: on_receive may
    // re-enter the channel (a flood hop starts the next broadcast), and the
    // lease keeps the buffer safe across that re-entry without allocating.
    ScratchPool::Lease lease = world_->lease_scratch();
    std::vector<NodeId>& receivers = *lease;
    world_->visit_reachable(
        from, [&receivers](NodeId r) { receivers.push_back(r); },
        range_override);
    for (NodeId r : receivers) {
      energy_->charge_rx(static_cast<std::size_t>(r), bucket);
      ++stats_.broadcast_receptions;
      if (on_receive) on_receive(r);
    }
  });
}

double Channel::node_airtime_s(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node);
  return idx < airtime_.size() ? airtime_[idx] : 0.0;
}

std::vector<std::pair<NodeId, double>> Channel::busiest_nodes(
    std::size_t top) const {
  std::vector<std::pair<NodeId, double>> all;
  for (std::size_t i = 0; i < airtime_.size(); ++i) {
    if (airtime_[i] > 0) all.emplace_back(static_cast<NodeId>(i), airtime_[i]);
  }
  // Only the top slice is reported (this runs per telemetry tick), so a
  // full sort of every active node is wasted work.  Ties break toward
  // the lower id -- a total order, so the result never depends on the
  // selection algorithm.
  const auto hotter = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (all.size() > top) {
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(top),
                      all.end(), hotter);
    all.resize(top);
  } else {
    std::sort(all.begin(), all.end(), hotter);
  }
  return all;
}

}  // namespace refer::sim
