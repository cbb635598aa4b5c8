#include "refer/system.hpp"

namespace refer::core {

ReferSystem::ReferSystem(sim::Simulator& sim, sim::World& world,
                         sim::Channel& channel, sim::EnergyTracker& energy,
                         Rng rng, ReferConfig config)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      flooder_(sim, world, channel),
      embedding_(sim, world, channel, flooder_, energy, config.embedding),
      config_(config) {
  router_ = std::make_unique<ReferRouter>(sim, world, channel,
                                          embedding_.topology(),
                                          config.router, rng.split());
  router_->set_flooder(&flooder_);
  maintenance_ = std::make_unique<MaintenanceProtocol>(
      sim, world, channel, energy, embedding_.topology(), rng.split());
}

void ReferSystem::build(std::function<void(bool)> done) {
  if (config_.use_oracle_embedding) {
    const bool ok = oracle_embed(*world_, *channel_, embedding_.topology(),
                                 config_.oracle);
    // Let the notification frames drain before reporting readiness.
    sim_->schedule_in(0.5, [this, ok, done = std::move(done)] {
      ready_ = ok;
      if (ok) router_->emit_trace_header();
      if (ok && config_.run_maintenance) maintenance_->start();
      if (done) done(ok);
    });
    return;
  }
  embedding_.run([this, done = std::move(done)](bool ok) {
    ready_ = ok;
    if (ok) router_->emit_trace_header();
    if (ok && config_.run_maintenance) maintenance_->start();
    if (done) done(ok);
  });
}

void ReferSystem::send_to_actuator(NodeId src, std::size_t bytes,
                                   ReferRouter::DeliveryFn done) {
  router_->send_to_actuator(src, bytes, std::move(done));
}

void ReferSystem::send_to(NodeId src, FullId dst, std::size_t bytes,
                          ReferRouter::DeliveryFn done) {
  router_->send_to(src, dst, bytes, std::move(done));
}

NodeId ReferSystem::random_active_sensor(Rng& rng) const {
  auto active = topology().active_sensors();
  if (active.empty()) return -1;
  std::sort(active.begin(), active.end());
  return active[rng.below(active.size())];
}

}  // namespace refer::core
