#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/stats_registry.hpp"

namespace refer::sim {

/// std::*_heap comparator: "less" sorts the (at, seq)-minimum to the
/// front of the max-heap.  `slot` takes no part: it says where an event
/// is stored, not when it runs.
struct Simulator::RunsLater {
  bool operator()(const Key& a, const Key& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
  static_assert(sizeof(Key) == 24, "a sift moves 24-byte keys");
};

void Simulator::schedule_event(Time at, const char* tag, EventClosure fn) {
  assert(at >= now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    assert(closures_.size() < UINT32_MAX);
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
    tags_.push_back(tag);
    free_slots_.reserve(closures_.capacity());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    closures_[slot] = std::move(fn);
    tags_[slot] = tag;
  }
  keys_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(keys_.begin(), keys_.end(), RunsLater{});
  if (keys_.size() > peak_pending_) peak_pending_ = keys_.size();
}

Histogram* Simulator::profile_histogram(const char* tag) {
  if (profile_registry_ != instruments_.stats) {  // the context was refilled
    profile_cache_.clear();
    profile_registry_ = instruments_.stats;
  }
  for (const auto& [t, h] : profile_cache_) {
    if (t == tag) return h;
  }
  Histogram* h = &profile_registry_->histogram(
      std::string("sim.event_us.") + (tag ? tag : "other"));
  profile_cache_.emplace_back(tag, h);
  return h;
}

void Simulator::run_next() {
  assert(!keys_.empty());
  std::pop_heap(keys_.begin(), keys_.end(), RunsLater{});
  const Key key = keys_.back();
  keys_.pop_back();
  // Move the closure out and free its slot before running it: the
  // closure may schedule, which may reuse the slot or grow the slab.
  EventClosure fn = std::move(closures_[key.slot]);
  const char* tag = tags_[key.slot];
  free_slots_.push_back(key.slot);
  now_ = key.at;
  ++executed_;
  // Wall-clock attribution: every executed event charges the kernel
  // dispatch phase (inclusive of the subsystem phases it nests).
  PhaseProfiler::Scope phase(instruments_.phases, Phase::kKernelDispatch);
  if (instruments_.profile_events && instruments_.stats) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    profile_histogram(tag)->record(us);
  } else {
    fn();
  }
}

void Simulator::run_until(Time until) {
  while (!keys_.empty() && keys_.front().at <= until) run_next();
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (!keys_.empty()) run_next();
}

bool Simulator::step() {
  if (keys_.empty()) return false;
  run_next();
  return true;
}

}  // namespace refer::sim
