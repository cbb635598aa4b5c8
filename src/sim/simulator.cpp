#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "common/stats_registry.hpp"

namespace refer::sim {
namespace {

/// std::*_heap comparator: "less" sorts the (at, seq)-minimum to the
/// front of the max-heap.
struct RunsLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

void Simulator::schedule_event(Time at, const char* tag, EventClosure fn) {
  assert(at >= now_);
  heap_.push_back(Event{at, next_seq_++, tag, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), RunsLater{});
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

Event Simulator::pop_event() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), RunsLater{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void Simulator::set_profiler(StatsRegistry* registry) {
  profiler_ = registry;
  profile_cache_.clear();
}

Histogram* Simulator::profile_histogram(const char* tag) {
  for (const auto& [t, h] : profile_cache_) {
    if (t == tag) return h;
  }
  Histogram* h = &profiler_->histogram(
      std::string("sim.event_us.") + (tag ? tag : "other"));
  profile_cache_.emplace_back(tag, h);
  return h;
}

void Simulator::execute(Event& ev) {
  now_ = ev.at;
  ++executed_;
  // Wall-clock attribution: every executed event charges the kernel
  // dispatch phase (inclusive of the subsystem phases it nests).
  PhaseProfiler::Scope phase(phase_profiler_, Phase::kKernelDispatch);
  if (profiler_) {
    const auto t0 = std::chrono::steady_clock::now();
    ev.fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    profile_histogram(ev.tag)->record(us);
  } else {
    ev.fn();
  }
}

void Simulator::run_until(Time until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    // Pop before executing: the event may schedule more events.
    Event ev = pop_event();
    execute(ev);
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (!heap_.empty()) {
    Event ev = pop_event();
    execute(ev);
  }
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  Event ev = pop_event();
  execute(ev);
  return true;
}

}  // namespace refer::sim
