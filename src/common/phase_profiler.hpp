// Wall-clock attribution by subsystem phase.
//
// A PhaseProfiler owns one cumulative wall-time account per Phase; hot
// paths open a PhaseProfiler::Scope around their work and the destructor
// charges the elapsed steady-clock nanoseconds to that phase.  A run has
// one, in its simulator's sim::Instruments, which every instrumented
// layer reads.  Unlike the kernel event profile
// (sim::Instruments::profile_events, which histograms per-event wall
// time by scheduling tag), this answers the macro question "where does
// the wall clock go" -- e.g. "68% of wall time is the CSMA medium scan
// at saturation" -- and the telemetry recorder (sim/telemetry.hpp)
// snapshots the accounts at every bucket boundary so the attribution is
// *time-resolved* over the run.
//
// Scopes nest *inclusively*: a spatial-index query inside the medium
// scan charges both kSpatialQuery and kMediumScan, so the accounts are
// each phase's total footprint, not an exclusive partition (the report
// side documents this).  A disabled profiler (or a nullptr) costs one
// branch per scope; enabled, two steady_clock reads.
//
// Wall-clock numbers are inherently nondeterministic: everything a
// PhaseProfiler measures is kept OUT of the fields covered by the
// serial-vs-parallel and engine-equivalence bit-identity contracts
// (results land only under the timeseries "phase_us" / "phase_total_us"
// keys, which exist only when Scenario::phase_profile is on).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace refer {

/// The instrumented subsystem phases (docs/ARCHITECTURE.md, "Telemetry &
/// wall-clock attribution").
enum class Phase : int {
  kKernelDispatch = 0,  ///< sim::Simulator event execution (outermost)
  kMediumScan,          ///< Channel::reserve_tx_slot CSMA neighbourhood defer
  kRoutingDecide,       ///< ReferRouter next-hop / Theorem 3.8 decisions
  kFlooding,            ///< net::Flooder query handling + rebroadcasts
  kSpatialQuery,        ///< World::reachable / closest_actuator
};
inline constexpr int kPhaseCount = 5;

/// Stable lower_snake_case name used as the JSON key ("medium_scan", ...).
[[nodiscard]] const char* to_string(Phase phase) noexcept;

class PhaseProfiler {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Cumulative wall nanoseconds charged to `phase` so far.
  [[nodiscard]] std::uint64_t total_ns(Phase phase) const noexcept {
    return ns_[static_cast<std::size_t>(phase)];
  }
  /// Number of scopes that charged `phase`.
  [[nodiscard]] std::uint64_t count(Phase phase) const noexcept {
    return counts_[static_cast<std::size_t>(phase)];
  }

  /// RAII scope: charges elapsed wall time to `phase` on destruction.
  /// `profiler` may be nullptr (or disabled) -- then the scope is free
  /// apart from one branch.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, Phase phase) noexcept : phase_(phase) {
      if (profiler && profiler->enabled()) {
        profiler_ = profiler;
        t0_ = std::chrono::steady_clock::now();
      }
    }
    ~Scope() {
      if (profiler_) {
        const auto dt = std::chrono::steady_clock::now() - t0_;
        profiler_->charge(
            phase_,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()));
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* profiler_ = nullptr;
    Phase phase_;
    std::chrono::steady_clock::time_point t0_;
  };

 private:
  void charge(Phase phase, std::uint64_t ns) noexcept {
    ns_[static_cast<std::size_t>(phase)] += ns;
    ++counts_[static_cast<std::size_t>(phase)];
  }

  bool enabled_ = false;
  std::array<std::uint64_t, kPhaseCount> ns_{};
  std::array<std::uint64_t, kPhaseCount> counts_{};
};

}  // namespace refer
