// The sensing substrate: physical events appearing in the field, a
// probabilistic disc detection model, and coverage analysis.
//
// The paper's workload is "sensors detect events and report them to
// nearby actuators"; this module gives that sentence precise semantics:
// events are spatio-temporal points, detection follows the classic
// certain/decay disc model, and coverage_fraction() quantifies the
// paper's premise that the awake/sleep scheme must "ensure the coverage"
// (SI, SIII-B4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace refer::sensing {

/// A physical phenomenon (fire ignition, intruder sighting, chemical
/// release) localised in space and time.
struct Event {
  int id = 0;
  Point position{};
  double start_s = 0;
  double duration_s = 0;
  double intensity = 1.0;  ///< scales the detectable radius

  [[nodiscard]] bool active_at(double t) const noexcept {
    return t >= start_s && t < start_s + duration_s;
  }
};

/// A scripted or randomly generated collection of events.
class EventField {
 public:
  /// Adds one scripted event; returns its id.
  int add_event(Point position, double start_s, double duration_s,
                double intensity = 1.0);

  /// Adds Poisson-arrival events uniformly over `area` until `horizon_s`,
  /// with the given mean inter-arrival time.
  void generate_poisson(const Rect& area, double mean_interarrival_s,
                        double horizon_s, double duration_s, Rng& rng,
                        double intensity = 1.0);

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// Events active at time t.
  [[nodiscard]] std::vector<const Event*> active_at(double t) const;

 private:
  std::vector<Event> events_;
};

/// Probabilistic disc sensing: detection is certain within
/// 30 m * intensity, impossible beyond 80 m * intensity, and decays
/// exponentially in between.
class DetectionModel {
 public:
  /// Probability that a sensor at `sensor` detects `event` per sample.
  [[nodiscard]] double probability(Point sensor, const Event& event) const;

  /// One detection sample.
  [[nodiscard]] bool detects(Rng& rng, Point sensor,
                             const Event& event) const;
};

/// Monte-Carlo coverage: the fraction of `region` within certain-detection
/// range of at least one of `watchers` (awake sensor positions), using
/// `samples` uniform sample points.
[[nodiscard]] double coverage_fraction(const Rect& region,
                                       const std::vector<Point>& watchers,
                                       double sensing_radius_m, Rng& rng,
                                       int samples = 2000);

}  // namespace refer::sensing
