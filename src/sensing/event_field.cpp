#include "sensing/event_field.hpp"

#include <cmath>

namespace refer::sensing {

int EventField::add_event(Point position, double start_s, double duration_s,
                          double intensity) {
  const int id = static_cast<int>(events_.size());
  events_.push_back(Event{id, position, start_s, duration_s, intensity});
  return id;
}

void EventField::generate_poisson(const Rect& area,
                                  double mean_interarrival_s,
                                  double horizon_s, double duration_s,
                                  Rng& rng, double intensity) {
  double t = rng.exponential(mean_interarrival_s);
  while (t < horizon_s) {
    add_event({rng.uniform(area.lo.x, area.hi.x),
               rng.uniform(area.lo.y, area.hi.y)},
              t, duration_s, intensity);
    t += rng.exponential(mean_interarrival_s);
  }
}

std::vector<const Event*> EventField::active_at(double t) const {
  std::vector<const Event*> out;
  for (const Event& e : events_) {
    if (e.active_at(t)) out.push_back(&e);
  }
  return out;
}

namespace {

constexpr double kCertainRadiusM = 30;
constexpr double kMaxRadiusM = 80;
constexpr double kDecay = 3.0;  ///< steepness of the probability falloff

}  // namespace

double DetectionModel::probability(Point sensor, const Event& event) const {
  const double d = distance(sensor, event.position);
  const double certain = kCertainRadiusM * event.intensity;
  const double max = kMaxRadiusM * event.intensity;
  if (d <= certain) return 1.0;
  if (d >= max) return 0.0;
  // Exponential falloff from 1 at `certain` to ~0 at `max`.
  const double frac = (d - certain) / (max - certain);
  return std::exp(-kDecay * frac) * (1.0 - frac);
}

bool DetectionModel::detects(Rng& rng, Point sensor,
                             const Event& event) const {
  return rng.chance(probability(sensor, event));
}

double coverage_fraction(const Rect& region,
                         const std::vector<Point>& watchers,
                         double sensing_radius_m, Rng& rng, int samples) {
  if (samples <= 0) return 0;
  int covered = 0;
  for (int i = 0; i < samples; ++i) {
    const Point p{rng.uniform(region.lo.x, region.hi.x),
                  rng.uniform(region.lo.y, region.hi.y)};
    for (const Point& w : watchers) {
      if (within_range(p, w, sensing_radius_m)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / samples;
}

}  // namespace refer::sensing
