#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/json_doc.hpp"
#include "runner/results_writer.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

namespace {

using refer::analysis::JsonNode;

constexpr std::array<std::string_view, 3> kExcludedKeys{
    "wall_ms", "phase_us", "phase_total_us"};
constexpr std::array<std::string_view, 2> kExcludedEntryPrefixes{
    "world.grid.", "world.neighbor_cache."};

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void text(std::string_view s) {
    bytes(s.data(), s.size());
    const char end = '\0';
    bytes(&end, 1);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

bool excluded_entry(const JsonNode& node) {
  if (!node.is_object()) return false;
  const JsonNode* name = node.find("name");
  const std::string* s = name ? name->string_or_null() : nullptr;
  if (!s) return false;
  return std::any_of(kExcludedEntryPrefixes.begin(),
                     kExcludedEntryPrefixes.end(),
                     [&](std::string_view p) { return s->starts_with(p); });
}

void feed(Fnv1a& h, const JsonNode& node) {
  const char kind = static_cast<char>('0' + static_cast<int>(node.kind));
  h.bytes(&kind, 1);
  switch (node.kind) {
    case JsonNode::Kind::kNull: break;
    case JsonNode::Kind::kBool: h.bytes(&node.boolean, 1); break;
    case JsonNode::Kind::kNumber: {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &node.number, sizeof bits);
      h.bytes(&bits, sizeof bits);
      break;
    }
    case JsonNode::Kind::kString: h.text(node.str); break;
    case JsonNode::Kind::kArray:
      for (const JsonNode& item : node.items) {
        if (!excluded_entry(item)) feed(h, item);
      }
      break;
    case JsonNode::Kind::kObject:
      for (const auto& [key, value] : node.members) {
        if (std::find(kExcludedKeys.begin(), kExcludedKeys.end(), key) !=
            kExcludedKeys.end()) {
          continue;
        }
        h.text(key);
        feed(h, value);
      }
      break;
  }
}

}  // namespace

std::uint64_t job_digest(const refer::harness::JobRecord& job) {
  refer::runner::ResultsWriter writer;
  writer.add_records({job});
  const std::optional<JsonNode> doc =
      refer::analysis::parse_json_doc(writer.to_json());
  const JsonNode* jobs = doc ? doc->find("jobs_run") : nullptr;
  if (!jobs || !jobs->is_array() || jobs->items.size() != 1) {
    throw std::runtime_error("job_digest: results document has no job record");
  }
  Fnv1a h;
  feed(h, jobs->items.front());
  return h.value();
}

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

namespace {

/// `events` rounds of: pop the earliest event, read two nodes' state,
/// compute their distance, and schedule the next event.  The node count
/// sets the working set: 2^16 nodes (~1.3 MiB) stays in cache, 2^21
/// nodes (~40 MiB) misses to memory on most reads.
double probe_kernel(std::uint32_t nodes, int events) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {  // xorshift64
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const Stopwatch sw;
  std::vector<double> x(nodes), y(nodes);
  std::vector<std::uint32_t> peer(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    x[i] = static_cast<double>(next() % 50000) / 100.0;
    y[i] = static_cast<double>(next() % 50000) / 100.0;
    peer[i] = static_cast<std::uint32_t>(next() % nodes);
  }
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    queue.emplace(static_cast<double>(next() % 1000), i);
  }
  double acc = 0;
  std::vector<std::uint32_t> near;
  for (int e = 0; e < events; ++e) {
    const auto [t, n] = queue.top();
    queue.pop();
    const std::uint32_t m = peer[n];
    const double dx = x[n] - x[m];
    const double dy = y[n] - y[m];
    const double d = std::sqrt(dx * dx + dy * dy);
    if (d < 100) {
      acc += d;
      near.push_back(m);
    } else {
      peer[n] = static_cast<std::uint32_t>(next() % nodes);
    }
    if (near.size() == 64) {
      const std::vector<std::uint32_t> batch(near.rbegin(), near.rend());
      acc += batch.front();
      near.clear();
    }
    queue.emplace(t + 1.0 + static_cast<double>(next() % 1024) / 64.0, m);
  }
  const double seconds = sw.seconds();
  static volatile double sink = 0;
  sink = acc;
  return seconds;
}

}  // namespace

double probe_seconds() {
  // Set-up passes (deployment, topology construction) slow down with the
  // cache-resident half, traffic-heavy passes with the memory-bound half;
  // their sum tracked both on a shared 4-vCPU host.
  return probe_kernel(1u << 16, 400000) + probe_kernel(1u << 21, 200000);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
