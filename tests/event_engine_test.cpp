// Event-engine tests: the allocation-free scheduling core
// (sim/event_closure.hpp, sim/simulator.hpp) and the kernel's ordering
// contract.
//
// Four layers:
//   - Closure storage: every capture lives in EventClosure's inline
//     buffer, and one over 64 bytes cannot construct an EventClosure (a
//     compile-time check; every schedule call in the codebase is checked
//     the same way when it compiles).
//   - Kernel semantics: FIFO order for equal timestamps, inclusive
//     run_until, and zero steady-state heap allocations -- counted by a
//     global operator new hook.
//   - Kernel order: every event runs exactly once, in non-decreasing
//     (time, seq) order, on seeded streams shaped like the harness's
//     traffic grid, and end to end on a run whose sends land on that
//     grid.
//   - Closure slab: a closure that grows the slab while it runs is not
//     run from its (relocated) slot, every capture is destroyed exactly
//     once, and a reused slot never decides the order.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats_registry.hpp"
#include "harness/experiment.hpp"
#include "sim/event_closure.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting hooks for the zero-allocation assertions.  Only counts; all
// storage still comes from the default heap.
void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace refer {
namespace {

using sim::EventClosure;
using sim::Simulator;

template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load();
  body();
  return g_heap_allocs.load() - before;
}

// ---------------------------------------------------------------------
// Closure storage.
// ---------------------------------------------------------------------

struct BigCapture {
  unsigned char blob[96];  // > kInlineSize
  std::uint64_t* sink;
  void operator()() const { *sink += blob[0]; }
};
static_assert(!EventClosure::fits_inline<BigCapture>());
static_assert(!std::is_constructible_v<EventClosure, BigCapture>,
              "an oversized capture must not compile");

TEST(EventClosure, InlineStorageInvokesAndMoves) {
  std::uint64_t hits = 0;

  EventClosure closure([&hits] { ++hits; });
  closure();
  EXPECT_EQ(hits, 1u);

  // Move keeps the closure callable and the source disengaged.
  EventClosure moved(std::move(closure));
  EXPECT_FALSE(static_cast<bool>(closure));
  moved();
  EXPECT_EQ(hits, 2u);

  EventClosure assigned;
  EXPECT_FALSE(static_cast<bool>(assigned));
  assigned = std::move(moved);
  EXPECT_FALSE(static_cast<bool>(moved));
  assigned();
  EXPECT_EQ(hits, 3u);
}

// ---------------------------------------------------------------------
// Kernel semantics.
//
// These cases were pinned once per queue engine while the kernel had two
// (a calendar queue and a binary heap).  The kernel now has only the
// heap; both instances run on it and keep their per-engine names, so the
// suite's test names stay stable across the engine's removal.
// ---------------------------------------------------------------------

enum class FormerEngine { kCalendar, kLegacyHeap };

class EventEngineTest : public ::testing::TestWithParam<FormerEngine> {};

INSTANTIATE_TEST_SUITE_P(BothEngines, EventEngineTest,
                         ::testing::Values(FormerEngine::kCalendar,
                                           FormerEngine::kLegacyHeap),
                         [](const auto& info) {
                           return info.param == FormerEngine::kCalendar
                                      ? "Calendar"
                                      : "LegacyHeap";
                         });

TEST_P(EventEngineTest, EqualTimestampsRunInSchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  // Two equal-time cohorts, scheduled interleaved with other times, so
  // the seq tiebreak is exercised within and across pushes.
  for (int i = 0; i < 16; ++i) simulator.schedule_at(2.0, [&order, i] { order.push_back(i); });
  simulator.schedule_at(1.0, [&order] { order.push_back(100); });
  for (int i = 16; i < 32; ++i) simulator.schedule_at(2.0, [&order, i] { order.push_back(i); });
  simulator.run_all();

  ASSERT_EQ(order.size(), 33u);
  EXPECT_EQ(order.front(), 100);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST_P(EventEngineTest, RunUntilIsInclusiveOfTheBoundary) {
  Simulator simulator;
  std::vector<int> ran;
  simulator.schedule_at(5.0, [&ran] { ran.push_back(0); });  // exactly at `until`
  simulator.schedule_at(5.0 + 1e-9, [&ran] { ran.push_back(1); });
  simulator.run_until(5.0);
  EXPECT_EQ(ran, std::vector<int>{0});
  EXPECT_EQ(simulator.now(), 5.0);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run_all();
  EXPECT_EQ(ran.size(), 2u);
}

TEST_P(EventEngineTest, StepExecutesExactlyOneEvent) {
  Simulator simulator;
  int runs = 0;
  simulator.schedule_at(1.0, [&runs] { ++runs; });
  simulator.schedule_at(2.0, [&runs] { ++runs; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_FALSE(simulator.step());
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(simulator.events_executed(), 2u);
}

/// 56-byte self-rescheduling timer, the steady-state kernel workload.
struct HoldTimer {
  Simulator* simulator;
  Rng rng;
  double mean;
  std::uint64_t pad = 0;

  void operator()() {
    simulator->schedule_in(rng.exponential(mean), HoldTimer(*this));
  }
};
static_assert(EventClosure::fits_inline<HoldTimer>());

TEST_P(EventEngineTest, SteadyStateSchedulingIsAllocationFree) {
  Simulator simulator;
  Rng seeder(11);
  for (int i = 0; i < 256; ++i) {
    simulator.schedule_in(seeder.uniform(0, 2.0),
                          HoldTimer{&simulator, seeder.split(), 1.0});
  }
  // Warm up: the heap's capacity reaches its steady state before the
  // measured window.
  for (int i = 0; i < 100000; ++i) simulator.step();

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 5000; ++i) simulator.step();
  });
  EXPECT_EQ(allocs, 0u)
      << "schedule_tagged + step must not allocate at steady state";
}

TEST_P(EventEngineTest, ProfilerHistogramHitPathDoesNotAllocate) {
  Simulator simulator;
  StatsRegistry registry;
  simulator.instruments().stats = &registry;
  simulator.instruments().profile_events = true;
  // First tagged event creates "sim.event_us.hot" (allocates once).
  simulator.schedule_in_tagged(0.1, "hot", [] {});
  simulator.schedule_in(0.2, [] {});  // warms "sim.event_us.other" too
  simulator.run_all();

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_in_tagged(0.1, "hot", [] {});
      simulator.step();
    }
  });
  EXPECT_EQ(allocs, 0u) << "tag cache hit + Histogram::record must be free";
  EXPECT_EQ(registry.histogram("sim.event_us.hot").count(), 1001u);
}

// ---------------------------------------------------------------------
// Kernel order.
// ---------------------------------------------------------------------

/// One seeded stream shaped like the harness's traffic: rounds start on
/// multiples of 5 s, and each round event schedules its sources' sends at
/// round_start + j / pps over 10 s, all at once -- so sends sit on a fixed
/// grid, often exactly on a round boundary.  Each send also schedules a
/// short follow-up (its frame delivery).  Every schedule call is mirrored
/// here, so `next_seq` tracks the kernel's insertion sequence.
struct GridStream {
  Simulator simulator;
  Rng rng;
  std::uint64_t next_seq = 0;
  std::vector<int> runs;  ///< per seq: how often the event ran
  double last_at = -1;
  std::uint64_t last_seq = 0;
  std::string error;

  explicit GridStream(std::uint64_t seed) : rng(seed) {}

  void post(double at) {
    const std::uint64_t seq = next_seq++;
    runs.push_back(0);
    simulator.schedule_at(at, [this, at, seq] { on_event(at, seq); });
  }

  void on_event(double at, std::uint64_t seq) {
    ++runs[seq];
    const bool in_order =
        at > last_at || (at == last_at && seq > last_seq);
    if (error.empty() && (!in_order || simulator.now() != at)) {
      error = "popped (" + std::to_string(at) + ", seq " +
              std::to_string(seq) + ") after (" + std::to_string(last_at) +
              ", seq " + std::to_string(last_seq) + ")";
    }
    last_at = at;
    last_seq = seq;
  }

  void round(double start, int rounds_left, double period) {
    const std::uint64_t seq = next_seq++;
    runs.push_back(0);
    simulator.schedule_at(start, [this, start, seq, rounds_left, period] {
      on_event(start, seq);
      const int sources = 1 + static_cast<int>(rng.below(8));
      for (int s = 0; s < sources; ++s) {
        const double gap = 1.0 / (rng.chance(0.5) ? 40.0 : 80.0);
        const int count = static_cast<int>(10.0 / gap);
        for (int j = 0; j < count; ++j) {
          const double at = start + j * gap;
          post(at);
          if (rng.chance(0.5)) post(at + rng.uniform(0.001, 0.02));
        }
      }
      if (rounds_left > 1) round(start + period, rounds_left - 1, period);
    });
  }
};

TEST(KernelOrder, HarnessShapedStreamsRunEveryEventOnceInTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    GridStream stream(seed);
    const double period = stream.rng.chance(0.5) ? 5.0 : 10.0;
    const double first = 5.0 * static_cast<double>(stream.rng.below(4));
    stream.round(first, 2 + static_cast<int>(stream.rng.below(3)), period);
    stream.simulator.run_all();

    ASSERT_EQ(stream.error, "") << "seed=" << seed;
    ASSERT_EQ(stream.simulator.events_executed(), stream.next_seq)
        << "seed=" << seed;
    for (std::size_t seq = 0; seq < stream.runs.size(); ++seq) {
      ASSERT_EQ(stream.runs[seq], 1) << "seed=" << seed << " seq=" << seq;
    }
  }
}

TEST(KernelOrder, EverySendOnTheRoundGridRunsEndToEnd) {
  // This seed's send grid puts one round's sends exactly on the slice
  // boundaries where a calendar queue's year scan stranded them (it sent
  // 3995).  All 5 sources x 40 pps x 20 s must be sent.
  harness::Scenario sc;
  sc.warmup_s = 10;
  sc.measure_s = 20;
  sc.packets_per_second = 40;
  sc.seed = 13739094096181386462ULL;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kKautzOverlay, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_EQ(m.packets_sent, 4000u);
}

// ---------------------------------------------------------------------
// Closure slab: the heap orders keys by (at, seq), each key names a slab
// slot, and each pending closure sits in its slot until its pop moves it
// out.
// ---------------------------------------------------------------------

/// A capture that notes being moved after its closure started running.
/// The kernel must move a closure out of its slot before running it: a
/// closure run in place is relocated under itself when the slab grows.
struct MoveProbe {
  bool* running;
  bool* moved_while_running;

  MoveProbe(bool* r, bool* m) : running(r), moved_while_running(m) {}
  MoveProbe(MoveProbe&& other) noexcept
      : running(other.running),
        moved_while_running(other.moved_while_running) {
    if (*running) *moved_while_running = true;
  }
  MoveProbe& operator=(MoveProbe&&) = delete;
};

TEST(KernelSlab, ClosureThatGrowsTheSlabRunsEveryEventOnceInOrder) {
  Simulator simulator;
  std::vector<std::pair<double, int>> ran;  // (at, scheduling index)
  bool running = false;
  bool moved_while_running = false;
  simulator.schedule_at(
      1.0, [&simulator, &ran,
            probe = MoveProbe(&running, &moved_while_running)] {
        *probe.running = true;
        // The slab has one slot (this event's); 1000 more grow it about
        // ten times while this closure runs.
        for (int i = 0; i < 1000; ++i) {
          const double at = 1.0 + (i % 7);
          simulator.schedule_at(at,
                                [&ran, at, i] { ran.emplace_back(at, i); });
        }
      });
  simulator.run_all();

  EXPECT_FALSE(moved_while_running)
      << "the running closure was relocated under itself";
  ASSERT_EQ(ran.size(), 1000u);
  // Scheduling order is seq order, so (at, index) must strictly rise;
  // with 1000 entries over 1000 indices each one ran exactly once.
  for (std::size_t k = 1; k < ran.size(); ++k) {
    ASSERT_LT(ran[k - 1], ran[k]) << "k=" << k;
  }
}

/// Records how often each live (not moved-from) capture is destroyed.
struct CountedCapture {
  std::vector<int>* destroyed;
  int id;
  bool live = true;

  CountedCapture(std::vector<int>* d, int i) : destroyed(d), id(i) {}
  CountedCapture(CountedCapture&& other) noexcept
      : destroyed(other.destroyed), id(other.id), live(other.live) {
    other.live = false;
  }
  CountedCapture& operator=(CountedCapture&&) = delete;
  ~CountedCapture() {
    if (live) ++(*destroyed)[static_cast<std::size_t>(id)];
  }
};

TEST(KernelSlab, EveryCaptureIsDestroyedExactlyOnce) {
  // 64 events at t = 0..63; each schedules two more at now + 100, which
  // are still pending when the simulator goes away.
  std::vector<int> destroyed(64 * 3, 0);
  {
    Simulator simulator;
    for (int i = 0; i < 64; ++i) {
      simulator.schedule_at(
          i, [&simulator, &destroyed, c = CountedCapture(&destroyed, i)] {
            for (int j = 1; j <= 2; ++j) {
              simulator.schedule_in(
                  100, [c2 = CountedCapture(&destroyed, c.id + 64 * j)] {});
            }
          });
    }
    simulator.run_until(63.5);
    ASSERT_EQ(simulator.events_executed(), 64u);
    ASSERT_EQ(simulator.pending(), 128u);
    for (int i = 0; i < 64 * 3; ++i) {
      EXPECT_EQ(destroyed[static_cast<std::size_t>(i)], i < 64 ? 1 : 0)
          << "id=" << i << " before the simulator is destroyed";
    }
  }
  for (int i = 0; i < 64 * 3; ++i) {
    EXPECT_EQ(destroyed[static_cast<std::size_t>(i)], 1) << "id=" << i;
  }
}

TEST(KernelSlab, ReusedSlotDoesNotOrderEvents) {
  Simulator simulator;
  std::string order;
  // Slot 0.  Its pop frees slot 0, and the t = 2 event it schedules
  // reuses that slot, while the older t = 2 event waits in slot 1.
  simulator.schedule_at(1.0, [&simulator, &order] {
    simulator.schedule_at(2.0, [&order] { order += "newer "; });
  });
  simulator.schedule_at(2.0, [&order] { order += "older "; });  // slot 1
  simulator.run_all();
  EXPECT_EQ(order, "older newer ");
}

// ---------------------------------------------------------------------
// Buffered trace sink.
// ---------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(JsonlTraceBuffering, RecordsBatchUntilFlushMakesThemVisible) {
  const std::string path = ::testing::TempDir() + "buffered_trace.jsonl";
  sim::JsonlTraceWriter writer(path);
  sim::TraceRecord record;
  record.t = 1.5;
  record.event = sim::TraceEvent::kPacketSent;
  record.from = 3;
  record.to = 4;
  record.packet = 7;
  record.at_label = "01\"2";  // exercises escaping through the batch path
  for (int i = 0; i < 10; ++i) writer(record);

  // Under kBatchBytes nothing reaches the file until a flush.
  EXPECT_EQ(slurp(path), "");
  writer.flush();
  const std::string bytes = slurp(path);
  EXPECT_EQ(writer.records_written(), 10u);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(bytes.begin(), bytes.end(), '\n')),
            10u);
  EXPECT_NE(bytes.find("\"at\":\"01\\\"2\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace refer
