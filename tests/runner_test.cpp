// Tests for the execution engine: ThreadPool semantics, parallel/serial
// sweep equivalence (bit-for-bit), the JSON writer, structured results
// export, and thread-safe logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "runner/json.hpp"
#include "runner/parallel_executor.hpp"
#include "runner/results_writer.hpp"
#include "runner/thread_pool.hpp"

namespace refer::runner {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  auto a = pool.submit([] { return 21 * 2; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, OrderingIndependence) {
  // 200 tasks writing disjoint slots: the result cannot depend on which
  // worker ran which task or in what order.
  constexpr int kTasks = 200;
  std::vector<int> slots(kTasks, -1);
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([&slots, i] { slots[static_cast<std::size_t>(i)] = i * i; }));
    }
    for (auto& f : futures) f.get();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW(
      {
        try {
          f.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "job failed");
          throw;
        }
      },
      std::runtime_error);
  // The worker survives the throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  constexpr int kTasks = 32;
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);  // single worker => most tasks still queued ...
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
      }));
    }
  }  // ... when the destructor runs: it must finish them, not drop them
  EXPECT_EQ(completed.load(), kTasks);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_GE(resolve_jobs(0), 1);   // "all cores"
  EXPECT_GE(resolve_jobs(-1), 1);
}

TEST(Json, WritesNestedDocumentWithEscapes) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "line\n\"quoted\"");
  w.kv("pi", 0.5);
  w.kv("n", std::uint64_t{18446744073709551615ULL});
  w.kv("neg", std::int64_t{-3});
  w.kv("flag", true);
  w.key("xs");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(w.str(),
            "{\"name\":\"line\\n\\\"quoted\\\"\",\"pi\":0.5,"
            "\"n\":18446744073709551615,\"neg\":-3,\"flag\":true,"
            "\"xs\":[1,2.5,null]}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---------------------------------------------------------------------
// Parallel / serial equivalence.

harness::Scenario small_scenario() {
  harness::Scenario sc;
  sc.n_sensors = 120;
  sc.warmup_s = 4;
  sc.measure_s = 12;
  sc.packets_per_second = 4;
  sc.sources_per_round = 3;
  sc.mobile = true;
  sc.max_speed_mps = 2.0;
  sc.seed = 11;
  return sc;
}

void expect_summary_eq(const Summary& a, const Summary& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;           // exact, not near:
  EXPECT_EQ(a.ci95_half_width(), b.ci95_half_width()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;             // aggregation order is
  EXPECT_EQ(a.max(), b.max()) << what;             // identical, so floats
  EXPECT_EQ(a.sum(), b.sum()) << what;             // must match bit-for-bit
}

void expect_aggregate_eq(const harness::AggregateMetrics& a,
                         const harness::AggregateMetrics& b) {
  expect_summary_eq(a.qos_throughput_kbps, b.qos_throughput_kbps, "qos");
  expect_summary_eq(a.avg_delay_ms, b.avg_delay_ms, "delay");
  expect_summary_eq(a.delay_p95_ms, b.delay_p95_ms, "p95");
  expect_summary_eq(a.delivery_ratio, b.delivery_ratio, "delivery");
  expect_summary_eq(a.comm_energy_j, b.comm_energy_j, "comm");
  expect_summary_eq(a.construction_energy_j, b.construction_energy_j,
                    "construction");
  expect_summary_eq(a.total_energy_j, b.total_energy_j, "total");
}

TEST(ParallelExecutor, SweepMatchesSerialFieldForField) {
  const std::vector<double> xs{0, 4};
  const auto configure = [](harness::Scenario& sc, double x) {
    sc.faulty_nodes = static_cast<int>(x);
  };
  ParallelExecutor serial(1);
  ParallelExecutor parallel(4);
  const auto p1 = serial.sweep(small_scenario(), xs, configure, 2);
  const auto p4 = parallel.sweep(small_scenario(), xs, configure, 2);

  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].x, p4[i].x);
    ASSERT_EQ(p1[i].by_system.size(), p4[i].by_system.size());
    for (std::size_t s = 0; s < p1[i].by_system.size(); ++s) {
      expect_aggregate_eq(p1[i].by_system[s], p4[i].by_system[s]);
    }
  }

  // Job records arrive in deterministic (x, system, rep) order with the
  // run_repeated seed schedule, independent of worker interleaving.
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  ASSERT_EQ(serial.records().size(),
            xs.size() * std::size(harness::kAllSystems) * 2);
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    const auto& a = serial.records()[i];
    const auto& b = parallel.records()[i];
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.system, b.system);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.seed, small_scenario().seed +
                          static_cast<std::uint64_t>(a.rep) * 7919);
    EXPECT_EQ(a.metrics.packets_sent, b.metrics.packets_sent);
    EXPECT_EQ(a.metrics.qos_throughput_kbps, b.metrics.qos_throughput_kbps);
    EXPECT_EQ(a.metrics.total_energy_j, b.metrics.total_energy_j);
  }
}

TEST(ParallelExecutor, RunRepeatedMatchesSerial) {
  ParallelExecutor serial(1);
  ParallelExecutor parallel(3);
  const auto a = serial.run_repeated(harness::SystemKind::kRefer,
                                     small_scenario(), 3);
  const auto b = parallel.run_repeated(harness::SystemKind::kRefer,
                                       small_scenario(), 3);
  expect_aggregate_eq(a, b);
  EXPECT_EQ(serial.records().size(), 3u);
  EXPECT_EQ(parallel.records().size(), 3u);
}

TEST(ParallelExecutor, TracedRunsAreBitIdenticalSerialVsParallel) {
  // The satellite guarantee of the observability layer: attaching traces
  // must not perturb the simulation.  Serial and parallel traced runs of
  // the same scenario must agree on every aggregate AND produce
  // byte-identical per-job trace files (each job owns its tracer and its
  // file name is a pure function of (system, x, rep)).
  namespace fs = std::filesystem;
  const fs::path base = fs::path(::testing::TempDir()) / "traced_runs";
  const fs::path dir_serial = base / "serial";
  const fs::path dir_parallel = base / "parallel";
  fs::create_directories(dir_serial);
  fs::create_directories(dir_parallel);

  harness::Scenario sc = small_scenario();
  sc.measure_s = 8;
  harness::Scenario sc_serial = sc;
  sc_serial.trace_dir = dir_serial.string();
  harness::Scenario sc_parallel = sc;
  sc_parallel.trace_dir = dir_parallel.string();

  ParallelExecutor serial(1);
  ParallelExecutor parallel(3);
  const auto a =
      serial.run_repeated(harness::SystemKind::kRefer, sc_serial, 2);
  const auto b =
      parallel.run_repeated(harness::SystemKind::kRefer, sc_parallel, 2);
  expect_aggregate_eq(a, b);

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  for (int rep = 0; rep < 2; ++rep) {
    const std::string name = "REFER_x0_rep" + std::to_string(rep) + ".jsonl";
    const std::string serial_trace = slurp(dir_serial / name);
    const std::string parallel_trace = slurp(dir_parallel / name);
    EXPECT_FALSE(serial_trace.empty());
    EXPECT_EQ(serial_trace, parallel_trace)
        << name << " differs between serial and parallel execution";
  }
  fs::remove_all(base);
}

TEST(ParallelExecutor, RegularPolicyRunsAreBitIdenticalSerialVsParallel) {
  // The regular-routing walk state lives on the packet, so worker
  // interleaving must not perturb it: serial and parallel runs of a
  // regular-policy scenario agree on every aggregate and produce
  // byte-identical traces (which carry the policy in their header).
  namespace fs = std::filesystem;
  const fs::path base = fs::path(::testing::TempDir()) / "regular_runs";
  const fs::path dir_serial = base / "serial";
  const fs::path dir_parallel = base / "parallel";
  fs::create_directories(dir_serial);
  fs::create_directories(dir_parallel);

  harness::Scenario sc = small_scenario();
  sc.routing_policy = harness::RoutingPolicy::kRegular;
  sc.faulty_nodes = 4;  // Theorem 3.8 fail-overs interleave with walks
  harness::Scenario sc_serial = sc;
  sc_serial.trace_dir = dir_serial.string();
  harness::Scenario sc_parallel = sc;
  sc_parallel.trace_dir = dir_parallel.string();

  ParallelExecutor serial(1);
  ParallelExecutor parallel(3);
  const auto a =
      serial.run_repeated(harness::SystemKind::kRefer, sc_serial, 2);
  const auto b =
      parallel.run_repeated(harness::SystemKind::kRefer, sc_parallel, 2);
  expect_aggregate_eq(a, b);

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  for (int rep = 0; rep < 2; ++rep) {
    const std::string name = "REFER_x0_rep" + std::to_string(rep) + ".jsonl";
    const std::string serial_trace = slurp(dir_serial / name);
    const std::string parallel_trace = slurp(dir_parallel / name);
    EXPECT_FALSE(serial_trace.empty());
    EXPECT_NE(serial_trace.find("\"policy\":\"regular\""), std::string::npos)
        << "trace header must carry the non-default policy";
    EXPECT_EQ(serial_trace, parallel_trace)
        << name << " differs between serial and parallel execution";
  }
  fs::remove_all(base);
}

TEST(ParallelExecutor, RunBatchMatchesSerial) {
  // A heterogeneous batch -- every system, different scenarios -- gives
  // the same metrics, field for field, on 1 and 3 workers, and records
  // its jobs in input order.
  const harness::SystemKind systems[] = {
      harness::SystemKind::kRefer, harness::SystemKind::kDaTree,
      harness::SystemKind::kDDear, harness::SystemKind::kKautzOverlay,
      harness::SystemKind::kRefer};
  std::vector<ParallelExecutor::BatchJob> batch;
  for (std::size_t i = 0; i < std::size(systems); ++i) {
    ParallelExecutor::BatchJob job;
    job.system = systems[i];
    job.scenario = small_scenario();
    job.scenario.measure_s = 8;
    job.scenario.seed = 100 + i;
    job.scenario.faulty_nodes = static_cast<int>(i);
    batch.push_back(job);
  }
  batch.back().scenario.routing_policy = harness::RoutingPolicy::kRegular;

  ParallelExecutor serial(1);
  ParallelExecutor parallel(3);
  const auto a = serial.run_batch(batch);
  const auto b = parallel.run_batch(batch);

  // Every RunMetrics field, as the results document serialises it.
  auto render = [](const harness::RunMetrics& m) {
    harness::JobRecord record;
    record.metrics = m;
    ResultsWriter writer;
    writer.add_records({record});
    return writer.to_json();
  };
  ASSERT_EQ(a.size(), batch.size());
  ASSERT_EQ(b.size(), batch.size());
  ASSERT_EQ(serial.records().size(), batch.size());
  ASSERT_EQ(parallel.records().size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(a[i].build_ok) << i;
    EXPECT_EQ(render(a[i]), render(b[i])) << "job " << i;
    for (const ParallelExecutor* ex : {&serial, &parallel}) {
      const harness::JobRecord& r = ex->records()[i];
      EXPECT_EQ(r.system, batch[i].system);
      EXPECT_EQ(r.rep, static_cast<int>(i));
      EXPECT_EQ(r.seed, batch[i].scenario.seed);
      EXPECT_EQ(render(r.metrics), render(a[i])) << "job " << i;
    }
  }
}

TEST(ParallelExecutor, RunOnceRecords) {
  ParallelExecutor ex(1);
  harness::Scenario sc = small_scenario();
  sc.measure_s = 8;
  const auto m = ex.run_once(harness::SystemKind::kDaTree, sc);
  ASSERT_EQ(ex.records().size(), 1u);
  EXPECT_EQ(ex.records()[0].seed, sc.seed);
  EXPECT_EQ(ex.records()[0].metrics.packets_sent, m.packets_sent);
  EXPECT_GT(ex.records()[0].wall_ms, 0.0);
}

TEST(ResultsWriter, EmitsSchemaValidDocument) {
  ParallelExecutor ex(2);
  const std::vector<double> xs{0};
  harness::Scenario sc = small_scenario();
  sc.measure_s = 8;
  const auto points =
      ex.sweep(sc, xs, [](harness::Scenario&, double) {}, 1);

  ResultsWriter writer;
  writer.set_benchmark("unit_test", "unit test run");
  writer.set_jobs(ex.jobs());
  writer.set_repetitions(1);
  writer.set_scenario(sc);
  writer.set_wall_s(ex.wall_s());
  writer.add_records(ex.records());
  writer.add_series("x", points);

  const std::string doc = writer.to_json();
  EXPECT_NE(doc.find("\"schema_version\":7"), std::string::npos);
  EXPECT_NE(doc.find("\"app_enabled\":"), std::string::npos);
  EXPECT_NE(doc.find("\"app_loop_completion_ratio\""), std::string::npos);
  EXPECT_NE(doc.find("\"observability\":["), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"router.packets_sent\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"delivery.delay_ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\":\"referbench\""), std::string::npos);
  EXPECT_NE(doc.find("\"benchmark\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"git\":"), std::string::npos);
  EXPECT_NE(doc.find("\"jobs_run\":["), std::string::npos);
  EXPECT_NE(doc.find("\"delay_p99_ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"delay_p95_ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"series\":["), std::string::npos);
  EXPECT_NE(doc.find("\"system\":\"REFER\""), std::string::npos);
  EXPECT_NE(doc.find("\"wall_ms\":"), std::string::npos);
  // Structural sanity: balanced braces/brackets (no strings in the doc
  // contain them, metric names are plain identifiers).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));

  const std::string path = ::testing::TempDir() + "runner_results_test.json";
  ASSERT_TRUE(writer.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ResultsWriter, FailedWritesAreReported) {
  ResultsWriter writer;
  writer.set_benchmark("unit_test", "unit test run");
  EXPECT_FALSE(writer.write(::testing::TempDir() + "no_such_dir/r.json"));
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  // Opens fine, but every write (or the flush in fclose) fails: ENOSPC.
  EXPECT_FALSE(writer.write("/dev/full"));
}

TEST(Logging, ConcurrentLinesDoNotInterleave) {
  constexpr int kThreads = 8;
  constexpr int kLines = 25;
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([t] {
        for (int i = 0; i < kLines; ++i) {
          log_info("thread %d line %d end", t, i);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  const std::string captured = ::testing::internal::GetCapturedStderr();
  set_log_level(before);

  int complete_lines = 0;
  std::istringstream stream(captured);
  std::string line;
  while (std::getline(stream, line)) {
    EXPECT_EQ(line.rfind("[INFO ] thread ", 0), 0u) << line;
    EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
    ++complete_lines;
  }
  EXPECT_EQ(complete_lines, kThreads * kLines);
}

}  // namespace
}  // namespace refer::runner
