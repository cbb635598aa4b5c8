// Tests for the strict referbench flag parser (bench/bench_common.hpp):
// every accepted flag round-trips into BenchOptions, and any typo --
// unknown flag, missing value, non-numeric value -- exits with code 2
// instead of silently running a different experiment.  Plus the --csv
// output path: a file that cannot be written fails the run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace refer::bench {
namespace {

/// parse_options mutates nothing but reads argv[1..argc-1]; build a
/// mutable argv the way main() would hand it over.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "referbench");
    pointers_.reserve(storage_.size());
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(ParseOptions, Defaults) {
  Argv a({});
  const BenchOptions opt = parse_options(a.argc(), a.argv());
  EXPECT_EQ(opt.reps, 3);
  EXPECT_EQ(opt.jobs, 1);
  EXPECT_TRUE(opt.csv_prefix.empty());
  EXPECT_TRUE(opt.json_path.empty());
  EXPECT_EQ(opt.base.measure_s, 60);
  EXPECT_EQ(opt.base.packets_per_second, 10);
  EXPECT_EQ(opt.base.seed, 1u);
}

TEST(ParseOptions, ParsesEveryFlag) {
  Argv a({"--reps", "5", "--measure", "30", "--pps", "8", "--bytes", "1000",
          "--seed", "7", "--jobs", "4", "--csv", "out/prefix", "--json",
          "results.json"});
  const BenchOptions opt = parse_options(a.argc(), a.argv());
  EXPECT_EQ(opt.reps, 5);
  EXPECT_EQ(opt.base.measure_s, 30);
  EXPECT_EQ(opt.base.packets_per_second, 8);
  EXPECT_EQ(opt.base.packet_bytes, 1000u);
  EXPECT_EQ(opt.base.seed, 7u);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.csv_prefix, "out/prefix");
  EXPECT_EQ(opt.json_path, "results.json");
}

TEST(ParseOptions, QuickAndFullPresets) {
  Argv quick({"--quick"});
  const BenchOptions q = parse_options(quick.argc(), quick.argv());
  EXPECT_EQ(q.reps, 1);
  EXPECT_EQ(q.base.measure_s, 45);

  Argv full({"--full"});
  const BenchOptions f = parse_options(full.argc(), full.argv());
  EXPECT_EQ(f.reps, 5);
  EXPECT_EQ(f.base.measure_s, 200);

  // Later flags win over presets, like any argv order would suggest.
  Argv mixed({"--quick", "--reps", "2"});
  const BenchOptions m = parse_options(mixed.argc(), mixed.argv());
  EXPECT_EQ(m.reps, 2);
  EXPECT_EQ(m.base.measure_s, 45);
}

TEST(ParseOptionsDeathTest, UnknownFlagExits2) {
  Argv a({"--repz", "3"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown flag: --repz");
}

TEST(ParseOptionsDeathTest, MissingValueExits2) {
  Argv a({"--reps"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--reps requires a value");
}

TEST(ParseOptionsDeathTest, MissingStringValueExits2) {
  Argv a({"--json"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--json requires a value");
}

TEST(ParseOptionsDeathTest, NonNumericValueExits2) {
  Argv a({"--jobs", "many"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--jobs: not a number: 'many'");
}

TEST(ParseOptionsDeathTest, TrailingGarbageInNumberExits2) {
  Argv a({"--measure", "60s"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "not a number: '60s'");
}

TEST(EmitSeries, UnwritableCsvIsReportedAndFailsTheRun) {
  BenchOptions opt;
  opt.csv_prefix = ::testing::TempDir() + "no_such_dir/prefix";
  Context ctx(opt, "unit");
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  emit_series(ctx, "title", "x", "y", "slug", {},
              [](const harness::AggregateMetrics& a) {
                return a.qos_throughput_kbps;
              });
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(ctx.write_failed);
  EXPECT_EQ(out.find("csv written"), std::string::npos);
  EXPECT_NE(err.find("cannot write"), std::string::npos);
}

}  // namespace
}  // namespace refer::bench
