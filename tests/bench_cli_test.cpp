// Tests for the strict referbench flag parsers (bench/bench_common.hpp
// and `referbench fuzz` in tools/verify_commands.cpp): every accepted
// flag round-trips into BenchOptions, and any typo -- unknown flag,
// missing value, non-numeric or out-of-range value -- exits with code 2
// instead of silently running a different experiment.  Plus the --csv
// output path: a file that cannot be written fails the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "verify_commands.hpp"

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

TEST(ParseOptions, IntegerFlagsAreReadExactly) {
  // --jobs 0 means one worker per hardware thread; the largest seed
  // is read without a double round trip.
  Argv a({"--jobs", "0", "--seed", "18446744073709551615", "--reps", "1",
          "--bytes", "1"});
  const BenchOptions opt = parse_options(a.argc(), a.argv());
  EXPECT_EQ(opt.jobs, 0);
  EXPECT_EQ(opt.base.seed, UINT64_MAX);
  EXPECT_EQ(opt.reps, 1);
  EXPECT_EQ(opt.base.packet_bytes, 1u);
}

// Out-of-range values: each used to run (an all-zero table, or an
// out-of-range double cast to an integer) and exit 0.
TEST(ParseOptionsDeathTest, ZeroRepsExits2) {
  Argv a({"--reps", "0"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--reps: expected an integer from 1 to 2147483647, got '0'");
}

TEST(ParseOptionsDeathTest, RepsBeyondIntExits2) {
  Argv a({"--reps", "1e10"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--reps: expected an integer");
  Argv b({"--reps", "2147483648"});
  EXPECT_EXIT(parse_options(b.argc(), b.argv()),
              ::testing::ExitedWithCode(2), "--reps: expected an integer");
}

TEST(ParseOptionsDeathTest, FractionalRepsExits2) {
  Argv a({"--reps", "2.5"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--reps: expected an integer");
}

TEST(ParseOptionsDeathTest, NegativeMeasureExits2) {
  Argv a({"--measure", "-5"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--measure: must be a positive number, got '-5'");
}

TEST(ParseOptionsDeathTest, NonFiniteMeasureExits2) {
  Argv a({"--measure", "inf"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--measure: must be a positive");
  Argv b({"--measure", "nan"});
  EXPECT_EXIT(parse_options(b.argc(), b.argv()),
              ::testing::ExitedWithCode(2), "--measure: must be a positive");
}

TEST(ParseOptionsDeathTest, ZeroPpsExits2) {
  Argv a({"--pps", "0"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--pps: must be a positive number, got '0'");
}

TEST(ParseOptionsDeathTest, ZeroBytesExits2) {
  Argv a({"--bytes", "0"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--bytes: expected an integer from 1 to");
}

// Rejected while parsing, before any executor (or thread) exists.
TEST(ParseOptionsDeathTest, NegativeJobsExits2) {
  Argv a({"--jobs", "-3"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--jobs: expected an integer from 0 to 2147483647, got '-3'");
}

TEST(ParseOptionsDeathTest, NegativeSeedExits2) {
  Argv a({"--seed", "-1"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--seed: expected an integer from 0 to 18446744073709551615, "
              "got '-1'");
}

TEST(ParseOptionsDeathTest, SeedBeyondUint64Exits2) {
  Argv a({"--seed", "18446744073709551616"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--seed: expected an integer");
}

TEST(ParseOptionsDeathTest, NonPositiveTimelineExits2) {
  Argv a({"--timeline", "0"});
  EXPECT_EXIT(parse_options(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--timeline: must be a positive number, got '0'");
  Argv b({"--timeline", "nan"});
  EXPECT_EXIT(parse_options(b.argc(), b.argv()),
              ::testing::ExitedWithCode(2), "--timeline: must be a positive");
}

// `referbench fuzz` flags.  Each value used to be read with atoi, atof
// or strtoull and never checked: `--seeds many` ran 0 cases and exited
// 0.  The argv handed to run_fuzz_command starts after the word "fuzz";
// every bad value exits 2 before a case or a thread starts.
int fuzz(std::vector<std::string> args) {
  Argv a(std::move(args));
  return tools::run_fuzz_command(a.argc() - 1, a.argv() + 1);
}

TEST(FuzzFlagsDeathTest, SeedsMustBeACountOfAtLeastOne) {
  EXPECT_EXIT(fuzz({"--seeds", "many", "--jobs", "1"}),
              ::testing::ExitedWithCode(2), "--seeds: not a number: 'many'");
  EXPECT_EXIT(fuzz({"--seeds", "0"}), ::testing::ExitedWithCode(2),
              "--seeds: expected an integer from 1 to 2147483647, got '0'");
}

TEST(FuzzFlagsDeathTest, SeedMustFitUint64) {
  EXPECT_EXIT(fuzz({"--seed", "-1"}), ::testing::ExitedWithCode(2),
              "--seed: expected an integer from 0 to 18446744073709551615, "
              "got '-1'");
  EXPECT_EXIT(fuzz({"--seed", "18446744073709551616"}),
              ::testing::ExitedWithCode(2), "--seed: expected an integer");
}

TEST(FuzzFlagsDeathTest, BudgetMustBeFiniteAndNonNegative) {
  EXPECT_EXIT(fuzz({"--budget-s", "-1"}), ::testing::ExitedWithCode(2),
              "--budget-s: must be a finite number >= 0, got '-1'");
  EXPECT_EXIT(fuzz({"--budget-s", "nan"}), ::testing::ExitedWithCode(2),
              "--budget-s: must be a finite number >= 0");
  EXPECT_EXIT(fuzz({"--budget-s", "10m"}), ::testing::ExitedWithCode(2),
              "--budget-s: not a number: '10m'");
}

TEST(FuzzFlagsDeathTest, JobsMustBeNonNegative) {
  EXPECT_EXIT(fuzz({"--jobs", "-1"}), ::testing::ExitedWithCode(2),
              "--jobs: expected an integer from 0 to 2147483647, got '-1'");
  EXPECT_EXIT(fuzz({"--jobs", "many"}), ::testing::ExitedWithCode(2),
              "--jobs: not a number: 'many'");
}

TEST(FuzzFlagsDeathTest, PlantMustNameAKnownBug) {
  EXPECT_EXIT(fuzz({"--plant", "3"}), ::testing::ExitedWithCode(2),
              "--plant: expected an integer from 0 to 2, got '3'");
  EXPECT_EXIT(fuzz({"--plant", "1.5"}), ::testing::ExitedWithCode(2),
              "--plant: expected an integer from 0 to 2, got '1.5'");
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
