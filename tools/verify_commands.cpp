#include "verify_commands.hpp"

#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flag_values.hpp"
#include "verify/fuzzer.hpp"
#include "verify/repro.hpp"
#include "verify/shrink.hpp"

namespace refer::tools {

namespace {

using namespace refer::verify;

void print_fuzz_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: referbench fuzz [flags]\n"
      "\n"
      "  --seeds N      fuzz cases to run, >= 1 (default 25)\n"
      "  --seed S       first fuzz seed, 0..2^64-1 (default 1)\n"
      "  --budget-s S   stop launching new waves after S seconds\n"
      "                 (0 = no budget, the default)\n"
      "  --jobs N       parallel jobs; 0 = one per core (default 1)\n"
      "  --plant K      plant known bug K, 0..2 (testing the checker\n"
      "                 itself; 0 = none)\n"
      "  --app-faults   force the closed-loop app layer (with actuator\n"
      "                 fault schedules) on in every case\n"
      "  --dir PATH     trace directory (default: <tmp>/refer_fuzz)\n"
      "  --repro PATH   where the shrunk reproducer goes (default\n"
      "                 repro.json); written only when a case fails\n"
      "  --no-shrink    skip shrinking, write the raw failing case\n"
      "\n"
      "exit: 0 all cases clean, 1 violations found, 2 usage error\n");
}

/// Strict flag parsing, same contract and number rules as
/// bench_common.hpp: an unknown flag, a missing value or an out-of-range
/// number prints a message and the usage, and exits 2.
struct FuzzArgs {
  FuzzOptions options;
  std::string repro_path = "repro.json";
  bool shrink = true;
};

[[noreturn]] void fuzz_usage_error(const std::string& message) {
  std::fprintf(stderr, "referbench fuzz: %s\n", message.c_str());
  print_fuzz_usage(stderr);
  std::exit(2);
}

FuzzArgs parse_fuzz_args(int argc, char** argv) {
  FuzzArgs args;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      fuzz_usage_error(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  auto integer_value = [&](int& i, std::uint64_t lo,
                           std::uint64_t hi) -> std::uint64_t {
    const std::string flag = argv[i];
    std::uint64_t v = 0;
    if (std::string error =
            bench::read_integer(flag, need_value(i), lo, hi, v);
        !error.empty()) {
      fuzz_usage_error(error);
    }
    return v;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_fuzz_usage(stdout);
      std::exit(0);
    } else if (flag == "--seeds") {
      args.options.seeds = static_cast<int>(integer_value(i, 1, INT_MAX));
    } else if (flag == "--seed") {
      args.options.base_seed = integer_value(i, 0, UINT64_MAX);
    } else if (flag == "--budget-s") {
      double v = 0;
      if (std::string error = bench::read_number(flag, need_value(i), v);
          !error.empty()) {
        fuzz_usage_error(error);
      }
      if (!(v >= 0) || !std::isfinite(v)) {
        fuzz_usage_error(flag + ": must be a finite number >= 0, got '" +
                         argv[i] + "'");
      }
      args.options.budget_s = v;
    } else if (flag == "--jobs") {
      args.options.jobs = static_cast<int>(integer_value(i, 0, INT_MAX));
    } else if (flag == "--plant") {
      args.options.planted_bug = static_cast<int>(integer_value(i, 0, 2));
    } else if (flag == "--app-faults") {
      args.options.force_app = true;
    } else if (flag == "--dir") {
      args.options.trace_dir = need_value(i);
    } else if (flag == "--repro") {
      args.repro_path = need_value(i);
    } else if (flag == "--no-shrink") {
      args.shrink = false;
    } else {
      fuzz_usage_error("unknown flag '" + flag + "'");
    }
  }
  return args;
}

}  // namespace

int run_fuzz_command(int argc, char** argv) {
  const FuzzArgs args = parse_fuzz_args(argc, argv);
  std::printf("fuzzing %d scenario(s) from seed %" PRIu64 " (%s)...\n",
              args.options.seeds, args.options.base_seed,
              args.options.planted_bug
                  ? "with a planted bug -- violations expected"
                  : "all invariants must hold");
  const FuzzSummary summary =
      run_fuzz(args.options, [](int done, int total) {
        std::printf("  %d/%d cases\r", done, total);
        std::fflush(stdout);
      });
  std::printf("\n");
  if (summary.cases_run < summary.cases_requested) {
    std::printf("budget hit: ran %d of %d cases\n", summary.cases_run,
                summary.cases_requested);
  }
  if (summary.builds_failed > 0) {
    std::printf("note: %d case(s) failed topology construction (a legal "
                "outcome; their invariants were still checked)\n",
                summary.builds_failed);
  }
  if (summary.clean()) {
    std::printf("OK: %d case(s), zero invariant violations\n",
                summary.cases_run);
    return 0;
  }

  std::printf("%zu failing case(s):\n", summary.failures.size());
  for (const FuzzFailure& f : summary.failures) {
    std::printf("seed %" PRIu64 " (trace kept at %s):\n", f.seed,
                f.trace_path.c_str());
    print_violations(f.violations, stdout);
  }

  const FuzzFailure& first = summary.failures.front();
  ReproCase repro;
  repro.kind = harness::SystemKind::kRefer;
  repro.scenario = first.scenario;
  repro.violation = summarize(first.violations);
  if (args.shrink) {
    ScenarioShrinker::Options shrink_opts;
    shrink_opts.trace_path = first.trace_path + ".shrink";
    std::printf("shrinking seed %" PRIu64 "...\n", first.seed);
    const ScenarioShrinker::Result shrunk =
        ScenarioShrinker::shrink(first.scenario, first.violations,
                                 shrink_opts);
    std::printf("  %d reduction(s) held over %d run(s): %d sensors, "
                "%.0f s horizon, %d faults/period\n",
                shrunk.accepted, shrunk.runs, shrunk.scenario.n_sensors,
                shrunk.scenario.measure_s, shrunk.scenario.faulty_nodes);
    std::remove(shrink_opts.trace_path.c_str());
    repro.scenario = shrunk.scenario;
    repro.violation = summarize(shrunk.violations);
  }
  repro.scenario.trace_path.clear();
  repro.scenario.trace_dir.clear();
  if (write_repro(args.repro_path, repro)) {
    std::printf("reproducer written to %s (run: referbench replay %s)\n",
                args.repro_path.c_str(), args.repro_path.c_str());
  } else {
    std::fprintf(stderr, "referbench fuzz: cannot write %s\n",
                 args.repro_path.c_str());
  }
  return 1;
}

int run_replay_command(int argc, char** argv) {
  if (argc < 1 || argv[0][0] == '-') {
    std::fprintf(stderr,
                 "usage: referbench replay <repro.json>\n"
                 "\n"
                 "re-executes a fuzzer reproducer bit-identically and\n"
                 "re-checks every invariant.\n"
                 "exit: 0 clean, 1 violations reproduced, 2 usage error\n");
    return argc >= 1 && (std::strcmp(argv[0], "--help") == 0 ||
                         std::strcmp(argv[0], "-h") == 0)
               ? 0
               : 2;
  }
  const std::string path = argv[0];
  const auto repro = load_repro(path);
  if (!repro) return 2;
  if (!repro->violation.empty()) {
    std::printf("expecting: %s\n", repro->violation.c_str());
  }
  const std::string trace_path = path + ".trace.jsonl";
  const std::vector<Violation> violations =
      run_case(repro->kind, repro->scenario, trace_path);
  if (violations.empty()) {
    std::printf("clean: no invariant violations (trace at %s)\n",
                trace_path.c_str());
    return 0;
  }
  std::printf("reproduced %zu violation(s) (trace at %s):\n",
              violations.size(), trace_path.c_str());
  print_violations(violations, stdout);
  return 1;
}

}  // namespace refer::tools
