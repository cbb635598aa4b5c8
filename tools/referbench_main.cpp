// referbench: the unified CLI for every figure/ablation reproduction.
//
//   referbench --list                      enumerate registered benches
//   referbench fig04 --jobs 8 --json out.json
//   referbench all --quick                 run everything (CI smoke)
//
// Replaces the previous one-binary-per-figure layout: benches register
// with bench/registry.hpp, flags are parsed once
// (bench/bench_common.hpp, strict: unknown flag / missing value exit 2),
// simulations run on the runner::ParallelExecutor, and --json exports a
// versioned results document via runner::ResultsWriter.
#include <cstdio>
#include <string>
#include <vector>

#include "registry.hpp"
#include "verify_commands.hpp"

namespace {

using namespace refer::bench;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: referbench <bench|all|fuzz|replay|--list> [flags]\n"
               "\n"
               "  fuzz            scenario fuzzing under the invariant\n"
               "                  engine (referbench fuzz --help)\n"
               "  replay FILE     re-run a fuzzer reproducer (repro.json)\n"
               "\n"
               "  --list          list registered benches\n"
               "  --reps N        seeds per point (default 3)\n"
               "  --measure S     measurement window, seconds (default 60)\n"
               "  --pps P         packets per second per source (default 10)\n"
               "  --bytes B       packet size in bytes (default 2500)\n"
               "  --seed S        base scenario seed (default 1)\n"
               "  --jobs N        parallel jobs; 0 = one per core (default 1)\n"
               "  --csv PREFIX    also write PREFIX_<metric>.csv\n"
               "  --json PATH     write a structured results document\n"
               "  --trace DIR     write per-job JSONL traces to DIR/<bench>/\n"
               "  --profile       kernel profiler (per-event-tag wall-time)\n"
               "  --timeline S    flight-recorder timeseries, bucket width S\n"
               "                  seconds (analyze with timeline_report)\n"
               "  --phase-profile wall-clock phase attribution per bucket\n"
               "  --routing-policy greedy|regular  REFER intra-cell routing\n"
               "                  (default greedy shortest paths; regular =\n"
               "                  all-to-all walks, Theorem 3.8 fail-over)\n"
               "  --quick         reps=1, measure=45 (smoke runs)\n"
               "  --full          reps=5, measure=200 (paper-closer scale)\n");
}

void print_list() {
  for (const BenchInfo& info : sorted_registry()) {
    std::printf("%-20s %s\n", info.name, info.description);
  }
}

/// out.json -> out_fig04.json when several benches share one --json flag.
std::string json_path_for(const std::string& base, const std::string& name,
                          bool single) {
  if (single) return base;
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    return base + "_" + name;
  }
  return base.substr(0, dot) + "_" + name + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(stdout);
    return 0;
  }
  if (command == "--list" || command == "list") {
    print_list();
    return 0;
  }
  if (command == "fuzz") {
    return refer::tools::run_fuzz_command(argc - 2, argv + 2);
  }
  if (command == "replay") {
    return refer::tools::run_replay_command(argc - 2, argv + 2);
  }
  if (!command.empty() && command[0] == '-') {
    std::fprintf(stderr, "referbench: expected a bench name before flags, "
                         "got '%s' (try 'referbench --list')\n",
                 command.c_str());
    return 2;
  }

  // argv[1] is the bench name; parse_options skips argv[0] of the slice.
  const BenchOptions opt = parse_options(argc - 1, argv + 1);

  std::vector<BenchInfo> selected;
  if (command == "all") {
    selected = sorted_registry();
  } else {
    const BenchInfo* info = find_bench(command);
    if (!info) {
      std::fprintf(stderr, "referbench: unknown bench '%s'; available:\n",
                   command.c_str());
      print_list();
      return 2;
    }
    selected.push_back(*info);
  }

  int rc = 0;
  for (const BenchInfo& info : selected) {
    Context ctx(opt, info.name);
    const int bench_rc = info.fn(ctx);
    if (bench_rc != 0) rc = bench_rc;
    if (ctx.write_failed) rc = 1;
    if (!opt.json_path.empty()) {
      ctx.results.add_records(ctx.executor.records());
      ctx.results.set_wall_s(ctx.executor.wall_s());
      const std::string path =
          json_path_for(opt.json_path, info.name, selected.size() == 1);
      if (ctx.results.write(path)) {
        std::printf("(json written to %s)\n", path.c_str());
      } else {
        std::fprintf(stderr, "referbench: cannot write %s\n", path.c_str());
        rc = 1;
      }
    }
  }
  return rc;
}
