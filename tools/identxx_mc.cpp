// identxx_mc — determinism model checker for sharded scenario runs.
//
//   $ identxx_mc [--shards N] [--mode dpor] scenarios/skype.scn
//
// Explores alternative shard-lane execution schedules for the scenario
// (DESIGN.md §13) and checks that every schedule's ScenarioResult is
// bit-identical to the canonical one and satisfies the scenario's own
// `expect` lines.  Exit status 0 when the invariant holds everywhere,
// 2 on divergence (with the minimized failing schedule printed), 1 on
// usage/parse errors.
//
// --shards N       admission domains (>= 1; default 2)
// --mode M         exhaustive | dpor | random (default dpor)
// --depth D        branch only at the first D shard waves (default 32)
// --schedules B    hard budget on scenario executions (default 50000)
// --random N       random mode: schedules to sample (default 200)
// --seed S         RNG seed: random-mode sampling, and the scenario seed
//                  override (0 = keep the file's `seed` line)
// --fault F        inject a checker self-test mutation:
//                  skip_redecide  — controller skips the dispatch-to-commit
//                                   control-epoch re-decision
//                  merge_arrival  — simulator merges staged lane events in
//                                   modeled arrival order, not lane order
//                  none           — (default) healthy build
//
// --src-only       query only the source daemon (config.query_both_ends =
//                  false), keeping the admission path clear of data-plane
//                  bottleneck links in congestion scenarios
//
// Congestion knobs are identxx_sim's, through the same parser
// (scenario_flags.hpp): --k-paths, --link-bw, --queue-depth, --traffic.
// So are the fault/robustness knobs (DESIGN.md §14): --chan-loss,
// --chan-dup, --chan-delay-us, --max-retries, --retry-jitter-us,
// --degraded-ttl-us, --probe-delay-us — fault injection draws on the
// global lane, so faulted runs must stay schedule-invariant.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "mc/explorer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "scenario_flags.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: identxx_mc [--shards N] [--mode exhaustive|dpor|random] "
               "[--depth D] [--schedules B] [--random N] [--seed S] "
               "[--fault skip_redecide|merge_arrival|none] [--src-only] "
               "[--traffic MODEL] [--k-paths K] [--link-bw MBPS] "
               "[--queue-depth PKTS] [--chan-loss P] [--chan-dup P] "
               "[--chan-delay-us N] [--max-retries N] [--retry-jitter-us N] "
               "[--degraded-ttl-us N] [--probe-delay-us N] <scenario-file>\n");
}

}  // namespace

int main(int argc, char** argv) {
  identxx::mc::ExplorerOptions options;
  options.scenario.shards = 2;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++i];
    };
    switch (identxx::tools::parse_scenario_flag(argc, argv, i, options.scenario)) {
      case identxx::tools::FlagParse::kParsed:
        continue;
      case identxx::tools::FlagParse::kInvalid:
        usage();
        return 1;
      case identxx::tools::FlagParse::kNotShared:
        break;
    }
    if (const char* v = flag_value("--shards")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n || *n == 0) { usage(); return 1; }
      options.scenario.shards = static_cast<std::uint32_t>(*n);
    } else if (const char* v = flag_value("--mode")) {
      if (std::strcmp(v, "exhaustive") == 0) {
        options.mode = identxx::mc::Mode::kExhaustive;
      } else if (std::strcmp(v, "dpor") == 0) {
        options.mode = identxx::mc::Mode::kDpor;
      } else if (std::strcmp(v, "random") == 0) {
        options.mode = identxx::mc::Mode::kRandom;
      } else {
        usage();
        return 1;
      }
    } else if (const char* v = flag_value("--depth")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n) { usage(); return 1; }
      options.max_depth = static_cast<std::uint32_t>(*n);
    } else if (const char* v = flag_value("--schedules")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n || *n == 0) { usage(); return 1; }
      options.max_schedules = *n;
    } else if (const char* v = flag_value("--random")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n) { usage(); return 1; }
      options.random_schedules = *n;
    } else if (const char* v = flag_value("--seed")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n) { usage(); return 1; }
      options.seed = *n;
      options.scenario.seed = *n;
    } else if (const char* v = flag_value("--fault")) {
      if (std::strcmp(v, "skip_redecide") == 0) {
        options.scenario.config.fault_skip_epoch_redecide = true;
      } else if (std::strcmp(v, "merge_arrival") == 0) {
        options.scenario.fault_merge_arrival_order = true;
      } else if (std::strcmp(v, "none") != 0) {
        usage();
        return 1;
      }
    } else if (argv[i][0] == '-') {
      usage();
      return 1;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    usage();
    return 1;
  }
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw identxx::Error(std::string("cannot open '") + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const auto scenario = identxx::core::Scenario::parse(buffer.str());
    std::printf("scenario: %zu switch(es), %zu host(s), %zu flow(s), "
                "%u shard(s)\n",
                scenario.switch_count(), scenario.host_count(),
                scenario.flow_count(), options.scenario.shards);

    identxx::mc::Explorer explorer(scenario, options);
    const identxx::mc::Report report = explorer.run();
    std::fputs(report.summary().c_str(), stdout);
    return report.ok() ? 0 : 2;
  } catch (const identxx::Error& e) {
    std::fprintf(stderr, "identxx_mc: %s\n", e.what());
    return 1;
  }
}
