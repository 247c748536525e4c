// identxx_sim — run an ident++ deployment scenario from a description file.
//
//   $ identxx_sim [--shards N] [--workers N] [--seed S] scenarios/skype.scn
//
// Builds the topology, installs the controller with the inline policy,
// launches the declared processes, drives every declared flow through the
// full Figure-1 sequence, and reports per-flow verdicts plus the
// controller's audit log.  Exit status 0 when all `expect` lines hold.
//
// --shards N   partition admission across N parallel domains (DESIGN.md
//              §10); per-domain stats are reported after the run.
// --workers N  real threads driving the shard lanes (results are identical
//              at any worker count; use 0 for all hardware threads).
// --seed S     deterministic RNG seed (overrides the file's `seed` line).
//
// Congestion knobs (DESIGN.md §12) — the defaults reproduce the idealized
// single-path/unbounded-queue behaviour exactly:
//
// --src-only       query only the source daemon (the §6 src-only ablation;
//                  config.query_both_ends = false)
// --traffic M      override every flow's traffic model, e.g.
//                  "cbr,packets=64,rate=20000" or "aimd,packets=64"
// --k-paths K      equal-cost paths per (src,dst) pair (seeded ECMP)
// --link-bw MBPS   override every link's bandwidth (0 = declarations)
// --queue-depth P  bounded per-port switch output queues, in packets
//
// Fault / robustness knobs (DESIGN.md §14) — channel overrides replace the
// scenario's `fault chan` directives; retry knobs override `fault retry`:
//
// --chan-loss P        control-channel loss probability on every switch
// --chan-dup P         control-channel duplication probability
// --chan-delay-us N    max per-message control-channel delay (drawn 0..N)
// --max-retries N      re-query budget before the timeout decision
// --retry-jitter-us N  seeded jitter bound on retry deadlines
// --degraded-ttl-us N  fail-closed degraded-cover TTL (0 = no degradation)
// --probe-delay-us N   delay before a degraded flow's re-admission probe

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/scenario.hpp"
#include "sim/worker_pool.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "scenario_flags.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: identxx_sim [--shards N] [--workers N] [--seed S] "
               "[--src-only] [--traffic MODEL] [--k-paths K] [--link-bw MBPS] "
               "[--queue-depth PKTS] [--chan-loss P] [--chan-dup P] "
               "[--chan-delay-us N] [--max-retries N] [--retry-jitter-us N] "
               "[--degraded-ttl-us N] [--probe-delay-us N] <scenario-file>\n");
}

}  // namespace

int main(int argc, char** argv) {
  identxx::core::ScenarioOptions options;
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
    switch (identxx::tools::parse_scenario_flag(argc, argv, i, options)) {
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
      if (!n) { usage(); return 1; }
      options.shards = static_cast<std::uint32_t>(*n);
    } else if (const char* v = flag_value("--workers")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n) { usage(); return 1; }
      options.workers = *n == 0
                            ? identxx::sim::WorkerPool::hardware_workers()
                            : static_cast<std::uint32_t>(*n);
    } else if (const char* v = flag_value("--seed")) {
      const auto n = identxx::util::parse_u64(v);
      if (!n) { usage(); return 1; }
      options.seed = *n;
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
    std::printf("scenario: %zu switch(es), %zu host(s), %zu flow(s)",
                scenario.switch_count(), scenario.host_count(),
                scenario.flow_count());
    if (options.shards > 0) {
      std::printf(", %u shard(s), %u worker(s)", options.shards,
                  options.workers);
    }
    std::printf("\n\n");
    const auto result = scenario.run(options);

    std::printf("%-12s %-46s %-10s %8s %8s %8s %s\n", "flow", "5-tuple",
                "verdict", "sent", "deliv", "reord", "expectation");
    for (const auto& flow : result.flows) {
      std::printf("%-12s %-46s %-10s %8llu %8llu %8llu %s\n", flow.id.c_str(),
                  flow.flow.to_string().c_str(),
                  flow.delivered ? "DELIVERED" : "BLOCKED",
                  static_cast<unsigned long long>(flow.packets_sent),
                  static_cast<unsigned long long>(flow.packets_delivered),
                  static_cast<unsigned long long>(flow.packets_reordered),
                  !flow.expectation_known    ? "-"
                  : flow.matches_expectation() ? "ok"
                                               : "MISMATCH");
    }
    std::printf("\naudit log:\n");
    for (const auto& record : result.audit_log) {
      std::printf("  [%9lld ns] %-46s user=%-10s app=%-12s %s%s\n",
                  static_cast<long long>(record.time),
                  record.flow.to_string().c_str(), record.src_user.c_str(),
                  record.src_app.c_str(), record.allowed ? "pass" : "block",
                  record.logged ? " [logged]" : "");
    }
    std::printf("\ncontroller: %llu queries, %llu responses, %llu entries "
                "installed, %llu allowed, %llu blocked, %llu timeouts\n",
                static_cast<unsigned long long>(
                    result.controller_stats.queries_sent),
                static_cast<unsigned long long>(
                    result.controller_stats.responses_received),
                static_cast<unsigned long long>(
                    result.controller_stats.entries_installed),
                static_cast<unsigned long long>(
                    result.controller_stats.flows_allowed),
                static_cast<unsigned long long>(
                    result.controller_stats.flows_blocked),
                static_cast<unsigned long long>(
                    result.controller_stats.query_timeouts));
    std::printf("robustness: %llu retries, %llu duplicate responses, "
                "%llu degraded verdicts\n",
                static_cast<unsigned long long>(
                    result.controller_stats.query_retries),
                static_cast<unsigned long long>(
                    result.controller_stats.duplicate_responses),
                static_cast<unsigned long long>(
                    result.controller_stats.degraded_verdicts));
    const auto& fs = result.fault_stats;
    if (fs != identxx::core::ScenarioFaultStats{}) {
      std::printf("faults injected: %llu dropped, %llu duplicated, "
                  "%llu delayed, %llu queries ignored by down daemons\n",
                  static_cast<unsigned long long>(fs.chan_dropped),
                  static_cast<unsigned long long>(fs.chan_duplicated),
                  static_cast<unsigned long long>(fs.chan_delayed),
                  static_cast<unsigned long long>(fs.daemon_queries_ignored));
    }
    const auto& pcs = result.path_cache_stats;
    std::printf("path cache: %llu hits, %llu misses, %llu invalidations\n",
                static_cast<unsigned long long>(pcs.hits),
                static_cast<unsigned long long>(pcs.misses),
                static_cast<unsigned long long>(pcs.invalidations));
    if (!pcs.ecmp_selections.empty()) {
      std::printf("ecmp selections:");
      for (std::size_t i = 0; i < pcs.ecmp_selections.size(); ++i) {
        std::printf(" path%zu=%llu", i,
                    static_cast<unsigned long long>(pcs.ecmp_selections[i]));
      }
      std::printf("\n");
    }
    if (result.queue_tail_drops > 0) {
      std::printf("queue tail drops: %llu total (per switch:",
                  static_cast<unsigned long long>(result.queue_tail_drops));
      for (const std::uint64_t drops : result.switch_queue_drops) {
        std::printf(" %llu", static_cast<unsigned long long>(drops));
      }
      std::printf(")\n");
    }
    if (options.shards > 0) {
      std::printf("\n%-8s %10s %10s %10s %10s %10s\n", "domain", "flows",
                  "allowed", "blocked", "cache-hits", "installs");
      for (std::size_t i = 0; i < result.domain_stats.size(); ++i) {
        const auto& s = result.domain_stats[i];
        std::printf("d%-7zu %10llu %10llu %10llu %10llu %10llu\n", i,
                    static_cast<unsigned long long>(s.flows_seen),
                    static_cast<unsigned long long>(s.flows_allowed),
                    static_cast<unsigned long long>(s.flows_blocked),
                    static_cast<unsigned long long>(s.decision_cache_hits),
                    static_cast<unsigned long long>(s.entries_installed));
      }
    }
    if (!result.ok()) {
      std::fprintf(stderr, "\nidentxx_sim: expectation mismatches\n");
      return 2;
    }
    return 0;
  } catch (const identxx::Error& e) {
    std::fprintf(stderr, "identxx_sim: %s\n", e.what());
    return 1;
  }
}
