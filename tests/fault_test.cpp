// Control-plane fault injection and admission robustness (DESIGN.md §14):
// seeded channel loss/duplication/delay, daemon crash/restart, the
// timeout/retry/backoff ladder, degraded fail-closed covers and
// re-admission probes — all of it deterministic: a faulted run at a fixed
// seed is bit-identical at any shard count and (via mc::Explorer) any
// shard-lane schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "mc/explorer.hpp"
#include "sim/fault.hpp"
#include "util/error.hpp"

namespace identxx {
namespace {

using core::Scenario;
using core::ScenarioOptions;
using core::ScenarioResult;

/// Run `scenario` classic and at every shard count, assert equivalence,
/// and hand back the classic result.
ScenarioResult assert_invariant_across_configs(const Scenario& scenario,
                                               ScenarioOptions base = {}) {
  ScenarioOptions classic = base;
  classic.shards = 0;
  const ScenarioResult reference = scenario.run(classic);
  for (const std::uint32_t shards : {1u, 4u}) {
    ScenarioOptions opts = base;
    opts.shards = shards;
    const ScenarioResult result = scenario.run(opts);
    EXPECT_TRUE(result.equivalent_to(reference))
        << shards << " shard(s) diverges from the classic run";
  }
  return reference;
}

// ---------------------------------------------------------------- fault model

TEST(FaultModel, StreamSeedsAreStablePerChannel) {
  // Per-channel streams derive from (scenario seed, switch name) via
  // FNV-1a — stable across stdlib implementations, distinct per switch.
  const std::uint64_t a = sim::fault_stream_seed(42, "s0");
  EXPECT_EQ(a, sim::fault_stream_seed(42, "s0"));
  EXPECT_NE(a, sim::fault_stream_seed(42, "s1"));
  EXPECT_NE(a, sim::fault_stream_seed(43, "s0"));
}

TEST(FaultModel, DrawsAreOutcomeIndependent) {
  // Both Bernoullis are drawn for every message, so the stream position
  // depends only on the message count — never on earlier outcomes.  Two
  // channels with different specs but the same seed therefore agree on
  // every pure-loss decision.
  sim::FaultChannel loss_only({0.3, 0.0, 0}, 7);
  sim::FaultChannel loss_and_dup({0.3, 0.9, 0}, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(loss_only.draw().dropped, loss_and_dup.draw().dropped)
        << "message " << i;
  }
}

TEST(FaultParse, RejectsMalformedDirectives) {
  EXPECT_THROW((void)Scenario::parse("fault chan s1 loss=1.5\n"),
               ParseError);
  EXPECT_THROW((void)Scenario::parse("fault chan s1 loss=abc\n"),
               ParseError);
  EXPECT_THROW((void)Scenario::parse("fault host h1 up_at=10\n"),
               ParseError);  // down_at required
  EXPECT_THROW((void)Scenario::parse("fault retry max\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("fault bogus x\n"), ParseError);
}

// ----------------------------------------------------- determinism invariants

constexpr const char* kFaultyMeshScenario = R"SCN(
seed 97
switch s0
switch s1
switch s2
link s0 s1 12
link s1 s2 18
host h0 10.0.0.1 s0
host h1 10.0.0.2 s1
host h2 10.0.0.3 s2
user h0 alice staff
user h1 bobby staff
user h2 carol admin
launch c0 h0 alice /usr/bin/curl
launch c2 h2 carol /usr/bin/curl
launch d1 h1 bobby /usr/sbin/httpd
listen d1 80
listen d1 443
policy begin
block all
pass from any to any port 80
pass from any to any port 443 with eq(@src[userID], carol)
policy end
fault chan all loss=0.2 dup=0.2 delay_us=500
fault retry max=2 jitter_us=300 degraded_ttl_us=20000
flow f0 c0 10.0.0.2 80
traffic f0 cbr packets=24 rate=4000
flow f1 c2 10.0.0.2 443
traffic f1 cbr packets=24 rate=4000
flow f2 c0 10.0.0.2 443
traffic f2 cbr packets=16 rate=2000
)SCN";

TEST(FaultDeterminism, ChannelFaultsAreShardInvariant) {
  // Heavy loss/dup/delay on every control channel: injections draw on the
  // global lane from per-switch streams, so the classic run and every
  // shard count must agree bit for bit — faults included.
  const Scenario scenario = Scenario::parse(kFaultyMeshScenario);
  const ScenarioResult reference = assert_invariant_across_configs(scenario);
  // The faults actually fired (otherwise this test is vacuous).
  EXPECT_GT(reference.fault_stats.chan_dropped, 0u);
  EXPECT_GT(reference.fault_stats.chan_duplicated, 0u);
  EXPECT_GT(reference.fault_stats.chan_delayed, 0u);
}

TEST(FaultDeterminism, RepeatRunsAreBitIdentical) {
  const Scenario scenario = Scenario::parse(kFaultyMeshScenario);
  const ScenarioResult first = scenario.run(ScenarioOptions{});
  const ScenarioResult second = scenario.run(ScenarioOptions{});
  EXPECT_TRUE(first.equivalent_to(second));
  EXPECT_EQ(first.fault_stats, second.fault_stats);
}

TEST(FaultDeterminism, DuplicatedChannelIsDeduped) {
  // dup=1.0 doubles every control message.  The duplicate responses are
  // counted and dropped (first answer wins; consumed packets memoized), and
  // the run stays shard invariant.
  const Scenario scenario = Scenario::parse(R"SCN(
seed 5
switch s0
host h0 10.0.0.1 s0
host h1 10.0.0.2 s0
user h0 alice staff
user h1 bobby staff
launch c0 h0 alice /usr/bin/curl
launch d1 h1 bobby /usr/sbin/httpd
listen d1 80
policy begin
block all
pass from any to any port 80
policy end
fault chan all dup=1.0
flow f0 c0 10.0.0.2 80
expect f0 delivered
)SCN");
  const ScenarioResult reference = assert_invariant_across_configs(scenario);
  EXPECT_TRUE(reference.ok());
  EXPECT_GT(reference.fault_stats.chan_duplicated, 0u);
  EXPECT_GT(reference.controller_stats.duplicate_responses, 0u);
}

// ------------------------------------------------------------ retry / backoff

constexpr const char* kDaemonDownScenario = R"SCN(
seed 23
switch s1
switch s2
link s1 s2 20
host client 10.0.0.1 s1
host server 10.0.0.2 s2
user client alice users
user server www daemons
launch c1 client alice /usr/bin/curl
launch srv server www /bin/www
listen srv 80
policy begin
block all
pass from any to any port 80 with eq(@dst[userID], www)
policy end
fault host server down_at=0
flow f1 c1 10.0.0.2 80
expect f1 blocked
)SCN";

TEST(RetryBackoff, RetriesExhaustToTheLegacyTimeoutDecision) {
  // Daemon down forever, no degraded cover configured: after the retry
  // budget is spent the controller falls back to the partial-information
  // timeout decision — the same verdict a retry-free run reaches, just
  // later and with the retries counted.
  const Scenario scenario = Scenario::parse(kDaemonDownScenario);

  ScenarioOptions no_retry;
  const ScenarioResult legacy = scenario.run(no_retry);

  ScenarioOptions with_retry;
  with_retry.config.max_query_retries = 2;
  const ScenarioResult retried = scenario.run(with_retry);

  ASSERT_EQ(legacy.flows.size(), 1u);
  ASSERT_EQ(retried.flows.size(), 1u);
  EXPECT_FALSE(legacy.flows[0].delivered);
  EXPECT_FALSE(retried.flows[0].delivered);
  EXPECT_EQ(legacy.controller_stats.query_retries, 0u);
  EXPECT_EQ(retried.controller_stats.query_retries, 2u);
  EXPECT_EQ(retried.controller_stats.query_timeouts,
            legacy.controller_stats.query_timeouts);
  EXPECT_EQ(retried.controller_stats.degraded_verdicts, 0u);
  // The ignored-query count reflects the retries: 1 original + 2 re-sends.
  EXPECT_EQ(legacy.fault_stats.daemon_queries_ignored, 1u);
  EXPECT_EQ(retried.fault_stats.daemon_queries_ignored, 3u);
}

TEST(RetryBackoff, RetryConfigIsShardInvariant) {
  // Retry deadlines carry seeded jitter; the jitter is a pure hash of
  // (flow, attempt, seed), so it cannot depend on the shard count.
  const Scenario scenario = Scenario::parse(kDaemonDownScenario);
  ScenarioOptions base;
  base.config.max_query_retries = 3;
  base.config.retry_jitter = 2 * sim::kMillisecond;
  const ScenarioResult reference =
      assert_invariant_across_configs(scenario, base);
  EXPECT_EQ(reference.controller_stats.query_retries, 3u);
}

TEST(RetryBackoff, ResponseArrivingNearTheDeadlineStaysDeterministic) {
  // Edge case: shrink query_timeout to straddle the actual response RTT,
  // including the exact virtual instant where the response and the
  // deadline sweep coincide.  Whatever the verdict at each timeout value,
  // it must be identical run-to-run and across shard counts.
  const Scenario scenario = Scenario::parse(R"SCN(
seed 31
switch s1
switch s2
link s1 s2 20
host client 10.0.0.1 s1
host server 10.0.0.2 s2
user client alice users
user server www daemons
launch c1 client alice /usr/bin/curl
launch srv server www /bin/www
listen srv 80
policy begin
block all
pass from any to any port 80 with eq(@dst[userID], www)
policy end
flow f1 c1 10.0.0.2 80
)SCN");

  // Binary-search the smallest timeout that still admits the flow: the
  // boundary is the exact arrival instant of the last response.
  const auto runs_clean = [&](sim::SimTime timeout) {
    ScenarioOptions opts;
    opts.config.query_timeout = timeout;
    const ScenarioResult r = scenario.run(opts);
    return r.controller_stats.query_timeouts == 0;
  };
  sim::SimTime lo = 1 * sim::kMicrosecond;       // times out
  sim::SimTime hi = 50 * sim::kMillisecond;      // comfortably clean
  ASSERT_FALSE(runs_clean(lo));
  ASSERT_TRUE(runs_clean(hi));
  while (lo + 1 < hi) {
    const sim::SimTime mid = lo + (hi - lo) / 2;
    (runs_clean(mid) ? hi : lo) = mid;
  }

  // hi = minimal clean timeout; hi-1 fires the sweep one tick before the
  // response, hi lands the response at-or-before the very deadline.
  for (const sim::SimTime timeout : {hi - 1, hi, hi + 1}) {
    SCOPED_TRACE("timeout " + std::to_string(timeout));
    ScenarioOptions base;
    base.config.query_timeout = timeout;
    base.config.max_query_retries = 1;
    const ScenarioResult reference =
        assert_invariant_across_configs(scenario, base);
    const ScenarioResult again = scenario.run(base);
    EXPECT_TRUE(reference.equivalent_to(again));
  }
}

// --------------------------------------------- degradation arc and recovery

constexpr const char* kRecoveryScenario = R"SCN(
seed 11
switch s1
switch s2
link s1 s2 20
host client 10.0.0.1 s1
host server 10.0.0.2 s2
user client alice users
user server www daemons
launch c1 client alice /usr/bin/curl
launch srv server www /bin/www
listen srv 80
policy begin
block all
pass from any to any port 80 with eq(@dst[userID], www)
policy end
fault host server down_at=0 up_at=200000
fault retry max=1 degraded_ttl_us=20000 probe_delay_us=100000
flow f1 c1 10.0.0.2 80
expect f1 delivered
)SCN";

TEST(Degradation, FullArcFromDegradedCoverToReadmission) {
  // The scenarios/fault_recovery.scn arc: daemon down -> deadline ->
  // retry -> budget spent -> degraded fail-closed cover + probe ->
  // daemon restarts -> probe re-admits on full information.
  const Scenario scenario = Scenario::parse(kRecoveryScenario);
  const ScenarioResult result = assert_invariant_across_configs(scenario);

  EXPECT_TRUE(result.ok()) << "flow not delivered after recovery";
  EXPECT_EQ(result.controller_stats.query_retries, 1u);
  EXPECT_EQ(result.controller_stats.degraded_verdicts, 1u);
  EXPECT_EQ(result.controller_stats.flows_blocked, 1u);
  EXPECT_EQ(result.controller_stats.flows_allowed, 1u);
  EXPECT_EQ(result.fault_stats.daemon_queries_ignored, 2u);

  // Audit: a degraded fail-closed block first, then the recovery pass.
  ASSERT_EQ(result.audit_log.size(), 2u);
  EXPECT_FALSE(result.audit_log[0].allowed);
  EXPECT_TRUE(result.audit_log[0].degraded);
  EXPECT_TRUE(result.audit_log[0].timed_out);
  EXPECT_TRUE(result.audit_log[1].allowed);
  EXPECT_FALSE(result.audit_log[1].degraded);
  EXPECT_LT(result.audit_log[0].time, result.audit_log[1].time);
}

TEST(Degradation, DegradedVerdictsAreNeverCached) {
  // A probe that fires while the daemon is still down must re-enter full
  // admission and degrade AGAIN — if degraded verdicts were cached (or the
  // probe's replayed packet-in hit the cache), the flow could never
  // re-decide on full information afterwards.  Timeline: degrade at 50ms,
  // probe 1 at 110ms (daemon still down, degrade again at 160ms), daemon
  // up at 180ms, probe 2 at 220ms re-admits.
  const Scenario scenario = Scenario::parse(R"SCN(
seed 13
switch s1
host client 10.0.0.1 s1
host server 10.0.0.2 s1
user client alice users
user server www daemons
launch c1 client alice /usr/bin/curl
launch srv server www /bin/www
listen srv 80
policy begin
block all
pass from any to any port 80 with eq(@dst[userID], www)
policy end
fault host server down_at=0 up_at=180000
fault retry max=0 degraded_ttl_us=10000 probe_delay_us=60000
flow f1 c1 10.0.0.2 80
expect f1 delivered
)SCN");
  const ScenarioResult result = scenario.run(ScenarioOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.controller_stats.degraded_verdicts, 2u);
  EXPECT_EQ(result.controller_stats.decision_cache_hits, 0u);
}

// -------------------------------------------- races and schedule exploration

TEST(FaultRaces, TimeoutCoincidingWithControlEpochBumpReplaysIdentically) {
  // A revoke_all lands at the same virtual instant as the timeout sweep:
  // in sharded runs the timeout verdict is dispatched to a shard lane and
  // must be re-decided at commit under the bumped control epoch.  Classic
  // and sharded runs may legitimately order these differently, but a fixed
  // shard count must replay identically.
  const Scenario scenario = Scenario::parse(R"SCN(
seed 37
switch s1
switch s2
link s1 s2 20
host client 10.0.0.1 s1
host server 10.0.0.2 s2
user client alice users
user server www daemons
launch c1 client alice /usr/bin/curl
launch srv server www /bin/www
listen srv 80
policy begin
block all
pass from any to any port 80 with eq(@dst[userID], www)
policy end
fault host server down_at=0 up_at=300000
fault retry max=1 degraded_ttl_us=20000 probe_delay_us=100000
control 150000 revoke_all
flow f1 c1 10.0.0.2 80
)SCN");
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ScenarioOptions options;
    options.shards = shards;
    const ScenarioResult reference = scenario.run(options);
    EXPECT_TRUE(scenario.run(options).equivalent_to(reference));
  }
}

TEST(FaultRaces, ExplorerFindsNoDivergenceUnderFaults) {
  // DPOR over the shard-lane schedules of a faulted run: loss/dup/delay
  // draws happen on the global lane, so no lane reordering may change the
  // injected faults or anything downstream of them.
  const Scenario scenario = Scenario::parse(kRecoveryScenario);
  mc::ExplorerOptions options;
  options.scenario.shards = 2;
  options.mode = mc::Mode::kDpor;
  options.max_schedules = 2000;
  mc::Explorer explorer(scenario, options);
  const mc::Report report = explorer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.schedules_explored, 0u);
}

// ------------------------------------------------------- zero-fault regression

TEST(ZeroFault, RobustnessConfigIsInertWithoutFaults) {
  // With no faults injected, enabling the whole robustness ladder (retries,
  // jitter, degraded covers) must reproduce the legacy result bit for bit:
  // every response arrives before its deadline, so no new code path fires.
  const Scenario scenario = Scenario::parse(R"SCN(
seed 61
switch s0
switch s1
link s0 s1 10
host h0 10.0.0.1 s0
host h1 10.0.0.2 s1
user h0 alice staff
user h1 bobby staff
launch c0 h0 alice /usr/bin/curl
launch d1 h1 bobby /usr/sbin/httpd
listen d1 80
policy begin
block all
pass from any to any port 80
policy end
flow f0 c0 10.0.0.2 80
traffic f0 cbr packets=8 rate=10000
flow f1 c0 10.0.0.2 8080
expect f0 delivered
expect f1 blocked
)SCN");
  const ScenarioResult legacy = scenario.run(ScenarioOptions{});

  ScenarioOptions armed;
  armed.config.max_query_retries = 3;
  armed.config.retry_jitter = 1 * sim::kMillisecond;
  armed.config.degraded_cover_ttl = 20 * sim::kMillisecond;
  const ScenarioResult robust = scenario.run(armed);

  EXPECT_TRUE(robust.equivalent_to(legacy));
  EXPECT_EQ(robust.fault_stats, core::ScenarioFaultStats{});
  EXPECT_EQ(robust.controller_stats.query_retries, 0u);
  EXPECT_EQ(robust.controller_stats.degraded_verdicts, 0u);
  EXPECT_EQ(robust.controller_stats.duplicate_responses, 0u);
  (void)assert_invariant_across_configs(scenario, armed);
}

}  // namespace
}  // namespace identxx
