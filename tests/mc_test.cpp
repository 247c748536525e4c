// Determinism model checker (DESIGN.md §13): the mc::Explorer must prove
// schedule invariance for the control-plane race scenarios (revoke racing
// admission, set_policy mid-burst, an ECMP epoch bump), must catch both
// injected determinism mutations as self-tests, and the DPOR independence
// oracle must prune commuting schedules without missing conflicting ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "mc/explorer.hpp"
#include "sim/schedule.hpp"

namespace identxx {
namespace {

using core::Scenario;
using core::ScenarioOptions;
using core::ScenarioResult;
using mc::Explorer;
using mc::ExplorerOptions;
using mc::Mode;
using mc::Report;

// Two flows pinned to distinct shards so every admission wave has two
// shard lanes to reorder; the raced control op lands between a decision's
// shard-lane dispatch and its global-lane commit.
constexpr char kRevokeRacingAdmission[] = R"(
switch s1
host c1h 10.0.0.1 s1
host c2h 10.0.0.2 s1
host server 10.0.0.3 s1
user c1h alice staff
user c2h bobby staff
user server www daemons
launch c1 c1h alice /usr/bin/curl
launch c2 c2h bobby /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass from any to any port 80
policy end
pin c1h 0
pin c2h 1
flow f1 c1 10.0.0.3 80
flow f2 c2 10.0.0.3 80
control 0 raced revoke_all
)";

// A raced policy flip to `block all`: the control epoch bumps between
// dispatch and commit, so the commit-time re-decision must see the new
// engine and block the flow — the expectation encodes the healthy verdict.
constexpr char kSetPolicyMidBurst[] = R"(
switch s1
host c1h 10.0.0.1 s1
host c2h 10.0.0.2 s1
host server 10.0.0.3 s1
user c1h alice staff
user c2h bobby staff
user server www daemons
launch c1 c1h alice /usr/bin/curl
launch c2 c2h bobby /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass from any to any port 80
policy end
pin c1h 0
pin c2h 1
flow f1 c1 10.0.0.3 80
flow f2 c2 10.0.0.3 80
control 0 raced set_policy "block all"
expect f1 blocked
expect f2 blocked
)";

// Diamond topology with 2 equal-cost paths; the raced set_multipath bumps
// the topology's path epoch mid-admission, racing the path-memo flush
// against cached_path_set readers on the shard lanes.
constexpr char kEcmpEpochBump[] = R"(
switch s1
switch s2
switch s3
switch s4
link s1 s2 10
link s1 s3 10
link s2 s4 10
link s3 s4 10
host c1h 10.0.0.1 s1
host c2h 10.0.0.2 s1
host server 10.0.1.1 s4
user c1h alice staff
user c2h bobby staff
user server www daemons
launch c1 c1h alice /usr/bin/curl
launch c2 c2h bobby /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass from any to any port 80
policy end
pin c1h 0
pin c2h 1
flow f1 c1 10.0.1.1 80
flow f2 c2 10.0.1.1 80
control 0 raced set_multipath 2 7
expect f1 delivered
expect f2 delivered
)";

// Three flows in three distinct shards, all released SYNs contending for
// the 1 Mbps s1->s2 bottleneck behind a depth-1 output queue: the commit
// (packet_out) order picks the tail-drop victim, so the merged commit
// sequence is directly observable in per-flow delivery.  Identity strings
// are all the same length so the three daemon responses land in the same
// virtual-time wave.  Queries are src-only to keep the admission round
// trip off the bottleneck link.
constexpr char kBottleneckCommitOrder[] = R"(
switch s1
switch s2
link s1 s2 10 1
host c1h 10.0.0.1 s1
host c2h 10.0.0.2 s1
host c3h 10.0.0.3 s1
host server 10.0.1.1 s2
user c1h alice staff
user c2h bobby staff
user c3h carol staff
user server www daemons
launch c1 c1h alice /usr/bin/curl
launch c2 c2h bobby /usr/bin/curl
launch c3 c3h carol /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass from any to any port 80
policy end
pin c1h 0
pin c2h 1
pin c3h 2
flow f1 c1 10.0.1.1 80
flow f2 c2 10.0.1.1 80
flow f3 c3 10.0.1.1 80
expect f1 delivered
expect f2 delivered
expect f3 blocked
)";

// Two fully disjoint admission islands: different switches, different
// cookie namespaces, no control churn — the two shard lanes commute, so
// DPOR must collapse both orders into one Mazurkiewicz class.
constexpr char kDisjointIslands[] = R"(
switch s1
switch s2
host c1h 10.0.0.1 s1
host srv1 10.0.0.2 s1
host c2h 10.0.1.1 s2
host srv2 10.0.1.2 s2
user c1h alice staff
user srv1 www daemons
user c2h bobby staff
user srv2 www daemons
launch c1 c1h alice /usr/bin/curl
launch s1d srv1 www /usr/sbin/httpd
launch c2 c2h bobby /usr/bin/curl
launch s2d srv2 www /usr/sbin/httpd
listen s1d 80
listen s2d 80
policy begin
pass from any to any port 80
policy end
pin c1h 0
pin c2h 1
flow f1 c1 10.0.0.2 80
flow f2 c2 10.0.1.2 80
expect f1 delivered
expect f2 delivered
)";

[[nodiscard]] Report explore(const char* text, std::uint32_t shards,
                             Mode mode = Mode::kExhaustive,
                             ScenarioOptions base = {}) {
  const Scenario scenario = Scenario::parse(text);
  ExplorerOptions options;
  options.scenario = std::move(base);
  options.scenario.shards = shards;
  options.mode = mode;
  Explorer explorer(scenario, options);
  return explorer.run();
}

TEST(McExplorer, RevokeRacingAdmissionIsScheduleInvariant) {
  for (const std::uint32_t shards : {2u, 3u}) {
    const Report report = explore(kRevokeRacingAdmission, shards);
    EXPECT_TRUE(report.ok()) << "shards=" << shards << "\n"
                             << report.summary();
    EXPECT_GE(report.choice_points, 1u) << "shards=" << shards;
    EXPECT_GE(report.schedules_explored, 2u) << "shards=" << shards;
    EXPECT_FALSE(report.budget_exhausted);
  }
}

TEST(McExplorer, SetPolicyMidBurstIsScheduleInvariant) {
  for (const std::uint32_t shards : {2u, 3u}) {
    const Report report = explore(kSetPolicyMidBurst, shards);
    EXPECT_TRUE(report.ok()) << "shards=" << shards << "\n"
                             << report.summary();
    EXPECT_GE(report.choice_points, 1u) << "shards=" << shards;
    EXPECT_GE(report.schedules_explored, 2u) << "shards=" << shards;
  }
}

TEST(McExplorer, EcmpEpochBumpIsScheduleInvariant) {
  // Satellite of DESIGN.md §12: the raced set_multipath bumps the path
  // epoch while shard-lane work reads the path memo; every schedule must
  // still pick identical paths.
  ScenarioOptions base;
  base.k_paths = 2;
  for (const std::uint32_t shards : {2u, 3u}) {
    const Report report = explore(kEcmpEpochBump, shards, Mode::kExhaustive,
                                  base);
    EXPECT_TRUE(report.ok()) << "shards=" << shards << "\n"
                             << report.summary();
    EXPECT_GE(report.choice_points, 1u) << "shards=" << shards;
  }
}

TEST(McExplorer, EcmpEpochBumpInvalidatesPathCacheMidRun) {
  // Sanity for the scenario above: a mid-run set_multipath really does
  // clear a populated path cache (the epoch machinery is exercised, not
  // idle).  The bump is plain (not raced) and scheduled after the t=0
  // admissions commit, so the cache holds both pair entries by then.
  std::string text = kEcmpEpochBump;
  const std::string raced = "control 0 raced set_multipath 2 7";
  text.replace(text.find(raced), raced.size(),
               "control 1000 set_multipath 2 7");
  const Scenario scenario = Scenario::parse(text);
  ScenarioOptions options;
  options.shards = 2;
  options.k_paths = 2;
  const ScenarioResult result = scenario.run(options);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.path_cache_stats.invalidations, 1u);
}

TEST(McExplorer, CatchesSkippedEpochRedecide) {
  // Injected mutation A: the controller keeps the stale pre-set_policy
  // verdict when the control epoch moved between dispatch and commit.
  // The mutation is schedule-invariant, so it surfaces as an expectation
  // violation already under the canonical schedule.
  ScenarioOptions base;
  base.config.fault_skip_epoch_redecide = true;
  const Report report = explore(kSetPolicyMidBurst, 2, Mode::kExhaustive,
                                base);
  ASSERT_FALSE(report.ok()) << report.summary();
  EXPECT_TRUE(report.divergence->schedule.empty()) << report.summary();
  EXPECT_NE(report.divergence->detail.find("expectation"), std::string::npos);
}

TEST(McExplorer, HealthyBottleneckCommitOrderIsScheduleInvariant) {
  ScenarioOptions base;
  base.queue_depth = 1;
  base.config.query_both_ends = false;
  const Report report = explore(kBottleneckCommitOrder, 3, Mode::kExhaustive,
                                base);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Three lanes in the contended wave: the canonical run plus all five
  // alternative permutations.
  EXPECT_GE(report.schedules_explored, 6u);
}

TEST(McExplorer, CatchesMergeInArrivalOrder) {
  // Injected mutation B: the simulator merges staged cross-lane commits in
  // modeled arrival (execution) order, so a permuted schedule moves the
  // bottleneck tail-drop onto a different flow.
  ScenarioOptions base;
  base.queue_depth = 1;
  base.config.query_both_ends = false;
  base.fault_merge_arrival_order = true;
  const Report report = explore(kBottleneckCommitOrder, 3, Mode::kExhaustive,
                                base);
  ASSERT_FALSE(report.ok()) << report.summary();
  // The minimized repro is a real reordering (non-empty, non-canonical).
  ASSERT_FALSE(report.divergence->schedule.empty()) << report.summary();
  const mc::WaveChoice& wave = report.divergence->schedule.back();
  std::vector<sim::LaneId> canonical = wave.order;
  std::sort(canonical.begin(), canonical.end());
  EXPECT_NE(wave.order, canonical) << report.summary();
}

TEST(McExplorer, RandomModeCatchesMergeInArrivalOrder) {
  ScenarioOptions base;
  base.queue_depth = 1;
  base.config.query_both_ends = false;
  base.fault_merge_arrival_order = true;
  const Report report = explore(kBottleneckCommitOrder, 3, Mode::kRandom,
                                base);
  EXPECT_FALSE(report.ok()) << report.summary();
}

TEST(McExplorer, DporPrunesCommutingLanes) {
  const Report exhaustive = explore(kDisjointIslands, 2, Mode::kExhaustive);
  const Report dpor = explore(kDisjointIslands, 2, Mode::kDpor);
  EXPECT_TRUE(exhaustive.ok()) << exhaustive.summary();
  EXPECT_TRUE(dpor.ok()) << dpor.summary();
  // Disjoint islands commute: both lane orders fall into one trace class.
  EXPECT_GE(dpor.schedules_pruned, 1u);
  EXPECT_LT(dpor.schedules_explored, exhaustive.schedules_explored);
}

TEST(McExplorer, DporKeepsConflictingLanes) {
  // The bottleneck scenario's lanes all write the same switch, so DPOR
  // must not prune anything — every permutation is its own trace class.
  ScenarioOptions base;
  base.queue_depth = 1;
  base.config.query_both_ends = false;
  const Report exhaustive = explore(kBottleneckCommitOrder, 3,
                                    Mode::kExhaustive, base);
  const Report dpor = explore(kBottleneckCommitOrder, 3, Mode::kDpor, base);
  EXPECT_TRUE(dpor.ok()) << dpor.summary();
  EXPECT_EQ(dpor.schedules_pruned, 0u);
  EXPECT_EQ(dpor.schedules_explored, exhaustive.schedules_explored);
}

/// Keeps every wave canonical while exercising the controller plumbing.
class IdentityController final : public sim::ScheduleController {
 public:
  void plan_wave(sim::SimTime, std::vector<sim::LaneId>&) override {
    ++waves_;
  }
  void on_access(sim::LaneId, const sim::LaneAccess&) override {}
  [[nodiscard]] std::uint64_t waves() const noexcept { return waves_; }

 private:
  std::uint64_t waves_ = 0;
};

TEST(McExplorer, IdentityControllerIsBitIdenticalToUncontrolled) {
  // Attaching a controller that never reorders must not perturb anything:
  // the instrumented (note_access, per-event scoping) run and the plain
  // run produce equivalent results.
  const Scenario scenario = Scenario::parse(kSetPolicyMidBurst);
  ScenarioOptions plain;
  plain.shards = 2;
  const ScenarioResult uncontrolled = scenario.run(plain);

  IdentityController identity;
  ScenarioOptions controlled = plain;
  controlled.schedule_controller = &identity;
  const ScenarioResult result = scenario.run(controlled);

  EXPECT_TRUE(result.equivalent_to(uncontrolled));
  EXPECT_GE(identity.waves(), 1u);
}

}  // namespace
}  // namespace identxx
