// Tests for the traffic-model library (src/net/traffic) and the congestion
// knobs it plugs into (DESIGN.md §12): spec parsing, generator packet
// accounting, incast tail drops, AIMD backoff, and the bit-identical
// shard-count invariant under congestion.

#include <gtest/gtest.h>

#include <string>

#include "core/scenario.hpp"
#include "net/traffic/traffic.hpp"
#include "util/error.hpp"

namespace identxx {
namespace {

using core::Scenario;
using core::ScenarioOptions;
using core::ScenarioResult;
using net::traffic::Model;
using net::traffic::TrafficSpec;

// ----------------------------------------------------------- spec parsing

TEST(TrafficSpecTest, ParsesModelsAndKeys) {
  const TrafficSpec cbr = TrafficSpec::parse("cbr,packets=64,rate=20000");
  EXPECT_EQ(cbr.model, Model::kCbr);
  EXPECT_EQ(cbr.packets, 64u);
  EXPECT_EQ(cbr.rate_pps, 20000u);

  const TrafficSpec onoff =
      TrafficSpec::parse("onoff, on_us=100, off_us=300, payload=256");
  EXPECT_EQ(onoff.model, Model::kOnOff);
  EXPECT_EQ(onoff.on_time, 100 * sim::kMicrosecond);
  EXPECT_EQ(onoff.off_time, 300 * sim::kMicrosecond);
  EXPECT_EQ(onoff.payload_bytes, 256u);

  const TrafficSpec pareto = TrafficSpec::parse("pareto,shape=1.3,mean=48.5");
  EXPECT_EQ(pareto.model, Model::kPareto);
  EXPECT_DOUBLE_EQ(pareto.pareto_shape, 1.3);
  EXPECT_DOUBLE_EQ(pareto.pareto_mean, 48.5);

  const TrafficSpec aimd =
      TrafficSpec::parse("aimd,window=4,rtt_us=2000,start_us=500");
  EXPECT_EQ(aimd.model, Model::kAimd);
  EXPECT_DOUBLE_EQ(aimd.aimd_window, 4.0);
  EXPECT_EQ(aimd.aimd_rtt, 2000 * sim::kMicrosecond);
  EXPECT_EQ(aimd.start_delay, 500 * sim::kMicrosecond);

  EXPECT_EQ(TrafficSpec::parse("single").model, Model::kSingle);
  EXPECT_EQ(TrafficSpec::parse("on-off").model, Model::kOnOff);
}

TEST(TrafficSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)TrafficSpec::parse(""), Error);
  EXPECT_THROW((void)TrafficSpec::parse("warp-speed"), Error);
  EXPECT_THROW((void)TrafficSpec::parse("cbr,packets"), Error);
  EXPECT_THROW((void)TrafficSpec::parse("cbr,rate=0"), Error);
  EXPECT_THROW((void)TrafficSpec::parse("cbr,bogus=1"), Error);
  EXPECT_THROW((void)TrafficSpec::parse("pareto,shape=-2"), Error);
  EXPECT_THROW((void)TrafficSpec::parse("aimd,rtt_us=oops"), Error);
}

TEST(TrafficSpecTest, ScenarioDirectiveValidatesEagerly) {
  // Bad model / unknown flow fail at parse time with a line number, not
  // at run time.
  EXPECT_THROW((void)Scenario::parse("switch s1\n"
                                     "host h 10.0.0.1 s1\n"
                                     "user h u g\n"
                                     "launch c h u /bin/x\n"
                                     "flow f1 c 10.0.0.2 80\n"
                                     "traffic f1 warp-speed\n"),
               ParseError);
  EXPECT_THROW((void)Scenario::parse("switch s1\n"
                                     "traffic ghost cbr packets=4\n"),
               ParseError);
}

// --------------------------------------------------------- flow accounting

constexpr char kTwoHostScenario[] = R"(
seed 42
switch s1
host client 10.0.0.1 s1
host server 10.0.0.2 s1
user client alice staff
user server www daemons
launch c1 client alice /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass all
policy end
flow f1 c1 10.0.0.2 80
expect f1 delivered
)";

TEST(TrafficRunTest, CbrSendsExactPacketCount) {
  const Scenario scenario = Scenario::parse(kTwoHostScenario);
  ScenarioOptions options;
  options.traffic = "cbr,packets=16,rate=100000,start_us=1000";
  const ScenarioResult result = scenario.run(options);
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_TRUE(result.flows[0].delivered);
  // SYN + 15 paced payload packets; uncongested, so all arrive.
  EXPECT_EQ(result.flows[0].packets_sent, 16u);
  EXPECT_EQ(result.flows[0].packets_delivered, 16u);
}

TEST(TrafficRunTest, DefaultSingleFlowSendsOnePacket) {
  const ScenarioResult result = Scenario::parse(kTwoHostScenario).run();
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_EQ(result.flows[0].packets_sent, 1u);
  EXPECT_EQ(result.flows[0].packets_delivered, 1u);
  EXPECT_EQ(result.queue_tail_drops, 0u);
}

TEST(TrafficRunTest, ParetoSizeIsSeedDeterministic) {
  std::string text = kTwoHostScenario;
  text += "traffic f1 pareto mean=32 shape=1.5 rate=100000\n";
  const Scenario scenario = Scenario::parse(text);
  const ScenarioResult a = scenario.run(ScenarioOptions{});
  const ScenarioResult b = scenario.run(ScenarioOptions{});
  ASSERT_EQ(a.flows.size(), 1u);
  EXPECT_GE(a.flows[0].packets_sent, 1u);
  EXPECT_EQ(a.flows[0].packets_sent, b.flows[0].packets_sent);
  EXPECT_EQ(a.flows[0].packets_delivered, b.flows[0].packets_delivered);

  ScenarioOptions reseeded;
  reseeded.seed = 1234;
  const ScenarioResult c = scenario.run(reseeded);
  const ScenarioResult d = scenario.run(reseeded);
  EXPECT_EQ(c.flows[0].packets_sent, d.flows[0].packets_sent);
}

TEST(TrafficRunTest, OnOffRespectsDutyCycleTiming) {
  const Scenario scenario = Scenario::parse(kTwoHostScenario);
  ScenarioOptions options;
  options.traffic = "onoff,packets=12,rate=20000,on_us=100,off_us=400";
  const ScenarioResult result = scenario.run(options);
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_EQ(result.flows[0].packets_sent, 12u);
  EXPECT_EQ(result.flows[0].packets_delivered, 12u);
}

// ------------------------------------------------------ incast congestion

// `clients` senders fan in to one server across a single bottleneck link
// declared at 10 Mbps (host attachments stay at the 10G default, so only
// s1—s2 congests).
std::string incast_scenario(int clients) {
  std::string text =
      "seed 42\n"
      "switch s1\n"
      "switch s2\n"
      "link s1 s2 10 10\n"
      "host server 10.0.1.1 s2\n"
      "user server www daemons\n"
      "launch srv server www /usr/sbin/httpd\n"
      "listen srv 80\n";
  for (int i = 0; i < clients; ++i) {
    const std::string n = std::to_string(i);
    text += "host c" + n + " 10.0.0." + std::to_string(10 + i) + " s1\n";
    text += "user c" + n + " u" + n + " staff\n";
    text += "launch l" + n + " c" + n + " u" + n + " /usr/bin/load\n";
  }
  text += "policy begin\npass all\npolicy end\n";
  for (int i = 0; i < clients; ++i) {
    const std::string n = std::to_string(i);
    text += "flow f" + n + " l" + n + " 10.0.1.1 80\n";
    text += "expect f" + n + " delivered\n";
  }
  return text;
}

TEST(CongestionTest, IncastOverflowsBoundedQueues) {
  const Scenario scenario = Scenario::parse(incast_scenario(8));
  ScenarioOptions options;
  options.queue_depth = 8;
  // 8 x 4k pps of 512B packets ≈ 145 Mbps offered into a 10 Mbps wire.
  options.traffic = "cbr,packets=64,rate=4000,payload=512,start_us=5000";
  const ScenarioResult result = scenario.run(options);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.queue_tail_drops, 0u);
  ASSERT_EQ(result.switch_queue_drops.size(), 2u);
  // All congestion is on s1's egress toward s2.
  EXPECT_EQ(result.switch_queue_drops[0], result.queue_tail_drops);
  EXPECT_EQ(result.switch_queue_drops[1], 0u);
  // Every flow still got its SYN through (admission precedes the flood).
  for (const auto& flow : result.flows) {
    EXPECT_TRUE(flow.delivered);
    EXPECT_LT(flow.packets_delivered, flow.packets_sent);
  }
}

TEST(CongestionTest, AimdBacksOffAndReducesDrops) {
  const Scenario scenario = Scenario::parse(incast_scenario(8));
  ScenarioOptions cbr;
  cbr.queue_depth = 8;
  cbr.traffic = "cbr,packets=64,rate=4000,payload=512,start_us=5000";
  const ScenarioResult open_loop = scenario.run(cbr);
  ASSERT_GT(open_loop.queue_tail_drops, 0u);

  ScenarioOptions aimd = cbr;
  aimd.traffic = "aimd,packets=64,payload=512,start_us=5000,rtt_us=4000,window=2";
  const ScenarioResult closed_loop = scenario.run(aimd);
  EXPECT_TRUE(closed_loop.ok());
  // The closed loop sees its own drops and halves; the open loop keeps
  // blasting.  Same offered load, measurably less loss.
  EXPECT_LT(closed_loop.queue_tail_drops, open_loop.queue_tail_drops);
  std::uint64_t delivered_cbr = 0, delivered_aimd = 0;
  for (const auto& flow : open_loop.flows) delivered_cbr += flow.packets_delivered;
  for (const auto& flow : closed_loop.flows) {
    delivered_aimd += flow.packets_delivered;
  }
  EXPECT_GT(delivered_aimd, 0u);
  (void)delivered_cbr;
}

// ---------------------------------------------- shard-count bit-identity

constexpr char kDiamondMix[] = R"(
seed 7
switch s1
switch s2
switch s3
switch s4
link s1 s2 10 100
link s1 s3 10 100
link s2 s4 10 100
link s3 s4 10 100
host a1 10.0.0.1 s1
host a2 10.0.0.2 s1
host a3 10.0.0.3 s1
host b 10.0.1.1 s4
user a1 u1 staff
user a2 u2 staff
user a3 u3 staff
user b www daemons
launch l1 a1 u1 /usr/bin/elephant
launch l2 a2 u2 /usr/bin/mouse
launch l3 a3 u3 /usr/bin/mouse
launch srv b www /usr/sbin/httpd
listen srv 80
policy begin
pass all
policy end
flow f1 l1 10.0.1.1 80
traffic f1 pareto mean=48 shape=1.2 rate=50000 payload=512 start_us=5000
flow f2 l2 10.0.1.1 80
traffic f2 pareto mean=8 shape=2.5 rate=50000 payload=512 start_us=5000
flow f3 l3 10.0.1.1 80
traffic f3 cbr packets=40 rate=50000 payload=512 start_us=5000
expect f1 delivered
expect f2 delivered
expect f3 delivered
)";

ScenarioResult run_sharded(const Scenario& scenario, std::uint32_t shards,
                           std::uint32_t k_paths, std::uint32_t queue_depth,
                           const std::string& traffic = "") {
  ScenarioOptions options;
  options.shards = shards;
  options.k_paths = k_paths;
  options.queue_depth = queue_depth;
  options.traffic = traffic;
  return scenario.run(options);
}

TEST(CongestionTest, ElephantMiceBitIdenticalAcrossShards) {
  const Scenario scenario = Scenario::parse(kDiamondMix);
  const ScenarioResult base = run_sharded(scenario, 1, 2, 4);
  // Replay determinism first: the same configuration twice.
  EXPECT_TRUE(base.equivalent_to(run_sharded(scenario, 1, 2, 4)));
  // Then across shard counts.
  EXPECT_TRUE(base.equivalent_to(run_sharded(scenario, 4, 2, 4)));
}

TEST(CongestionTest, IncastBitIdenticalAcrossShards) {
  const Scenario scenario = Scenario::parse(incast_scenario(8));
  const std::string traffic =
      "cbr,packets=64,rate=4000,payload=512,start_us=5000";
  const ScenarioResult base = run_sharded(scenario, 1, 2, 8, traffic);
  EXPECT_GT(base.queue_tail_drops, 0u);  // the comparison is non-vacuous
  EXPECT_TRUE(base.equivalent_to(run_sharded(scenario, 4, 2, 8, traffic)));
}

// ------------------------------------------------- back-compat defaults

TEST(CongestionTest, IdealizedKnobsReproduceDefaultBehaviour) {
  const Scenario scenario = Scenario::parse(kTwoHostScenario);
  const ScenarioResult implicit = scenario.run(ScenarioOptions{});
  ScenarioOptions explicit_idealized;
  explicit_idealized.k_paths = 1;
  explicit_idealized.link_bandwidth_bps = 0;
  explicit_idealized.queue_depth = 0;
  const ScenarioResult spelled_out = scenario.run(explicit_idealized);
  EXPECT_TRUE(implicit.equivalent_to(spelled_out));
  EXPECT_EQ(implicit.queue_tail_drops, 0u);
}

TEST(CongestionTest, MultipathDeliversUnderEcmp) {
  // Sanity: k_paths > 1 on the diamond still delivers every flow and the
  // selection histogram surfaces in the result.
  const Scenario scenario = Scenario::parse(kDiamondMix);
  const ScenarioResult result = run_sharded(scenario, 0, 2, 0);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.path_cache_stats.misses, 1u);
}

}  // namespace
}  // namespace identxx
