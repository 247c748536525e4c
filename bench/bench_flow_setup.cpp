// B1 / F1: the Figure 1 flow-setup sequence, quantified.
//
// Measures end-to-end flow setup through the full simulated stack —
// packet-in, ident++ queries to both daemons, policy evaluation, path-wide
// entry installation, buffered-packet release — against the baselines
// (Ethane-style: no queries; vanilla firewall: ACL only) across path
// lengths, plus the DESIGN.md §6 ablations (src-only queries, ingress-only
// install, decision caching).
//
// Two numbers matter per configuration:
//   * wall-clock time/op — how fast the controller implementation is;
//   * sim_setup_us       — the *simulated* latency the end-host observes
//                           (propagation + control channel + daemon RTTs).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "controller/admission.hpp"
#include "core/network.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/parser.hpp"

namespace {

using namespace identxx;

enum class Flavour { kIdentxx, kIdentxxSrcOnly, kIdentxxIngressOnly,
                     kIdentxxIngressOnlyCached, kIdentxxIngressOnlyLru,
                     kEthane, kVanilla };

struct Rig {
  explicit Rig(std::int64_t path_len, Flavour flavour) : flavour_(flavour) {
    std::vector<sim::NodeId> switches;
    for (std::int64_t i = 0; i < path_len; ++i) {
      switches.push_back(net.add_switch("s" + std::to_string(i)));
    }
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "10.0.0.2");
    net.link(*client, switches.front());
    for (std::size_t i = 0; i + 1 < switches.size(); ++i) {
      net.link(switches[i], switches[i + 1]);
    }
    net.link(*server, switches.back());

    const char* policy =
        "block all\npass from any to any port 80 with eq(@src[userID], alice)\n";
    switch (flavour) {
      case Flavour::kIdentxx:
        controller = &net.install_controller(policy);
        break;
      case Flavour::kIdentxxSrcOnly: {
        ctrl::ControllerConfig config;
        config.query_both_ends = false;
        controller = &net.install_controller(policy, config);
        break;
      }
      case Flavour::kIdentxxIngressOnly: {
        ctrl::ControllerConfig config;
        config.install_full_path = false;
        controller = &net.install_controller(policy, config);
        break;
      }
      case Flavour::kIdentxxIngressOnlyCached: {
        ctrl::ControllerConfig config;
        config.install_full_path = false;
        config.decision_cache_ttl = 60 * sim::kSecond;
        controller = &net.install_controller(policy, config);
        break;
      }
      case Flavour::kIdentxxIngressOnlyLru: {
        // Capacity-bounded LRU variant of the decision cache (the pipeline
        // swaps in an LruDecisionCache when a capacity is configured).
        ctrl::ControllerConfig config;
        config.install_full_path = false;
        config.decision_cache_ttl = 60 * sim::kSecond;
        config.decision_cache_capacity = 1024;
        controller = &net.install_controller(policy, config);
        break;
      }
      case Flavour::kEthane:
        net.install_ethane_controller(
            "block all\npass from any to any port 80\n");
        break;
      case Flavour::kVanilla: {
        auto& fw = net.install_vanilla_firewall(false);
        ctrl::VanillaFirewall::AclRule rule;
        rule.dst_port_low = 80;
        rule.dst_port_high = 80;
        rule.allow = true;
        fw.add_rule(rule);
        break;
      }
    }
    client->add_user("alice", "staff");
    pid = client->launch("alice", "/usr/bin/curl");
    server->add_user("www", "daemons");
    const int httpd = server->launch("www", "/usr/sbin/httpd");
    server->listen(httpd, 80);
  }

  /// One full flow setup; returns the simulated setup latency (ns).
  sim::SimTime one_flow() {
    if (flavour_ == Flavour::kEthane || flavour_ == Flavour::kVanilla) {
      // Long runs reuse ephemeral ports; flush the baselines' cached flow
      // entries so every iteration measures a fresh decision.  (The
      // ident++ rigs advance the simulated clock past the idle timeout
      // each iteration, so their entries expire naturally.)
      for (const auto sw : net.switch_ids()) {
        net.switch_at(sw).table().remove_if(
            [](const openflow::FlowEntry& e) { return e.cookie != 0; });
      }
    }
    const sim::SimTime start = net.simulator().now();
    const net::FiveTuple flow = client->connect_flow(pid, server->ip(), 80);
    client->send_flow_packet(flow);
    net.run();
    client->close_flow(flow);
    const sim::SimTime delivered = server->last_delivery_time();
    server->clear_delivered();
    return delivered >= start ? delivered - start : -1;
  }

  core::Network net;
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::IdentxxController* controller = nullptr;
  int pid = 0;
  Flavour flavour_;
};

void run_setup_bench(benchmark::State& state, Flavour flavour) {
  Rig rig(state.range(0), flavour);
  double total_sim_us = 0;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const sim::SimTime latency = rig.one_flow();
    if (latency >= 0) {
      total_sim_us += static_cast<double>(latency) / 1000.0;
      ++delivered;
    }
  }
  state.counters["path_len"] = static_cast<double>(state.range(0));
  state.counters["sim_setup_us"] =
      delivered > 0 ? total_sim_us / static_cast<double>(delivered) : 0;
  state.counters["delivered"] = static_cast<double>(delivered);
  state.SetItemsProcessed(state.iterations());
}

void BM_IdentxxFlowSetup(benchmark::State& state) {
  run_setup_bench(state, Flavour::kIdentxx);
}
BENCHMARK(BM_IdentxxFlowSetup)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IdentxxSrcOnlyQuery(benchmark::State& state) {
  run_setup_bench(state, Flavour::kIdentxxSrcOnly);
}
BENCHMARK(BM_IdentxxSrcOnlyQuery)->Arg(4);

void BM_IdentxxIngressOnlyInstall(benchmark::State& state) {
  run_setup_bench(state, Flavour::kIdentxxIngressOnly);
}
BENCHMARK(BM_IdentxxIngressOnlyInstall)->Arg(4);

void BM_IdentxxIngressOnlyWithDecisionCache(benchmark::State& state) {
  run_setup_bench(state, Flavour::kIdentxxIngressOnlyCached);
}
BENCHMARK(BM_IdentxxIngressOnlyWithDecisionCache)->Arg(4);

void BM_IdentxxIngressOnlyWithLruCache(benchmark::State& state) {
  run_setup_bench(state, Flavour::kIdentxxIngressOnlyLru);
}
BENCHMARK(BM_IdentxxIngressOnlyWithLruCache)->Arg(4);

void BM_EthaneFlowSetup(benchmark::State& state) {
  run_setup_bench(state, Flavour::kEthane);
}
BENCHMARK(BM_EthaneFlowSetup)->Arg(1)->Arg(4)->Arg(8);

void BM_VanillaFlowSetup(benchmark::State& state) {
  run_setup_bench(state, Flavour::kVanilla);
}
BENCHMARK(BM_VanillaFlowSetup)->Arg(1)->Arg(4)->Arg(8);

/// Signed flow setup with a shared attestation: `range(0)` clients all run
/// the same vendor-signed application, and every iteration launches one
/// flow per client simultaneously.  Each admission evaluates the
/// Fig-5-style verify() predicate and is decided on its own; the per-key
/// comb table (built once at policy load) and the verifier memo answer
/// every verify after the first, so the cost per flow is the admission
/// path plus a memo hit.
void BM_IdentxxSignedFlowSetupSharedAttestation(benchmark::State& state) {
  const std::int64_t kClients = state.range(0);
  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);

  const crypto::PrivateKey vendor = crypto::PrivateKey::from_seed("vendor");
  const std::string exe = "/usr/bin/app";
  const std::string requirements = "pass from any to any port 80";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  const crypto::Signature req_sig = vendor.sign(
      proto::signed_message({exe_hash, "app", requirements}));
  net.install_controller(
      "dict <pubkeys> { vendor : " + vendor.public_key().to_hex() + " }\n"
      "block all\n"
      "pass from any to any port 80 with verify(@src[req-sig], "
      "@pubkeys[vendor], @src[exe-hash], @src[app-name], "
      "@src[requirements])\n");
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  std::vector<host::Host*> clients;
  std::vector<int> pids;
  for (std::int64_t i = 0; i < kClients; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", exe);
    proto::DaemonConfig config;
    proto::AppConfig app;
    app.exe_path = exe;
    app.pairs = {{"name", "app"},
                 {"requirements", requirements},
                 {"req-sig", req_sig.to_hex()}};
    config.apps.push_back(app);
    c.daemon().add_config(proto::ConfigTrust::kUser, config);
    clients.push_back(&c);
    pids.push_back(pid);
  }

  std::int64_t delivered = 0;
  for (auto _ : state) {
    std::vector<net::FiveTuple> flows;
    flows.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const net::FiveTuple flow =
          clients[i]->connect_flow(pids[i], server.ip(), 80);
      clients[i]->send_flow_packet(flow);
      flows.push_back(flow);
    }
    net.run();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      clients[i]->close_flow(flows[i]);
    }
    delivered += static_cast<std::int64_t>(server.delivered().size());
    server.clear_delivered();
  }
  state.counters["clients"] = static_cast<double>(kClients);
  state.counters["delivered"] = static_cast<double>(delivered);
  state.SetItemsProcessed(state.iterations() * kClients);
}
BENCHMARK(BM_IdentxxSignedFlowSetupSharedAttestation)->Arg(1)->Arg(8)->Arg(32);

/// Sharded admission domains (DESIGN.md §10): `range(0)` shards admit a
/// 32-flow burst whose per-flow cost is one full Schnorr verification
/// (every client carries a *distinct* signed attestation, and the
/// verification memos are reset between iterations, outside the timed
/// region).  All bursts land at the same virtual instant, so the
/// per-domain decide batches share one wave and run one lane after the
/// other.  The work is the same at every shard count; what this measures
/// is the serial cost of sharding — the shard map, per-lane dispatch and
/// per-domain memos — against the 1-shard run.
void BM_ShardedFlowSetup(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  constexpr std::int64_t kClients = 32;

  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);

  const crypto::PrivateKey vendor = crypto::PrivateKey::from_seed("vendor");
  const std::string exe = "/usr/bin/app";
  const std::string requirements = "pass from any to any port 80";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  auto& sharded = net.install_sharded_controller(
      "dict <pubkeys> { vendor : " + vendor.public_key().to_hex() + " }\n"
      "block all\n"
      "pass from any to any port 80 with verify(@src[req-sig], "
      "@pubkeys[vendor], @src[exe-hash], @src[app-name], "
      "@src[requirements])\n",
      shards);
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  std::vector<host::Host*> clients;
  std::vector<int> pids;
  for (std::int64_t i = 0; i < kClients; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", exe);
    // Fixed-width names keep every daemon response byte-identical in
    // length, so all responses arrive in the same virtual-clock wave and
    // the shard lanes fill together.
    char name[8];
    std::snprintf(name, sizeof name, "app%02d", static_cast<int>(i));
    const crypto::Signature sig =
        vendor.sign(proto::signed_message({exe_hash, name, requirements}));
    proto::DaemonConfig config;
    proto::AppConfig app;
    app.exe_path = exe;
    app.pairs = {{"name", name},
                 {"requirements", requirements},
                 {"req-sig", sig.to_hex()}};
    config.apps.push_back(app);
    c.daemon().add_config(proto::ConfigTrust::kUser, config);
    clients.push_back(&c);
    pids.push_back(pid);
  }

  std::int64_t delivered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Reset each domain's verification memo (generation bump) so every
    // iteration pays full verifications; the comb-table rebuild happens
    // here, outside the timed region.
    for (std::uint32_t d = 0; d < sharded.shard_count(); ++d) {
      auto* engine = dynamic_cast<ctrl::PolicyDecisionEngine*>(
          &sharded.domain(d).decision_engine());
      if (engine != nullptr && engine->verifier() != nullptr) {
        engine->verifier()->invalidate_key(vendor.public_key());
        engine->verifier()->register_key(vendor.public_key());
      }
    }
    state.ResumeTiming();

    std::vector<net::FiveTuple> flows;
    flows.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const net::FiveTuple flow =
          clients[i]->connect_flow(pids[i], server.ip(), 80);
      clients[i]->send_flow_packet(flow);
      flows.push_back(flow);
    }
    net.run();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      clients[i]->close_flow(flows[i]);
    }
    delivered += static_cast<std::int64_t>(server.delivered().size());
    server.clear_delivered();
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["delivered"] = static_cast<double>(delivered);
  state.SetItemsProcessed(state.iterations() * kClients);
}
BENCHMARK(BM_ShardedFlowSetup)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Decision caching ablation, part 1: packets of an established flow ride
/// the installed entries (no controller involvement).
void BM_CachedForwarding(benchmark::State& state) {
  Rig rig(state.range(0), Flavour::kIdentxx);
  const net::FiveTuple flow = rig.client->connect_flow(rig.pid,
                                                       rig.server->ip(), 80);
  rig.client->send_flow_packet(flow);
  rig.net.run();  // set up once
  double total_sim_us = 0;
  for (auto _ : state) {
    const sim::SimTime start = rig.net.simulator().now();
    rig.client->send_flow_packet(flow, "payload", net::TcpFlags::kPsh);
    rig.net.run();
    total_sim_us +=
        static_cast<double>(rig.server->last_delivery_time() - start) / 1000.0;
    rig.server->clear_delivered();
  }
  state.counters["path_len"] = static_cast<double>(state.range(0));
  state.counters["sim_fwd_us"] =
      total_sim_us / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedForwarding)->Arg(1)->Arg(4)->Arg(8);

/// Decision caching ablation, part 2: revoke installed entries before each
/// packet, forcing a full re-decision (queries and all) every time.
void BM_UncachedEveryPacket(benchmark::State& state) {
  Rig rig(state.range(0), Flavour::kIdentxx);
  const net::FiveTuple flow = rig.client->connect_flow(rig.pid,
                                                       rig.server->ip(), 80);
  rig.client->send_flow_packet(flow);
  rig.net.run();
  double total_sim_us = 0;
  for (auto _ : state) {
    rig.controller->revoke_all();
    const sim::SimTime start = rig.net.simulator().now();
    rig.client->send_flow_packet(flow, "payload", net::TcpFlags::kPsh);
    rig.net.run();
    total_sim_us +=
        static_cast<double>(rig.server->last_delivery_time() - start) / 1000.0;
    rig.server->clear_delivered();
  }
  state.counters["path_len"] = static_cast<double>(state.range(0));
  state.counters["sim_fwd_us"] =
      total_sim_us / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UncachedEveryPacket)->Arg(4);

/// Negative-cache ablation: with drop entries installed, retries of a
/// blocked flow die in the switch; without them every retry re-runs the
/// whole decision (queries included) at the controller.
void run_blocked_retry_bench(benchmark::State& state, bool install_drops) {
  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.install_drop_entries = install_drops;
  auto& controller = net.install_controller("block all\n", config);
  client.add_user("eve", "users");
  const int pid = client.launch("eve", "/bin/flood");
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/bin/srv");
  server.listen(srv, 80);

  const net::FiveTuple flow = client.connect_flow(pid, server.ip(), 80);
  client.send_flow_packet(flow);
  net.run();  // first decision (blocked)
  for (auto _ : state) {
    client.send_flow_packet(flow, "retry");
    net.run();
  }
  state.counters["controller_packet_ins"] =
      static_cast<double>(controller.stats().packet_ins);
  state.SetItemsProcessed(state.iterations());
}

void BM_BlockedRetryWithDropEntries(benchmark::State& state) {
  run_blocked_retry_bench(state, true);
}
BENCHMARK(BM_BlockedRetryWithDropEntries);

void BM_BlockedRetryNoDropEntries(benchmark::State& state) {
  run_blocked_retry_bench(state, false);
}
BENCHMARK(BM_BlockedRetryNoDropEntries);

/// Rule-cache aggregation ablation: a port scan (one source walking dst
/// ports) against `block all`.  Per-flow exact installs pay one controller
/// round trip AND one table entry per probe; the aggregating strategy
/// caches the covering rule once and the rest of the scan dies in the
/// switch.  Counters: flow_entries = drop entries installed at the ingress
/// switch, packet_ins = probes that reached the controller.
void run_port_scan_bench(benchmark::State& state, bool aggregate) {
  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& attacker = net.add_host("attacker", "10.0.0.66");
  auto& victim = net.add_host("victim", "10.0.0.2");
  net.link(attacker, s1);
  net.link(victim, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = aggregate;
  config.flow_idle_timeout = 0;  // entries persist across the whole scan
  auto& controller = net.install_controller("block all\n", config);
  attacker.add_user("eve", "users");
  const int pid = attacker.launch("eve", "/bin/scan");

  std::uint16_t port = 1;
  for (auto _ : state) {
    net.start_flow(attacker, pid, "10.0.0.2", port);
    net.run();
    port = static_cast<std::uint16_t>(port == 65535 ? 1 : port + 1);
  }
  std::size_t entries = 0;
  for (const auto& entry : net.switch_at(s1).table().entries()) {
    if (entry.cookie != 0) ++entries;
  }
  state.counters["flow_entries"] = static_cast<double>(entries);
  state.counters["packet_ins"] =
      static_cast<double>(controller.stats().packet_ins);
  state.SetItemsProcessed(state.iterations());
}

void BM_PortScanPerFlowInstall(benchmark::State& state) {
  run_port_scan_bench(state, false);
}
BENCHMARK(BM_PortScanPerFlowInstall);

void BM_PortScanAggregatedInstall(benchmark::State& state) {
  run_port_scan_bench(state, true);
}
BENCHMARK(BM_PortScanAggregatedInstall);

/// Topology::path memoization ablation: the exact query the controller
/// issues per admission, repeated over a fixed attachment pair (the
/// steady-state shape — most admissions share few (src,dst) switch pairs).
void run_path_query_bench(benchmark::State& state, bool cached) {
  core::Network net;
  std::vector<sim::NodeId> switches;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    switches.push_back(net.add_switch("s" + std::to_string(i)));
  }
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, switches.front());
  for (std::size_t i = 0; i + 1 < switches.size(); ++i) {
    net.link(switches[i], switches[i + 1]);
  }
  net.link(server, switches.back());
  net.topology().set_path_cache_enabled(cached);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.topology().path(client.id(), server.id()));
  }
  state.counters["path_len"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(state.iterations());
}

void BM_PathQueryUncachedBfs(benchmark::State& state) {
  run_path_query_bench(state, false);
}
BENCHMARK(BM_PathQueryUncachedBfs)->Arg(2)->Arg(8)->Arg(32);

void BM_PathQueryCached(benchmark::State& state) {
  run_path_query_bench(state, true);
}
BENCHMARK(BM_PathQueryCached)->Arg(2)->Arg(8)->Arg(32);

/// The DecisionEngine's batched entry point in isolation: decide_many over
/// a packet-in storm where `dup_factor` contexts repeat each 5-tuple (the
/// shape a shared query deadline produces).  The batch memo evaluates each
/// distinct flow once, so time/op should scale with unique flows, not
/// contexts.
void BM_DecideManyBatch(benchmark::State& state) {
  ctrl::PolicyDecisionEngine engine(pf::parse(
      "block all\npass from any to any port 80\n"
      "pass from any to any port 443\n",
      "bench"));
  const std::int64_t unique = state.range(0);
  const std::int64_t dup_factor = state.range(1);
  std::vector<ctrl::AdmissionContext> contexts;
  contexts.reserve(static_cast<std::size_t>(unique * dup_factor));
  for (std::int64_t i = 0; i < unique; ++i) {
    ctrl::AdmissionContext ctx;
    ctx.flow.src_ip = net::Ipv4Address{0x0a000001u + static_cast<std::uint32_t>(i)};
    ctx.flow.dst_ip = net::Ipv4Address{0xc0a80101u};
    ctx.flow.proto = net::IpProto::kTcp;
    ctx.flow.src_port = static_cast<std::uint16_t>(20000 + i);
    ctx.flow.dst_port = (i % 2) == 0 ? 80 : 23;
    for (std::int64_t d = 0; d < dup_factor; ++d) contexts.push_back(ctx);
  }
  std::vector<const ctrl::AdmissionContext*> batch;
  batch.reserve(contexts.size());
  for (const auto& ctx : contexts) batch.push_back(&ctx);

  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide_many(batch));
  }
  state.counters["unique_flows"] = static_cast<double>(unique);
  state.counters["batch_size"] = static_cast<double>(batch.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_DecideManyBatch)
    ->Args({16, 1})
    ->Args({16, 8})
    ->Args({256, 1})
    ->Args({256, 8});

}  // namespace

BENCHMARK_MAIN();
