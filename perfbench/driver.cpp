// Wall-clock admission benchmark driver.
//
//   admission_driver --workload <identity|attest|attest_repeat>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Builds one deployment, offers new flows to it on a fixed wall-clock
// schedule and prints one JSON object on its last stdout line (run.py
// checks and forwards it).
//
// Load model: open loop.  Flow i is due at t0 + i / rate whether or not the
// controller kept up; every flow due by "now" is injected and the simulator
// runs until the next flow's virtual due time.  A flow's admission latency
// runs from its due time to the return of the controller call that decided
// it (verdict rendered, entries installed, buffered packet released), so a
// stall shows up in the latency of every flow queued behind it.
//
// Virtual time follows the offered schedule, not the wall clock: flow i
// enters the network at virtual time i / rate however the flows were grouped
// into batches, so the program's time-based state (timeouts, sweep windows)
// sees the same arrivals whatever its speed.  The modelled link and control
// delays are short enough that every admission completes in virtual time
// before the next flow is due; they cost no wall time, only the CPU the
// program spends on admission does.
//
// Layer trace (--trace 1): the program's layers are timed from the outside,
// through the public seams each one exposes — switch and host nodes, the
// switch->controller channel, the decision engine and the `verify` policy
// builtin.  Each span's self time (its duration minus its child spans) is
// charged to its layer, so the layers add up to traced_us; what busy_us
// holds beyond that is this driver's own per-flow bookkeeping.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "controller/identxx_controller.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "host/host.hpp"
#include "identxx/daemon_config.hpp"
#include "openflow/topology.hpp"
#include "pf/functions.hpp"
#include "pf/parser.hpp"

namespace {

using namespace identxx;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Outside-in layer trace
// ---------------------------------------------------------------------------

enum Layer : std::size_t {
  kSim,         // simulator event core: run() minus the node handlers
  kSwitch,      // OpenFlow datapath: table lookup, forward, punt
  kDaemon,      // host receiving an ident++ query: daemon answer + reply
  kHost,        // host receiving application data
  kController,  // controller: wire parse, dictionaries, plan, install, release
  kDecide,      // decision engine: PF+=2 evaluation
  kVerify,      // `verify` builtin: Schnorr verification, memo, batch
  kInject,      // client opening a flow and emitting its first packet
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim", "switch", "daemon", "host", "ctrl", "decide", "verify", "inject"};

struct Tracer {
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child = 0;
  };
  bool enabled = false;
  std::vector<Frame> stack;
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};
};

Tracer g_trace;

class Span {
 public:
  explicit Span(Layer layer) : active_(g_trace.enabled) {
    if (active_) g_trace.stack.push_back({layer, now_ns()});
  }
  ~Span() {
    if (!active_) return;
    const Tracer::Frame frame = g_trace.stack.back();
    g_trace.stack.pop_back();
    const std::int64_t duration = now_ns() - frame.start;
    g_trace.self_ns[frame.layer] += duration - frame.child;
    ++g_trace.spans[frame.layer];
    if (!g_trace.stack.empty()) g_trace.stack.back().child += duration;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

class TracedSwitch : public openflow::Switch {
 public:
  using Switch::Switch;
  void on_packet(const net::Packet& packet, sim::PortId in_port) override {
    Span span(kSwitch);
    Switch::on_packet(packet, in_port);
  }
};

class TracedHost : public host::Host {
 public:
  using Host::Host;
  void on_packet(const net::Packet& packet, sim::PortId in_port) override {
    Span span(packet.five_tuple().dst_port == proto::kIdentPort ? kDaemon
                                                                 : kHost);
    Host::on_packet(packet, in_port);
  }
};

class TracedEngine : public ctrl::DecisionEngine {
 public:
  explicit TracedEngine(std::unique_ptr<ctrl::DecisionEngine> inner)
      : inner_(std::move(inner)) {}
  ctrl::AdmissionDecision decide(const ctrl::AdmissionContext& ctx) override {
    Span span(kDecide);
    return inner_->decide(ctx);
  }
  std::vector<ctrl::AdmissionDecision> decide_many(
      const std::vector<const ctrl::AdmissionContext*>& batch) override {
    Span span(kDecide);
    return inner_->decide_many(batch);
  }

 private:
  std::unique_ptr<ctrl::DecisionEngine> inner_;
};

/// The builtins, with `verify` and its batch preparer timed as one layer.
pf::FunctionRegistry traced_registry() {
  pf::FunctionRegistry registry = pf::FunctionRegistry::with_builtins();
  const pf::PolicyFunction verify = *registry.find("verify");
  registry.register_function(
      "verify",
      [verify](const pf::EvalContext& ctx, const pf::FuncCall& call,
               const std::vector<pf::Value>& args) {
        Span span(kVerify);
        return verify(ctx, call, args);
      },
      registry.flow_invariant("verify"));
  if (const pf::BatchPreparer* prepare = registry.batch_preparer("verify")) {
    registry.register_batch_preparer(
        "verify", [prepare = *prepare](
                      const std::vector<std::vector<pf::Value>>& calls) {
          Span span(kVerify);
          prepare(calls);
        });
  }
  return registry;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool attested;
  /// Every client runs the same signed applications, so attestations repeat
  /// across flows and the verifier's memo answers them.
  bool shared_attestations;
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"identity", false, false},
    {"attest", true, false},
    {"attest_repeat", true, true},
}};

/// Offered load of every workload.  Fixed, not derived from a measurement,
/// so a slower program builds a backlog instead of being offered less.  It
/// stays below 4096 flows/s: past that, more than 8192 daemon responses
/// arrive per virtual second and the controller's duplicate-response memo
/// (swept of entries older than 1 s whenever it holds more than 8192) is
/// swept on every response, and no workload keeps up.
constexpr double kRateFps = 3000;

constexpr int kEdgeSwitches = 4;
constexpr int kClientsPerEdge = 16;
constexpr int kClients = kEdgeSwitches * kClientsPerEdge;
constexpr int kServers = 8;
/// Signed applications per client.  kClients * kAppsPerClient distinct
/// attestations exceed the verifier's default memo (4096 entries), and
/// `attest` visits them in a cycle, so every one of its verifications misses
/// the memo (verify_misses_per_flow in the trace shows it).
constexpr int kAppsPerClient = 72;
constexpr int kIdentityUsers = 4;  // staff, eng, admins, guests
/// Flow-table capacity of every switch.  Entries expire lazily, so a busy
/// switch runs with a full table, evicting; the warm-up admits enough flows
/// (about 1.2 per edge-table slot) that measurement starts in that steady
/// state rather than in the transient of tables growing from empty.
constexpr std::size_t kTableCapacity = 1024;
constexpr std::uint64_t kWarmupFlows = 5000;
/// Modelled delays of a single-rack deployment.  An admission (punt, two
/// daemon queries, install, release) then takes well under the shortest
/// inter-arrival gap of any workload in virtual time.
constexpr sim::SimTime kLinkLatency = 1 * sim::kMicrosecond;
constexpr sim::SimTime kControlLatency = 5 * sim::kMicrosecond;
/// The measured interval is cut into windows of kWindowNs; after each, the
/// deployment is built kSetupsPerWindow more times to sample set-up.
constexpr std::int64_t kWindowNs = 500'000'000;
constexpr int kSetupsPerWindow = 3;
/// The machine is shared.  The load of its other tenants slows the program's
/// memory-bound work by up to 1.7x, for seconds at a time, during more or
/// less of every run, and so moves any figure pooled over a run; it only
/// ever adds time.  The end-to-end figures are therefore a low quantile over
/// the run — of the windows' median latencies, and of the set-up samples —
/// which is the cost when nothing else contends.  A change to the program
/// moves every window and every sample, so it moves these too; the trace
/// reports latency percentiles pooled over the whole run.
constexpr double kQuietQuantile = 0.1;

const char* const kIdentityPolicy =
    "block all\n"
    "pass from any to any port 80 with eq(@src[groupID], staff)\n"
    "pass from any to any port 80 with eq(@src[groupID], eng)\n"
    "pass from any to any port 22 with eq(@src[groupID], admins) "
    "with eq(@dst[userID], sshd)\n";

const char* const kRequirements = "pass from any to any port 80";

const crypto::PrivateKey& vendor_key() {
  static const crypto::PrivateKey key = crypto::PrivateKey::from_seed("vendor");
  return key;
}

std::string numbered(std::string prefix, int i) {
  return prefix.append(std::to_string(i));
}

std::string app_exe(int app) { return numbered("/usr/bin/app", app); }

std::string app_name(const Workload& w, int client, int app) {
  return w.shared_attestations
             ? numbered("app", app)
             : numbered(numbered("app", client) + "-", app);
}

/// Benchmark input: the vendor's signature over every attestation the
/// deployment uses, keyed by app name.  Made once per run, outside set-up
/// timing — signing is the vendor's offline step, not the network's.
std::unordered_map<std::string, std::string> sign_attestations(
    const Workload& w) {
  std::unordered_map<std::string, std::string> sigs;
  if (!w.attested) return sigs;
  for (int c = 0; c < kClients; ++c) {
    for (int a = 0; a < kAppsPerClient; ++a) {
      const std::string name = app_name(w, c, a);
      if (sigs.contains(name)) continue;
      const std::string hash = host::Host::image_hash(app_exe(a), "");
      sigs.emplace(name, vendor_key()
                             .sign(proto::signed_message(
                                 {hash, name, kRequirements}))
                             .to_hex());
    }
  }
  return sigs;
}

// ---------------------------------------------------------------------------
// The deployment
// ---------------------------------------------------------------------------

struct Flow {
  net::FiveTuple tuple;
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  int pid = 0;
  std::uint16_t port = 80;
  bool expect_allowed = false;
  sim::SimTime virtual_due = 0;
  std::int64_t due_ns = 0;
  std::int64_t injected_ns = 0;
  std::int64_t done_ns = -1;
  int decisions = 0;
  bool allowed = false;
};

class Rig;

/// Stands between the switches and the controller: times the controller
/// layer and stamps the completion of every flow decided inside a call.
class ControlProxy : public openflow::ControlPlane {
 public:
  explicit ControlProxy(Rig& rig) : rig_(rig) {}
  void on_packet_in(const openflow::PacketIn& msg) override;
  void on_flow_removed(const openflow::FlowRemovedMsg& msg) override;

 private:
  Rig& rig_;
};

class DecisionTap : public ctrl::AdmissionObserver {
 public:
  explicit DecisionTap(Rig& rig) : rig_(rig) {}
  void on_decision(const ctrl::DecisionRecord& record,
                   const ctrl::AdmissionDecision&) override;

 private:
  Rig& rig_;
};

class Rig {
 public:
  /// `traced` puts the layer trace's decorator around the decision engine;
  /// without it the rig builds exactly what the program would.
  Rig(const Workload& w,
      const std::unordered_map<std::string, std::string>& sigs, bool traced)
      : workload_(w), proxy_(*this) {
    sim::Simulator& sim = topo_.simulator();
    const sim::NodeId core =
        topo_.add_switch(std::make_unique<TracedSwitch>("core", kTableCapacity));
    std::vector<sim::NodeId> edges;
    for (int e = 0; e < kEdgeSwitches; ++e) {
      edges.push_back(topo_.add_switch(
          std::make_unique<TracedSwitch>(numbered("edge", e),
                                         kTableCapacity)));
      topo_.link(edges.back(), core, kLinkLatency);
    }
    const auto add_host = [&](const std::string& name, const std::string& ip,
                              sim::NodeId sw) -> host::Host& {
      auto h = std::make_unique<TracedHost>(
          name, *net::Ipv4Address::parse(ip),
          net::MacAddress::for_node(
              static_cast<std::uint32_t>(sim.node_count())));
      host::Host& ref = *h;
      topo_.add_host(std::move(h));
      topo_.link(ref.id(), sw, kLinkLatency);
      hosts_.push_back(&ref);
      return ref;
    };

    for (int s = 0; s < kServers; ++s) {
      host::Host& server =
          add_host(numbered("srv", s), numbered("10.1.0.", s + 1), core);
      server.add_user("www", "daemons");
      server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
      server.add_user("sshd", "daemons");
      server.listen(server.launch("sshd", "/usr/sbin/sshd"), 22);
      servers_.push_back(&server);
    }
    static constexpr std::array<const char*, kIdentityUsers> kGroups = {
        "staff", "eng", "admins", "guests"};
    for (int c = 0; c < kClients; ++c) {
      host::Host& client =
          add_host(numbered("cli", c), numbered("10.0.0.", c + 1),
                   edges[static_cast<std::size_t>(c / kClientsPerEdge)]);
      clients_.push_back(&client);
      pids_.emplace_back();
      if (!w.attested) {
        for (int u = 0; u < kIdentityUsers; ++u) {
          const std::string user = numbered("u", u);
          client.add_user(user, kGroups[static_cast<std::size_t>(u)]);
          pids_.back().push_back(client.launch(user, "/usr/bin/client"));
        }
        continue;
      }
      client.add_user("u", "users");
      proto::DaemonConfig config;
      for (int a = 0; a < kAppsPerClient; ++a) {
        const std::string name = app_name(w, c, a);
        proto::AppConfig app;
        app.exe_path = app_exe(a);
        app.pairs = {{"name", name},
                     {"requirements", kRequirements},
                     {"req-sig", sigs.at(name)}};
        config.apps.push_back(std::move(app));
        // [2a] runs the signed image, [2a+1] a modified one whose hash no
        // longer matches the signature.
        pids_.back().push_back(client.launch("u", app_exe(a)));
        pids_.back().push_back(client.launch("u", app_exe(a), "modified"));
      }
      client.daemon().add_config(proto::ConfigTrust::kUser, config);
    }

    const std::string policy =
        w.attested ? "dict <pubkeys> { vendor : " +
                         vendor_key().public_key().to_hex() +
                         " }\nblock all\n"
                         "pass from any to any port 80 with verify("
                         "@src[req-sig], @pubkeys[vendor], @src[exe-hash], "
                         "@src[app-name], @src[requirements])\n"
                   : std::string(kIdentityPolicy);
    const pf::FunctionRegistry registry =
        traced ? traced_registry() : pf::FunctionRegistry::with_builtins();
    verifier_ = registry.verifier();
    controller_ = std::make_unique<ctrl::IdentxxController>(
        &topo_, pf::parse(policy, "bench"), registry, ctrl::ControllerConfig{});
    if (traced) {
      controller_->replace_engine(std::make_unique<TracedEngine>(
          std::make_unique<ctrl::PolicyDecisionEngine>(
              pf::parse(policy, "bench"), registry)));
    }
    controller_->add_observer(std::make_unique<DecisionTap>(*this));
    for (const sim::NodeId id : topo_.switch_ids()) {
      controller_->adopt_switch(id, kControlLatency);
      topo_.switch_at(id).set_controller(&proxy_, kControlLatency);
    }
    for (host::Host* h : hosts_) {
      controller_->register_host(h->ip(), h->id(), h->mac());
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// The next flow of the seeded stream (not yet injected).
  Flow next_flow(std::mt19937_64& rng) {
    Flow f;
    const auto pick = [&rng](int n) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    f.server = servers_[static_cast<std::size_t>(pick(kServers))];
    int pid_slot = 0;
    int client = 0;
    if (!workload_.attested) {
      client = pick(kClients);
      const int user = pick(kIdentityUsers);
      if (pick(4) == 0) f.port = 22;
      pid_slot = user;
      f.expect_allowed = f.port == 80 ? (user == 0 || user == 1) : user == 2;
    } else {
      if (order_.empty()) {
        for (int i = 0; i < kClients * kAppsPerClient; ++i) order_.push_back(i);
        std::shuffle(order_.begin(), order_.end(), rng);
      }
      const int slot = order_[next_in_order_++ % order_.size()];
      client = slot / kAppsPerClient;
      const bool modified = pick(8) == 0;
      pid_slot = 2 * (slot % kAppsPerClient) + (modified ? 1 : 0);
      f.expect_allowed = !modified;
    }
    f.client = clients_[static_cast<std::size_t>(client)];
    f.pid = pids_[static_cast<std::size_t>(client)]
                 [static_cast<std::size_t>(pid_slot)];
    return f;
  }

  /// Offer `batch` to the network, each flow entering at its virtual due
  /// time, then run the simulator up to (not including) `until`, the next
  /// flow's virtual due time, by which every admission has completed.
  /// Returns the flows that failed their check; flows in `batch` are closed
  /// afterwards.
  std::uint64_t admit(std::vector<Flow>& batch, sim::SimTime until) {
    in_flight_.clear();
    batch_ = &batch;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      advance_to(batch[i].virtual_due);
      inject(batch[i]);
      in_flight_.emplace(batch[i].tuple, i);
    }
    {
      Span span(kSim);
      topo_.simulator().run(until - 1);
    }
    stamp_decided();
    batch_ = nullptr;
    std::uint64_t failed = 0;
    for (Flow& f : batch) {
      const bool delivered = f.server->delivered_count(f.tuple) > 0;
      if (f.decisions != 1 || f.allowed != f.expect_allowed ||
          delivered != f.expect_allowed) {
        ++failed;
      }
      f.client->close_flow(f.tuple);
    }
    for (host::Host* s : servers_) s->clear_delivered();
    return failed;
  }

  void note_decision(const net::FiveTuple& tuple, bool allowed) {
    if (batch_ == nullptr) return;
    const auto it = in_flight_.find(tuple);
    if (it == in_flight_.end()) return;
    Flow& f = (*batch_)[it->second];
    ++f.decisions;
    f.allowed = allowed;
    decided_.push_back(it->second);
  }

  /// Completion stamp for every flow decided since the last stamp.
  void stamp_decided() {
    if (decided_.empty()) return;
    const std::int64_t t = now_ns();
    for (const std::size_t i : decided_) (*batch_)[i].done_ns = t;
    decided_.clear();
  }

  ctrl::IdentxxController& controller() { return *controller_; }
  sim::Simulator& simulator() { return topo_.simulator(); }
  const crypto::SchnorrVerifier* verifier() const { return verifier_.get(); }
  /// Events the simulator ran for the program, without the rig's own clock
  /// events.
  std::uint64_t program_events() const {
    return topo_.simulator().stats().events_executed - clock_events_;
  }

 private:
  /// Run every event up to `t` and leave the virtual clock at `t`, which
  /// run() alone does not do while timers are pending.
  void advance_to(sim::SimTime t) {
    Span span(kSim);
    sim::Simulator& sim = topo_.simulator();
    sim.schedule_at(t, [] {});
    ++clock_events_;
    sim.run(t);
  }

  /// Open `f` and emit its first packet.
  void inject(Flow& f) {
    Span span(kInject);
    f.tuple = f.client->connect_flow(f.pid, f.server->ip(), f.port);
    f.client->send_flow_packet(f.tuple);
    f.injected_ns = now_ns();
  }

  const Workload& workload_;
  openflow::Topology topo_;
  ControlProxy proxy_;
  std::unique_ptr<ctrl::IdentxxController> controller_;
  std::shared_ptr<crypto::SchnorrVerifier> verifier_;
  std::vector<host::Host*> hosts_;
  std::vector<host::Host*> clients_;
  std::vector<host::Host*> servers_;
  std::vector<std::vector<int>> pids_;  // per client
  std::vector<int> order_;              // attest: visiting order of apps
  std::size_t next_in_order_ = 0;
  std::uint64_t clock_events_ = 0;
  std::vector<Flow>* batch_ = nullptr;
  std::unordered_map<net::FiveTuple, std::size_t> in_flight_;
  std::vector<std::size_t> decided_;
};

void ControlProxy::on_packet_in(const openflow::PacketIn& msg) {
  {
    Span span(kController);
    rig_.controller().on_packet_in(msg);
  }
  rig_.stamp_decided();
}

void ControlProxy::on_flow_removed(const openflow::FlowRemovedMsg& msg) {
  Span span(kController);
  rig_.controller().on_flow_removed(msg);
}

void DecisionTap::on_decision(const ctrl::DecisionRecord& record,
                              const ctrl::AdmissionDecision&) {
  rig_.note_decision(record.flow, record.allowed);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + std::string(key));
    }
  }
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

void print_metric(const char* name, double value, const char* unit,
                  bool& first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  const auto sigs = sign_attestations(*w);
  std::uint64_t failed = 0;

  // Set-up: build the deployment (topology, hosts, daemon configurations,
  // controller with its policy and key tables).  Sampled all through the
  // run, kSetupsPerWindow builds after every measurement window; the first
  // build is the rig that is measured.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t start = now_ns();
    auto built = std::make_unique<Rig>(*w, sigs, args.trace);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    return built;
  };
  std::unique_ptr<Rig> rig = set_up();

  // Flow n of the run (warm-up included) enters the network at virtual time
  // n / rate.
  const double gap_ns = 1e9 / kRateFps;
  const auto virtual_due = [gap_ns](std::uint64_t n) {
    return static_cast<sim::SimTime>(static_cast<double>(n) * gap_ns);
  };

  // Warm-up, untimed: fill the flow tables, path caches and memo.
  std::mt19937_64 rng(args.seed);
  std::vector<Flow> batch;
  for (std::uint64_t n = 0; n < kWarmupFlows; ++n) {
    batch.assign(1, rig->next_flow(rng));
    batch.front().virtual_due = virtual_due(n);
    failed += rig->admit(batch, virtual_due(n + 1));
  }

  const std::uint64_t events_before = rig->program_events();
  const sim::SimTime virtual_before = rig->simulator().now();
  const std::uint64_t packet_ins_before =
      rig->controller().stats().packet_ins;
  const crypto::SchnorrVerifier::Stats verify_before =
      rig->verifier()->stats();

  // Measurement: windows of open-loop load, each followed by a pause for
  // set-up samples.  The wall-clock schedule restarts after every pause;
  // virtual time does not see the pauses.
  const auto windows = static_cast<int>(
      std::max<std::int64_t>(1, std::int64_t{args.seconds} * 1'000'000'000 /
                                    kWindowNs));
  std::uint64_t attempted = 0;
  std::int64_t busy_ns = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> window_p50_us;
  Flow next = rig->next_flow(rng);
  for (int window = 0; window < windows; ++window) {
    g_trace.enabled = args.trace;
    const std::size_t window_start = latency_us.size();
    const std::uint64_t first = attempted;
    const std::int64_t t0 = now_ns();
    const auto due = [&] {
      return t0 + static_cast<std::int64_t>(
                      static_cast<double>(attempted - first) * gap_ns);
    };
    for (;;) {
      const std::int64_t now = now_ns();
      if (now - t0 >= kWindowNs) break;
      if (due() > now) continue;  // spin: sleeping would add wake-up jitter
      batch.clear();
      while (due() <= now) {
        next.due_ns = due();
        next.virtual_due = virtual_due(kWarmupFlows + attempted);
        batch.push_back(next);
        ++attempted;
        next = rig->next_flow(rng);
      }
      failed += rig->admit(batch, virtual_due(kWarmupFlows + attempted));
      busy_ns += now_ns() - now;
      for (const Flow& f : batch) {
        late_us.push_back(static_cast<double>(f.injected_ns - f.due_ns) / 1e3);
        if (f.done_ns >= 0) {
          latency_us.push_back(static_cast<double>(f.done_ns - f.due_ns) /
                               1e3);
        }
      }
    }
    g_trace.enabled = false;
    window_p50_us.push_back(quantile(
        std::vector<double>(latency_us.begin() +
                                static_cast<std::ptrdiff_t>(window_start),
                            latency_us.end()),
        0.50));
    for (int i = 0; i < kSetupsPerWindow; ++i) set_up();
  }
  const double flows = static_cast<double>(attempted);
  const auto events =
      static_cast<double>(rig->program_events() - events_before);
  const auto virtual_ns =
      static_cast<double>(rig->simulator().now() - virtual_before);
  const auto packet_ins = static_cast<double>(
      rig->controller().stats().packet_ins - packet_ins_before);
  const crypto::SchnorrVerifier::Stats& verify_after = rig->verifier()->stats();
  const auto memo_hits =
      static_cast<double>(verify_after.memo_hits - verify_before.memo_hits);
  const auto memo_misses =
      static_cast<double>(verify_after.memo_misses - verify_before.memo_misses);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (!args.trace) {
    print_metric("admit_p50_us", quantile(window_p50_us, kQuietQuantile), "us",
                 first);
    print_metric("setup_s", quantile(setup_s, kQuietQuantile), "s", first);
  } else {
    print_metric("admit_p90_us", quantile(latency_us, 0.90), "us", first);
    print_metric("admit_p99_us", quantile(latency_us, 0.99), "us", first);
    print_metric("capacity_fps", flows / (static_cast<double>(busy_ns) / 1e9),
                 "1/s", first);
    std::int64_t traced_ns = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      traced_ns += g_trace.self_ns[l];
      const std::string name = std::string(kLayerNames[l]) + "_us";
      print_metric(name.c_str(),
                   static_cast<double>(g_trace.self_ns[l]) / 1e3 / flows, "us",
                   first);
    }
    print_metric("busy_us", static_cast<double>(busy_ns) / 1e3 / flows, "us",
                 first);
    print_metric("traced_us", static_cast<double>(traced_ns) / 1e3 / flows,
                 "us", first);
    print_metric("gen_late_p99_us", quantile(late_us, 0.99), "us", first);
    print_metric("events_per_flow", events / flows, "count", first);
    print_metric("packet_ins_per_flow", packet_ins / flows, "count", first);
    print_metric("decide_calls_per_flow",
                 static_cast<double>(g_trace.spans[kDecide]) / flows, "count",
                 first);
    print_metric("virtual_us_per_flow", virtual_ns / 1e3 / flows, "us", first);
    print_metric("verify_misses_per_flow", memo_misses / flows, "count", first);
    print_metric("verify_memo_hit_ratio",
                 memo_hits + memo_misses > 0
                     ? memo_hits / (memo_hits + memo_misses)
                     : 0,
                 "ratio", first);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "admission_driver: %s\n", e.what());
    return 1;
  }
}
