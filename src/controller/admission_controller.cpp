#include "controller/admission_controller.hpp"

#include <algorithm>

#include "controller/shard_map.hpp"
#include "identxx/keys.hpp"
#include "sim/schedule.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace identxx::ctrl {

namespace {

[[nodiscard]] std::string dict_summary(const proto::ResponseDict& dict,
                                       const char* key) {
  const auto value = dict.latest(key);
  return value ? std::string(*value) : std::string();
}

/// Schedule-exploration footprints (DESIGN.md §13).  The domain id doubles
/// as both the cookie-namespace and control-epoch resource key: each
/// domain owns exactly one of each.
void note_epoch_access(std::uint16_t domain, bool write) noexcept {
  sim::note_access({sim::LaneAccess::Kind::kControlEpoch, domain, write});
}

void note_cookie_access(std::uint16_t domain) noexcept {
  sim::note_access(
      {sim::LaneAccess::Kind::kCookieNamespace, domain, /*write=*/true});
}

}  // namespace

AdmissionController::AdmissionController(openflow::Topology* topology,
                                         AdmissionPipeline pipeline,
                                         ControllerConfig config)
    : topology_(topology),
      pipeline_(std::move(pipeline)),
      config_(std::move(config)) {
  pipeline_.finish(config_);
  if (!pipeline_.engine) {
    throw Error("AdmissionController: pipeline needs a DecisionEngine");
  }
  auto stats = std::make_unique<StatsObserver>();
  stats_observer_ = stats.get();
  observers_.push_back(std::move(stats));
  auto audit = std::make_unique<AuditLogObserver>(config_.audit_log_capacity);
  audit_observer_ = audit.get();
  observers_.push_back(std::move(audit));
}

void AdmissionController::adopt_switch(sim::NodeId switch_id,
                                       sim::SimTime control_latency) {
  openflow::Switch& sw = topology_->switch_at(switch_id);
  sw.set_controller(this, control_latency);
  domain_.insert(switch_id);
  on_switch_adopted(sw);
}

void AdmissionController::join_domain(sim::NodeId switch_id) {
  (void)topology_->switch_at(switch_id);  // validate the id
  domain_.insert(switch_id);
}

void AdmissionController::register_host(net::Ipv4Address ip, sim::NodeId node,
                                        net::MacAddress mac) {
  hosts_[ip] = HostInfo{node, mac};
}

const HostInfo* AdmissionController::find_host(net::Ipv4Address ip) const {
  const auto it = hosts_.find(ip);
  return it == hosts_.end() ? nullptr : &it->second;
}

std::uint64_t AdmissionController::allocate_cookie(const net::FiveTuple& flow) {
  note_cookie_access(config_.cookie_namespace);
  const std::uint64_t cookie =
      (static_cast<std::uint64_t>(config_.cookie_namespace)
       << ShardMap::kCookieShardShift) |
      next_cookie_++;
  installed_flows_[cookie] = flow;
  return cookie;
}

bool AdmissionController::owns_cookie(std::uint64_t cookie) const noexcept {
  return cookie != 0 &&
         ShardMap::cookie_shard_tag(cookie) == config_.cookie_namespace;
}

void AdmissionController::add_observer(
    std::unique_ptr<AdmissionObserver> observer) {
  observers_.push_back(std::move(observer));
}

void AdmissionController::replace_engine(
    std::unique_ptr<DecisionEngine> engine) {
  if (!engine) throw Error("replace_engine: null DecisionEngine");
  pipeline_.engine = std::move(engine);
  // Decisions in flight on a shard lane were computed by the replaced
  // engine; the epoch bump makes their commit re-decide.
  note_epoch_access(config_.cookie_namespace, /*write=*/true);
  ++control_epoch_;
  // Stale verdicts must not outlive the policy that produced them.
  if (pipeline_.cache) pipeline_.cache->clear();
  // Aggregated rule covers encode the OLD ruleset's scope.  Unlike
  // per-flow exact entries (which only keep admitting flows already
  // decided), a covering wildcard entry silently admits *new* flows under
  // the replaced policy — flush them.
  for (const sim::NodeId id : domain_) {
    topology_->switch_at(id).table().remove_if(
        [this](const openflow::FlowEntry& entry) {
          return owns_cookie(entry.cookie) &&
                 entry.priority == config_.flow_priority &&
                 AggregatingInstallStrategy::is_aggregate_entry(entry);
        });
  }
  prune_installed_flows();
}

std::size_t AdmissionController::revoke_all() {
  note_epoch_access(config_.cookie_namespace, /*write=*/true);
  ++control_epoch_;
  std::size_t removed = 0;
  for (const sim::NodeId id : domain_) {
    removed += topology_->switch_at(id).table().remove_if(
        [this](const openflow::FlowEntry& entry) {
          return entry.priority == config_.flow_priority &&
                 owns_cookie(entry.cookie);
        });
  }
  if (pipeline_.cache) pipeline_.cache->clear();
  prune_installed_flows();
  return removed;
}

std::size_t AdmissionController::revoke_if(
    const std::function<bool(const net::FiveTuple&)>& pred) {
  note_epoch_access(config_.cookie_namespace, /*write=*/true);
  ++control_epoch_;
  std::size_t removed = 0;
  for (const sim::NodeId id : domain_) {
    removed += topology_->switch_at(id).table().remove_if(
        [this, &pred](const openflow::FlowEntry& entry) {
          if (entry.priority != config_.flow_priority ||
              !owns_cookie(entry.cookie)) {
            return false;
          }
          // Judge by the flow registered at install time (cookie map):
          // reading the 5-tuple back out of the match is wrong for
          // covering wildcard entries, whose match fields are partly
          // unset.  An aggregate entry is revoked when its *seeding*
          // flow matches; flow-level quarantine of traffic still covered
          // by a rule belongs to higher-priority wildcard drops.
          const auto it = installed_flows_.find(entry.cookie);
          return it != installed_flows_.end() && pred(it->second);
        });
  }
  // The cache would otherwise silently re-admit a revoked flow until its
  // TTL passed — revocation invalidates matching cached decisions too.
  // Cached keep_state decisions install the reverse direction as well, so
  // an entry dies when the predicate matches either direction.
  if (pipeline_.cache) {
    pipeline_.cache->invalidate_if([&pred](const net::FiveTuple& flow) {
      return pred(flow) || pred(flow.reversed());
    });
  }
  prune_installed_flows();
  return removed;
}

bool AdmissionController::cookie_live(std::uint64_t cookie) const {
  for (const sim::NodeId id : domain_) {
    if (topology_->switch_at(id).table().has_cookie(cookie)) return true;
  }
  return false;
}

void AdmissionController::prune_installed_flows() {
  std::erase_if(installed_flows_, [this](const auto& entry) {
    return !cookie_live(entry.first);
  });
}

void AdmissionController::on_flow_removed(const openflow::FlowRemovedMsg& msg) {
  if (msg.entry.cookie != 0) {
    notify([&](AdmissionObserver& o) { o.on_flow_expired(msg.entry.cookie); });
    // Retire the cookie-map entry once the cookie's last entry anywhere in
    // the domain is gone (full-path installs share one cookie across
    // switches) — otherwise installed_flows_ grows for the whole run.
    if (!cookie_live(msg.entry.cookie)) {
      installed_flows_.erase(msg.entry.cookie);
    }
  }
}

void AdmissionController::on_packet_in(const openflow::PacketIn& msg) {
  notify([&](AdmissionObserver& o) { o.on_packet_in(msg); });
  const net::FiveTuple flow = msg.packet.five_tuple();

  if (compromised_) {
    // §5.1: an attacker with the controller disables all protection —
    // everything is allowed and cached as pass entries.
    openflow::FlowEntry entry;
    entry.match = openflow::FlowMatch::exact(msg.packet.ten_tuple(msg.in_port));
    entry.priority = config_.flow_priority;
    entry.action = openflow::FloodAction{};
    entry.cookie = allocate_cookie(flow);
    topology_->switch_at(msg.switch_id).install_flow(entry);
    topology_->switch_at(msg.switch_id)
        .packet_out(msg.packet, openflow::FloodAction{}, msg.in_port);
    return;
  }

  if (handle_special_packet(msg, flow)) return;
  handle_new_flow(msg, flow);
}

void AdmissionController::replay_cached(const openflow::PacketIn& msg,
                                        const net::FiveTuple& flow,
                                        const AdmissionDecision& cached) {
  notify([&](AdmissionObserver& o) { o.on_cache_hit(flow, cached); });
  AdmissionContext replay;
  replay.flow = flow;
  replay.buffered.push_back(msg);
  apply_decision(replay, cached);
}

void AdmissionController::apply_decision(AdmissionContext& ctx,
                                         const AdmissionDecision& decision) {
  if (decision.allowed) {
    const std::size_t installed =
        pipeline_.installer->install_allow(*this, ctx, decision);
    notify([&](AdmissionObserver& o) { o.on_entries_installed(installed); });
    if (decision.keep_state) {
      // keep state also admits the reverse direction of the flow.  The
      // covers (if any) describe the forward direction only — strip them
      // so the reverse install stays per-flow.
      AdmissionContext reverse;
      reverse.flow = ctx.flow.reversed();
      AdmissionDecision reverse_decision = decision;
      reverse_decision.covers.clear();
      const std::size_t rev =
          pipeline_.installer->install_allow(*this, reverse, reverse_decision);
      notify([&](AdmissionObserver& o) { o.on_entries_installed(rev); });
    }
    release_buffered(ctx, true);
  } else {
    const std::size_t installed =
        pipeline_.installer->install_drop(*this, ctx, decision);
    notify([&](AdmissionObserver& o) { o.on_entries_installed(installed); });
    release_buffered(ctx, false);
  }
}

void AdmissionController::handle_new_flow(const openflow::PacketIn& msg,
                                          const net::FiveTuple& flow) {
  // Decision cache (config ablation): serve repeat packet-ins without
  // another daemon round trip.
  if (pipeline_.cache) {
    if (const auto cached = pipeline_.cache->lookup(flow, simulator().now())) {
      replay_cached(msg, flow, *cached);
      return;
    }
  }

  const auto [ctx, inserted] =
      pipeline_.collector->begin(flow, msg, simulator().now());
  if (!inserted) {
    return;  // decision already in flight; packet waits
  }
  notify([&](AdmissionObserver& o) { o.on_flow_seen(flow); });

  // Stage 1: which daemons to ask (Figure 1 step 3).  The plan is kept on
  // the context so deadline retries can re-issue the unanswered sides.
  const QueryPlan plan = pipeline_.planner->plan(flow, *this);
  ctx->targets = plan.targets;
  for (const QueryTarget& target : plan.targets) {
    if (!send_query(flow, target)) continue;
    (target.is_source_side ? ctx->awaiting_src : ctx->awaiting_dst) = true;
    notify([&](AdmissionObserver& o) { o.on_query_sent(flow, target.target); });
  }

  // Stage 2: proxy answers for sides we could not query (§4).
  const std::size_t proxied = pipeline_.collector->fill_proxies_at_begin(
      *ctx, config_.query_both_ends);
  for (std::size_t i = 0; i < proxied; ++i) {
    notify([&](AdmissionObserver& o) { o.on_query_proxied(flow); });
  }

  if (decide_if_ready(*ctx)) return;

  // Arm the decision deadline; expiry is swept in batches so simultaneous
  // packet-in storms share one decide_many() evaluation.  One sweep per
  // deadline tick: flows armed at the same instant share a callback.
  const sim::SimTime deadline = simulator().now() + config_.query_timeout;
  pipeline_.collector->arm_deadline(*ctx, deadline);
  if (deadline != last_scheduled_sweep_) {
    last_scheduled_sweep_ = deadline;
    simulator().schedule_after(config_.query_timeout,
                               [this]() { sweep_expired(); });
  }
}

void AdmissionController::sweep_expired() {
  std::vector<AdmissionContext*> expired =
      pipeline_.collector->expired(simulator().now());
  std::erase_if(expired, [](const AdmissionContext* ctx) {
    return ctx->decision_in_flight;
  });
  if (expired.empty()) return;  // everything already decided

  // Retry pass (DESIGN.md §14): before falling back to a partial-
  // information decision, re-issue the unanswered queries with backoff.
  // Retried contexts re-arm their deadline and leave this sweep.
  if (config_.max_query_retries > 0) {
    std::erase_if(expired,
                  [this](AdmissionContext* ctx) { return retry_queries(*ctx); });
    if (expired.empty()) return;
  }

  for (AdmissionContext* ctx : expired) {
    notify([&](AdmissionObserver& o) { o.on_query_timeout(ctx->flow); });
    const std::size_t proxied =
        pipeline_.collector->fill_proxies_at_decide(*ctx);
    for (std::size_t i = 0; i < proxied; ++i) {
      notify([&](AdmissionObserver& o) { o.on_query_proxied(ctx->flow); });
    }
    ctx->timed_out = true;
  }

  // Graceful degradation (DESIGN.md §14): a flow whose retry budget is
  // spent with a queried side still silent gets a fail-closed degraded
  // verdict — a short-TTL drop cover plus a re-admission probe — instead
  // of feeding partial information to the engine.  Degraded verdicts
  // bypass the shard-lane dispatch entirely (no engine state is read), so
  // they finalize here, before the engine batch, in both classic and
  // sharded modes.
  if (config_.degraded_cover_ttl > 0) {
    std::vector<AdmissionContext*> degraded;
    std::erase_if(expired, [&degraded](AdmissionContext* ctx) {
      if (ResponseCollector::ready(*ctx)) return false;
      degraded.push_back(ctx);
      return true;
    });
    for (AdmissionContext* ctx : degraded) {
      AdmissionDecision decision;
      decision.allowed = false;
      decision.degraded = true;
      decision.rule = "degraded (endpoint unresponsive)";
      finalize(*ctx, decision);
    }
    if (expired.empty()) return;
  }

  // Stage 3, batched: one decide_many over every flow that hit this
  // deadline tick.
  dispatch_decisions(std::move(expired));
}

bool AdmissionController::retry_queries(AdmissionContext& ctx) {
  if (ctx.retries_used >= config_.max_query_retries) return false;
  bool resent = false;
  for (const QueryTarget& target : ctx.targets) {
    // Only sides that were queried and never answered are re-asked; an
    // answered side's identity must not be re-resolved mid-decision.
    const bool unanswered = target.is_source_side
                                ? (ctx.awaiting_src && !ctx.src_response)
                                : (ctx.awaiting_dst && !ctx.dst_response);
    if (!unanswered) continue;
    if (!send_query(ctx.flow, target)) continue;
    notify([&](AdmissionObserver& o) {
      o.on_query_retry(ctx.flow, target.target);
    });
    resent = true;
  }
  if (!resent) return false;
  ++ctx.retries_used;
  // Exponential backoff (query_timeout << attempt, shift capped) plus the
  // order-independent jitter; absolute arithmetic only, so the deadline is
  // identical at any shard count.
  const std::uint32_t shift = std::min<std::uint32_t>(ctx.retries_used, 10);
  const sim::SimTime deadline = simulator().now() +
                                (config_.query_timeout << shift) +
                                retry_jitter_for(ctx);
  pipeline_.collector->arm_deadline(ctx, deadline);
  if (deadline != last_scheduled_sweep_) {
    last_scheduled_sweep_ = deadline;
    simulator().schedule_at(deadline, [this]() { sweep_expired(); });
  }
  return true;
}

sim::SimTime AdmissionController::retry_jitter_for(
    const AdmissionContext& ctx) const {
  if (config_.retry_jitter <= 0) return 0;
  // A pure hash of (flow, attempt, seed) run through the SplitMix64
  // finalizer — no shared stream, so concurrent retries cannot observe
  // each other's draw order and sharded runs stay bit-identical.
  std::uint64_t h = std::hash<net::FiveTuple>{}(ctx.flow);
  h ^= config_.retry_jitter_seed +
       0x9e3779b97f4a7c15ULL * (ctx.retries_used + 1);
  util::SplitMix64 mix(h);
  return static_cast<sim::SimTime>(
      mix.next_below(static_cast<std::uint64_t>(config_.retry_jitter) + 1));
}

void AdmissionController::schedule_readmission_probe(AdmissionContext& ctx) {
  if (ctx.buffered.empty()) return;  // nothing to replay later
  const auto [it, inserted] = degraded_.try_emplace(ctx.flow);
  if (inserted) it->second.first_msg = ctx.buffered.front();
  if (it->second.probes_scheduled >= config_.max_readmission_probes) return;
  ++it->second.probes_scheduled;
  const net::FiveTuple flow = ctx.flow;
  simulator().schedule_after(config_.readmission_probe_delay,
                             [this, flow]() { probe_readmission(flow); });
}

void AdmissionController::probe_readmission(const net::FiveTuple& flow) {
  const auto it = degraded_.find(flow);
  if (it == degraded_.end()) return;  // fully re-decided in the meantime
  if (pipeline_.collector->find(flow) != nullptr) {
    return;  // a fresh admission for this flow is already in flight
  }
  // Lift the degraded cover first so the fresh verdict's entries never
  // fight an equal-priority drop.  This is a targeted removal of the
  // flow's own entries — no control-epoch bump, which would needlessly
  // re-decide unrelated in-flight verdicts.
  remove_flow_entries(flow);
  // Copy before re-entering admission: a synchronous re-degrade mutates
  // degraded_ and may invalidate `it`.
  const openflow::PacketIn msg = it->second.first_msg;
  // The replayed packet-in takes the normal admission path end to end —
  // fresh queries, shard-lane dispatch, control-epoch commit — so a
  // revocation racing the probe is handled exactly like any other flow.
  handle_new_flow(msg, flow);
}

std::size_t AdmissionController::remove_flow_entries(
    const net::FiveTuple& flow) {
  std::size_t removed = 0;
  for (const sim::NodeId id : domain_) {
    removed += topology_->switch_at(id).table().remove_if(
        [this, &flow](const openflow::FlowEntry& entry) {
          if (entry.priority != config_.flow_priority ||
              !owns_cookie(entry.cookie)) {
            return false;
          }
          const auto installed = installed_flows_.find(entry.cookie);
          return installed != installed_flows_.end() &&
                 installed->second == flow;
        });
  }
  prune_installed_flows();
  return removed;
}

bool AdmissionController::decide_if_ready(AdmissionContext& ctx) {
  if (!ResponseCollector::ready(ctx)) return false;
  if (ctx.decision_in_flight) return true;
  // Late proxy fill-in for sides that never answered.
  const std::size_t proxied = pipeline_.collector->fill_proxies_at_decide(ctx);
  for (std::size_t i = 0; i < proxied; ++i) {
    notify([&](AdmissionObserver& o) { o.on_query_proxied(ctx.flow); });
  }
  dispatch_decisions({&ctx});
  return true;
}

void AdmissionController::dispatch_decisions(
    std::vector<AdmissionContext*> batch) {
  if (config_.decision_lane == sim::kGlobalLane) {
    const std::vector<const AdmissionContext*> view(batch.begin(), batch.end());
    const std::vector<AdmissionDecision> decisions =
        pipeline_.engine->decide_many(view);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      finalize(*batch[i], decisions[i]);
    }
    return;
  }
  // Sharded domain: the engine (shard-local policy engine, verifier and
  // caches) evaluates the whole batch on this domain's lane; the commit
  // runs back on the global lane at the same virtual instant, so sharding
  // never changes simulated timings.
  for (AdmissionContext* ctx : batch) ctx->decision_in_flight = true;
  const std::uint64_t epoch = control_epoch_;
  simulator().schedule_on(
      config_.decision_lane, simulator().now(),
      [this, batch = std::move(batch), epoch]() mutable {
        // The verdicts are only valid for the dispatch-time epoch; the
        // eval is a shard-lane read of it.
        note_epoch_access(config_.cookie_namespace, /*write=*/false);
        const std::vector<const AdmissionContext*> view(batch.begin(),
                                                        batch.end());
        std::vector<AdmissionDecision> decisions =
            pipeline_.engine->decide_many(view);
        simulator().schedule_on(
            sim::kGlobalLane, simulator().now(),
            [this, batch = std::move(batch), epoch,
             decisions = std::move(decisions)]() mutable {
              for (std::size_t i = 0; i < batch.size(); ++i) {
                commit_decision(*batch[i], std::move(decisions[i]), epoch);
              }
            });
      });
}

void AdmissionController::commit_decision(AdmissionContext& ctx,
                                          AdmissionDecision decision,
                                          std::uint64_t dispatch_epoch) {
  ctx.decision_in_flight = false;
  note_epoch_access(config_.cookie_namespace, /*write=*/false);
  if (dispatch_epoch != control_epoch_ && !config_.fault_skip_epoch_redecide) {
    // A revocation or policy swap landed between dispatch and commit; the
    // computed verdict may carry covers (or would cache a decision) from
    // the replaced control state.  Re-decide under the current engine —
    // shard lanes are quiescent while the global lane runs, so the inline
    // re-decide cannot race a sibling domain.
    decision = pipeline_.engine->decide(ctx);
  }
  finalize(ctx, decision);
}

void AdmissionController::finalize(AdmissionContext& ctx,
                                   const AdmissionDecision& decision) {
  DecisionRecord record;
  record.time = simulator().now();
  record.flow = ctx.flow;
  record.allowed = decision.allowed;
  record.timed_out = ctx.timed_out;
  record.degraded = decision.degraded;
  record.logged = decision.logged;
  record.rule = decision.rule;
  if (ctx.src_response) {
    const proto::ResponseDict src(*ctx.src_response);
    record.src_user = dict_summary(src, proto::keys::kUserId);
    record.src_app = dict_summary(src, proto::keys::kName);
  }
  if (ctx.dst_response) {
    const proto::ResponseDict dst(*ctx.dst_response);
    record.dst_user = dict_summary(dst, proto::keys::kUserId);
  }
  record.setup_latency = simulator().now() - ctx.first_seen;
  if (decision.logged) {
    IDXX_LOG(kInfo, "controller")
        << config_.name << ": log rule matched: " << ctx.flow.to_string()
        << " -> " << (decision.allowed ? "pass" : "block");
  }
  notify([&](AdmissionObserver& o) { o.on_decision(record, decision); });

  // A degraded verdict is a placeholder, not knowledge: caching it would
  // keep blocking the flow long after the daemon recovered.
  if (pipeline_.cache && !decision.degraded) {
    pipeline_.cache->store(ctx.flow, decision, simulator().now());
  }

  if (decision.degraded) {
    // Before apply_decision clears the buffer: remember the first
    // packet-in so the probe can replay it.
    schedule_readmission_probe(ctx);
  } else {
    degraded_.erase(ctx.flow);
  }

  // Stage 4: turn the verdict into flow-table state.
  apply_decision(ctx, decision);
  // Copy the key before erasing: `ctx` aliases into the collector's map.
  const net::FiveTuple key = ctx.flow;
  pipeline_.collector->erase(key);
}

void AdmissionController::release_buffered(AdmissionContext& ctx,
                                           bool allowed) {
  if (!allowed) {
    ctx.buffered.clear();
    return;
  }
  const HostInfo* src = find_host(ctx.flow.src_ip);
  const HostInfo* dst = find_host(ctx.flow.dst_ip);
  std::optional<std::vector<openflow::Hop>> hops;
  if (src != nullptr && dst != nullptr) {
    // Must match install_along_path's ECMP selection: released packets
    // are packet-out onto the path that just received the flow's entries.
    hops = topology_->path_for_flow(src->node, dst->node, ctx.flow);
  }
  std::size_t released = 0;
  for (const openflow::PacketIn& msg : ctx.buffered) {
    bool sent = false;
    if (hops) {
      for (const openflow::Hop& hop : *hops) {
        if (hop.switch_id == msg.switch_id) {
          topology_->switch_at(msg.switch_id)
              .packet_out(msg.packet, openflow::OutputAction{{hop.out_port}},
                          msg.in_port);
          sent = true;
          break;
        }
      }
      if (!sent && hops->empty() && src != nullptr && src == dst) {
        // Self-flow (src ip == dst ip): the path has no switch hops and the
        // destination sits on the packet's own ingress port.  Hairpin it
        // back — flooding instead would circulate the packet forever in
        // cyclic topologies (every downstream switch lacks an entry, so
        // each copy re-enters as a fresh packet-in).
        topology_->switch_at(msg.switch_id)
            .packet_out(msg.packet, openflow::OutputAction{{msg.in_port}},
                        msg.in_port);
        sent = true;
      }
    }
    if (!sent) {
      // Off-path or unknown: fall back to flooding from that switch.
      topology_->switch_at(msg.switch_id)
          .packet_out(msg.packet, openflow::FloodAction{}, msg.in_port);
    }
    ++released;
  }
  ctx.buffered.clear();
  notify([&](AdmissionObserver& o) { o.on_packets_released(released); });
}

std::vector<AdmissionController::FlowUsage> AdmissionController::flow_usage()
    const {
  std::unordered_map<std::uint64_t, FlowUsage> by_cookie;
  for (const sim::NodeId id : domain_) {
    for (const openflow::FlowEntry& entry :
         topology_->switch_at(id).table().entries()) {
      const auto it = installed_flows_.find(entry.cookie);
      if (it == installed_flows_.end()) continue;
      FlowUsage& usage = by_cookie[entry.cookie];
      usage.flow = it->second;
      usage.packets = std::max(usage.packets, entry.packet_count);
      usage.bytes = std::max(usage.bytes, entry.byte_count);
    }
  }
  std::vector<FlowUsage> out;
  out.reserve(by_cookie.size());
  for (auto& [cookie, usage] : by_cookie) out.push_back(usage);
  return out;
}

}  // namespace identxx::ctrl
