#include "mc/explorer.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace identxx::mc {

namespace {

using Order = std::vector<sim::LaneId>;

/// What one shard wave did in one run: when it ran, which lanes were
/// active (canonical ascending), the order actually executed, and each
/// lane's logical-resource footprint (the lane's own batch plus its
/// staged commits, attributed via the simulator's origin tags).
struct WaveRecord {
  sim::SimTime when = 0;
  Order active;
  Order taken;
  std::map<sim::LaneId, std::vector<sim::LaneAccess>> accesses;
};

/// ScheduleController that replays a prescribed order for the first N
/// shard waves (canonical beyond), or — in random mode — shuffles every
/// wave, while recording the trace and access footprints either way.
class ReplayController final : public sim::ScheduleController {
 public:
  explicit ReplayController(std::vector<Order> prescription)
      : prescription_(std::move(prescription)) {}
  ReplayController(std::uint64_t shuffle_seed, bool /*random_tag*/)
      : random_(true), rng_(shuffle_seed) {}

  void plan_wave(sim::SimTime when, std::vector<sim::LaneId>& order) override {
    WaveRecord rec;
    rec.when = when;
    rec.active = order;
    const std::size_t wave = trace_.size();
    if (random_) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.next_below(i)]);
      }
    } else if (wave < prescription_.size() &&
               std::is_permutation(prescription_[wave].begin(),
                                   prescription_[wave].end(), order.begin(),
                                   order.end())) {
      // The active set can drift from the prescribing run's only when a
      // divergence already happened; falling back to canonical keeps the
      // replay well-defined either way.
      order = prescription_[wave];
    }
    rec.taken = order;
    trace_.push_back(std::move(rec));
  }

  void on_access(sim::LaneId origin, const sim::LaneAccess& access) override {
    // Purely global work (origin 0) is schedule-independent by
    // construction; footprints only matter for shard-attributed events.
    if (origin == sim::kGlobalLane || trace_.empty()) return;
    auto& list = trace_.back().accesses[origin];
    for (const sim::LaneAccess& seen : list) {
      if (seen.kind == access.kind && seen.id == access.id &&
          seen.write == access.write) {
        return;
      }
    }
    list.push_back(access);
  }

  [[nodiscard]] std::vector<WaveRecord> take_trace() {
    return std::move(trace_);
  }

 private:
  std::vector<Order> prescription_;
  bool random_ = false;
  util::SplitMix64 rng_{0};
  std::vector<WaveRecord> trace_;
};

/// Do the two lanes' footprints at this wave conflict (same logical
/// resource, at least one write)?  Lanes with disjoint footprints commute:
/// swapping their execution order provably cannot change the merged
/// outcome, which is exactly the DPOR independence oracle.
[[nodiscard]] bool lanes_conflict(const WaveRecord& rec, sim::LaneId a,
                                  sim::LaneId b) {
  const auto ita = rec.accesses.find(a);
  const auto itb = rec.accesses.find(b);
  if (ita == rec.accesses.end() || itb == rec.accesses.end()) return false;
  for (const sim::LaneAccess& x : ita->second) {
    for (const sim::LaneAccess& y : itb->second) {
      if (x.conflicts_with(y)) return true;
    }
  }
  return false;
}

/// All permutations of `active` (ascending input; bounded by the caller).
[[nodiscard]] std::vector<Order> all_orders(Order active) {
  std::vector<Order> out;
  std::sort(active.begin(), active.end());
  do {
    out.push_back(active);
  } while (std::next_permutation(active.begin(), active.end()));
  return out;
}

/// Partition the permutations of rec.active into Mazurkiewicz
/// trace-equivalence classes (closure under swapping adjacent
/// *independent* lanes) and return one representative per class, plus the
/// number of permutations pruned as equivalent.  Small n only: the caller
/// bounds |active|.
[[nodiscard]] std::pair<std::vector<Order>, std::uint64_t>
representative_orders(const WaveRecord& rec) {
  const std::vector<Order> perms = all_orders(rec.active);
  std::map<Order, std::size_t> cls;
  std::size_t next_class = 0;
  for (const Order& seed : perms) {
    if (cls.contains(seed)) continue;
    // BFS over adjacent-independent swaps.
    std::vector<Order> frontier{seed};
    cls[seed] = next_class;
    while (!frontier.empty()) {
      const Order cur = std::move(frontier.back());
      frontier.pop_back();
      for (std::size_t k = 0; k + 1 < cur.size(); ++k) {
        if (lanes_conflict(rec, cur[k], cur[k + 1])) continue;
        Order next = cur;
        std::swap(next[k], next[k + 1]);
        if (cls.emplace(next, next_class).second) {
          frontier.push_back(std::move(next));
        }
      }
    }
    ++next_class;
  }
  // Representative = lexicographically least member of each class, which
  // the ordered map yields for free.
  std::vector<Order> reps(next_class);
  std::vector<bool> have(next_class, false);
  for (const auto& [perm, c] : cls) {
    if (!have[c]) {
      reps[c] = perm;
      have[c] = true;
    }
  }
  return {std::move(reps), perms.size() - next_class};
}

std::string order_to_string(const Order& order) {
  std::string out = "[";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(order[i]);
  }
  out += ']';
  return out;
}

}  // namespace

std::string Divergence::to_string() const {
  std::ostringstream out;
  out << detail << "\n";
  if (schedule.empty()) {
    out << "  schedule: canonical (no reordering required)\n";
    return out.str();
  }
  out << "  minimized schedule (canonical order resumes afterwards):\n";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Order canonical = schedule[i].order;
    std::sort(canonical.begin(), canonical.end());
    out << "    wave " << i << " @ " << schedule[i].when / sim::kMicrosecond
        << "us: lanes " << order_to_string(schedule[i].order)
        << (schedule[i].order == canonical ? "  (canonical)" : "") << "\n";
  }
  return out.str();
}

std::string Report::summary() const {
  std::ostringstream out;
  out << "schedules explored: " << schedules_explored
      << ", branching choice points: " << choice_points
      << ", permutations pruned as commuting: " << schedules_pruned;
  if (budget_exhausted) out << " (schedule budget exhausted)";
  out << "\n";
  if (divergence) {
    out << "DIVERGENCE: " << divergence->to_string();
  } else {
    out << "OK: ScenarioResult invariant across all explored schedules\n";
  }
  return out.str();
}

Explorer::Explorer(const core::Scenario& scenario, ExplorerOptions options)
    : scenario_(&scenario), options_(std::move(options)) {
  if (options_.scenario.shards == 0) {
    throw Error("mc::Explorer: scenario.shards must be >= 1");
  }
}

Report Explorer::run() {
  Report report;

  const auto run_once = [&](const std::vector<Order>& prescription)
      -> std::pair<core::ScenarioResult, std::vector<WaveRecord>> {
    ReplayController controller{prescription};
    core::ScenarioOptions opts = options_.scenario;
    opts.schedule_controller = &controller;
    core::ScenarioResult result = scenario_->run(opts);
    ++report.schedules_explored;
    return {std::move(result), controller.take_trace()};
  };

  auto [canonical, canonical_trace] = run_once({});
  for (const WaveRecord& rec : canonical_trace) {
    if (rec.active.size() >= 2) ++report.choice_points;
  }

  const auto failure_of =
      [&](const core::ScenarioResult& result) -> const char* {
    if (!result.equivalent_to(canonical)) {
      return "ScenarioResult diverges from the canonical schedule";
    }
    if (!result.ok()) return "scenario expectation violated";
    return nullptr;
  };

  // The canonical schedule must satisfy the scenario's own expectations;
  // a violation here needs no reordering at all (this is how the
  // epoch-re-decide mutation surfaces: the raced control op scenario
  // encodes the post-re-decision verdict as an expectation).
  if (!canonical.ok()) {
    report.divergence = Divergence{
        {}, "scenario expectation violated under the canonical schedule"};
    return report;
  }

  const auto budget_left = [&] {
    if (report.schedules_explored < options_.max_schedules) return true;
    report.budget_exhausted = true;
    return false;
  };

  // Greedy minimization: truncate trailing choices, then revert each wave
  // to canonical order, keeping every change that still fails.
  const auto minimize = [&](std::vector<Order> prescription,
                            const char* detail) {
    const auto still_fails = [&](const std::vector<Order>& candidate) {
      if (!budget_left()) return false;
      auto [result, trace] = run_once(candidate);
      return failure_of(result) != nullptr;
    };
    while (!prescription.empty()) {
      std::vector<Order> shorter(prescription.begin(), prescription.end() - 1);
      if (!still_fails(shorter)) break;
      prescription = std::move(shorter);
    }
    for (std::size_t i = 0; i < prescription.size(); ++i) {
      std::vector<Order> reverted = prescription;
      std::sort(reverted[i].begin(), reverted[i].end());
      if (reverted[i] == prescription[i]) continue;
      if (still_fails(reverted)) prescription = std::move(reverted);
    }
    // Re-run the minimized schedule once to stamp wave times.
    Divergence divergence;
    divergence.detail = detail;
    auto [result, trace] = run_once(prescription);
    for (std::size_t i = 0; i < prescription.size(); ++i) {
      const sim::SimTime when = i < trace.size() ? trace[i].when : 0;
      divergence.schedule.push_back(WaveChoice{when, prescription[i]});
    }
    report.divergence = std::move(divergence);
  };

  if (options_.mode == Mode::kRandom) {
    util::SplitMix64 seeds(options_.seed ^ 0x6d0f27bd642bf3a9ULL);
    for (std::uint64_t i = 0; i < options_.random_schedules; ++i) {
      if (!budget_left()) break;
      ReplayController controller{seeds.next(), true};
      core::ScenarioOptions opts = options_.scenario;
      opts.schedule_controller = &controller;
      core::ScenarioResult result = scenario_->run(opts);
      ++report.schedules_explored;
      if (const char* detail = failure_of(result)) {
        std::vector<WaveRecord> trace = controller.take_trace();
        std::vector<Order> prescription;
        prescription.reserve(trace.size());
        for (const WaveRecord& rec : trace) prescription.push_back(rec.taken);
        minimize(std::move(prescription), detail);
        return report;
      }
    }
    return report;
  }

  // DFS over the product of per-wave orders.  Each run's trace seeds
  // alternatives at every wave past its prescribed prefix, so every
  // distinct schedule (up to max_depth, and up to trace equivalence in
  // kDpor) executes exactly once.
  constexpr std::size_t kMaxPermutedLanes = 5;  // 5! = 120 orders per wave
  bool stop = false;
  const std::function<void(std::size_t, const std::vector<WaveRecord>&)>
      explore = [&](std::size_t first_free_wave,
                    const std::vector<WaveRecord>& trace) {
        if (stop) return;
        const std::size_t depth =
            std::min<std::size_t>(trace.size(), options_.max_depth);
        for (std::size_t d = first_free_wave; d < depth && !stop; ++d) {
          const WaveRecord& rec = trace[d];
          if (rec.active.size() < 2) continue;
          if (rec.active.size() > kMaxPermutedLanes) {
            // Too wide to permute exhaustively; kRandom covers these.
            continue;
          }
          std::vector<Order> alternatives;
          if (options_.mode == Mode::kDpor) {
            auto [reps, pruned] = representative_orders(rec);
            report.schedules_pruned += pruned;
            alternatives = std::move(reps);
          } else {
            alternatives = all_orders(rec.active);
          }
          for (const Order& alt : alternatives) {
            if (alt == rec.taken) continue;  // this run already covers it
            if (!budget_left()) {
              stop = true;
              return;
            }
            std::vector<Order> prescription;
            prescription.reserve(d + 1);
            for (std::size_t i = 0; i < d; ++i) {
              prescription.push_back(trace[i].taken);
            }
            prescription.push_back(alt);
            auto [result, alt_trace] = run_once(prescription);
            if (const char* detail = failure_of(result)) {
              minimize(std::move(prescription), detail);
              stop = true;
              return;
            }
            explore(d + 1, alt_trace);
          }
        }
      };
  explore(0, canonical_trace);
  return report;
}

}  // namespace identxx::mc
