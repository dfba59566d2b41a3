#include "check/runner.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "recover/supervisor.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace p2prank::check {

namespace {

std::unique_ptr<partition::Partitioner> make_partitioner(const Scenario& s) {
  switch (s.partition) {
    case PartitionKind::kHashUrl: return partition::make_hash_url_partitioner();
    case PartitionKind::kHashSite: return partition::make_hash_site_partitioner();
    case PartitionKind::kRandom:
      return partition::make_random_partitioner(util::mix64(s.graph_seed));
  }
  throw std::invalid_argument("ScenarioRunner: bad partition kind");
}

std::uint32_t largest_group(std::span<const std::uint32_t> assignment,
                            std::uint32_t k) {
  std::vector<std::uint32_t> sizes(k, 0);
  for (const std::uint32_t g : assignment) ++sizes[g];
  return static_cast<std::uint32_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

/// A small random crawl churn: add links, remove existing links, add
/// external links. Deterministic from `seed`; removals are deduplicated so
/// the batch never removes the same link instance twice.
std::vector<graph::LinkUpdate> random_updates(const graph::WebGraph& g,
                                              std::uint64_t seed) {
  util::Rng rng(util::mix64(seed ^ 0x6b79a1d30c52f8e7ULL));
  const auto n = static_cast<std::uint64_t>(g.num_pages());
  std::vector<graph::LinkUpdate> updates;
  std::vector<std::pair<graph::PageId, graph::PageId>> removed;
  const std::size_t count = 1 + rng.below(8);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      const auto u = static_cast<graph::PageId>(rng.below(n));
      const auto v = static_cast<graph::PageId>(rng.below(n));
      updates.push_back(graph::LinkUpdate::add_link(g.url(u), g.url(v)));
    } else if (roll < 0.85) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto u = static_cast<graph::PageId>(rng.below(n));
        const auto links = g.out_links(u);
        if (links.empty()) continue;
        const graph::PageId v = links[rng.below(links.size())];
        if (std::find(removed.begin(), removed.end(), std::pair{u, v}) !=
            removed.end()) {
          continue;
        }
        removed.emplace_back(u, v);
        updates.push_back(graph::LinkUpdate::remove_link(g.url(u), g.url(v)));
        break;
      }
    } else {
      const auto u = static_cast<graph::PageId>(rng.below(n));
      updates.push_back(graph::LinkUpdate::add_external(g.url(u)));
    }
  }
  if (updates.empty()) {
    updates.push_back(graph::LinkUpdate::add_external(g.url(0)));
  }
  return updates;
}

}  // namespace

std::string ScenarioResult::summary() const {
  std::ostringstream out;
  if (ok()) {
    out << "ok";
  } else {
    out << "FAIL " << violations.front().invariant << " @t="
        << violations.front().time << " (" << violations.front().detail << ')';
  }
  out << "  err=" << final_error << " t_end=" << end_time << " samples="
      << samples_checked << " msgs=" << messages_sent << " lost="
      << messages_lost;
  if (retransmissions != 0 || duplicates_rejected != 0) {
    out << " rexmit=" << retransmissions << " dups=" << duplicates_rejected;
  }
  if (churn_events != 0) out << " churn=" << churn_events;
  if (partition_drops != 0) out << " cut_drops=" << partition_drops;
  if (frames_quarantined != 0) out << " quarantined=" << frames_quarantined;
  if (evictions != 0 || rejoins != 0) {
    out << " evict=" << evictions << " rejoin=" << rejoins;
  }
  return out.str();
}

ScenarioRunner::ScenarioRunner(util::ThreadPool& pool, RunnerOptions opts)
    : pool_(pool), opts_(std::move(opts)) {}

ScenarioResult ScenarioRunner::run(const Scenario& s) {
  if (s.k == 0 || s.pages == 0) {
    throw std::invalid_argument("ScenarioRunner: k and pages must be > 0");
  }
  if (s.t2 < s.t1 || s.t1 < 0.0) {
    throw std::invalid_argument("ScenarioRunner: bad wait interval");
  }
  if (!(s.delivery_p >= 0.0 && s.delivery_p <= 1.0) ||
      !(s.warm_start_scale >= 0.0 && s.warm_start_scale <= 1.0)) {
    throw std::invalid_argument("ScenarioRunner: probability/scale out of range");
  }

  auto cfg = graph::google2002_config(s.pages, s.graph_seed);
  // Scale the site count down with the crawl so site-granularity partitions
  // keep several sites per group at chaos-harness sizes.
  cfg.num_sites = std::clamp<std::uint32_t>(s.pages / 25, 8, 100);
  graph::WebGraph g = graph::generate_synthetic_web(cfg);

  const auto partitioner = make_partitioner(s);
  std::vector<std::uint32_t> assignment = partitioner->partition(g, s.k);
  std::vector<double> reference =
      engine::open_system_reference(g, opts_.alpha, pool_);

  engine::EngineOptions eo;
  eo.algorithm = s.algorithm;
  eo.alpha = opts_.alpha;
  eo.delivery_probability = s.delivery_p;
  eo.t1 = s.t1;
  eo.t2 = s.t2;
  eo.delivery_latency = s.delivery_latency;
  eo.latency_jitter = s.latency_jitter;
  // `reliable` turns on the full layer: retransmission implies the epoch
  // duplicate filter and the suspicion-based failure detector. Recovery
  // scenarios imply it: the supervisor's quorum reads the failure detector.
  eo.reliability.retransmit = s.reliable || s.recovery;
  eo.stability_epsilon = s.stability_epsilon;
  eo.seed = s.engine_seed;
  // Observability pass-through: pure observation, so every code path below
  // is identical with or without sinks attached (DESIGN.md §11).
  eo.metrics = opts_.metrics;
  eo.tracer = opts_.tracer;
  if (opts_.break_skip_refresh) {
    eo.fault_skip_refresh_group = largest_group(assignment, s.k);
  }
  // Serving pass-through (DESIGN.md §12): like metrics/tracer, attaching a
  // sink is pure observation — every invariant below applies unchanged with
  // the flag on. The store outlives the engine (including kGraphUpdate
  // rebuilds, which reuse `eo` and hence the same sink), so snapshot epochs
  // must stay monotone across the whole scenario.
  serve::SnapshotStore serve_store(/*top_k_capacity=*/8);
  if (s.serve) eo.snapshot_sink = &serve_store;

  // Reordering without the epoch filter is a *designed* monotonicity hazard:
  // a delayed stale Y replaces a newer X entry and the affected ranks dip.
  // from_seed never generates that combination; for hand-written traces the
  // monotone theorem's premise (in-order refresh) is simply absent, so the
  // check starts dis-armed. With `reliable` on, epochs restore the premise
  // (accepted epochs only increase, so applied Y values only grow) and the
  // theorem stays armed under any jitter.
  bool jitter_hazard = false;
  if (!s.reliable && !s.recovery) {
    jitter_hazard = s.latency_jitter > 0.0;
    for (const ScheduleOp& op : s.ops) {
      if (op.kind == OpKind::kSetJitter && op.value > 0.0) jitter_hazard = true;
    }
  }

  auto sim = std::make_unique<engine::DistributedRanking>(g, assignment, s.k,
                                                          eo, pool_);
  sim->set_reference(reference);
  if (s.warm_start_scale > 0.0) {
    std::vector<double> warm(reference);
    for (double& r : warm) r *= s.warm_start_scale;
    sim->warm_start(warm);
  }
  // Construct after the warm start so the monotone baseline is the actual
  // starting vector.
  auto checker = std::make_unique<InvariantChecker>(
      *sim, reference, /*check_monotone=*/!jitter_hazard, /*check_bound=*/true,
      /*expect_status_per_step=*/eo.stability_epsilon > 0.0);

  // Recovery mode (DESIGN.md §13): attach the eviction/rejoin supervisor.
  // It is ticked at every sample and its ownership ledger is cross-checked
  // against the engine below — a handoff that loses or duplicates a page on
  // either side is caught within one sample interval.
  recover::SupervisorOptions so;
  so.break_rejoin_ledger = opts_.break_supervisor_ledger;
  so.metrics = opts_.metrics;
  so.tracer = opts_.tracer;
  if (s.serve) so.serve_store = &serve_store;
  auto supervisor =
      s.recovery ? std::make_unique<recover::RecoverySupervisor>(*sim, so)
                 : nullptr;

  ScenarioResult result;
  double offset = 0.0;  // global time = offset + sim->now() (graph rebuilds
                        // start a fresh engine clock)
  std::uint64_t* obs_ops_applied = nullptr;
  std::uint64_t* obs_samples = nullptr;
  if (opts_.metrics != nullptr) {
    obs_ops_applied = &opts_.metrics->counter(obs::names::kCheckOpsApplied);
    obs_samples = &opts_.metrics->counter(obs::names::kCheckSamples);
  }
  std::string checkpoint;
  // Thm 4.1 bookkeeping: the state is "consistent" (a sub-solution of the
  // current graph's operator, so ranks grow monotonically) until a crash;
  // a checkpoint remembers whether it was saved in a consistent phase, and
  // restoring such a checkpoint makes the state consistent again. A graph
  // update voids both for good (carried ranks can exceed the new R*).
  bool state_consistent = true;
  bool checkpoint_consistent = false;

  // Serving-contract probes, sampled alongside the theorem checks: a
  // snapshot exists from t = 0 on, its shard epochs agree (the torn-read
  // tripwire), epochs never run backwards — not even across a kGraphUpdate
  // engine rebuild — and the merged top-K matches a brute-force sort of the
  // snapshot's own ranks.
  std::uint64_t serve_last_epoch = 0;
  const auto serve_probe = [&] {
    if (!s.serve || result.violations.size() >= opts_.max_violations) return;
    const double t = offset + sim->now();
    const std::shared_ptr<const serve::RankSnapshot> snap = serve_store.acquire();
    if (snap == nullptr) {
      result.violations.push_back({"serve-available", t, "no snapshot published"});
      return;
    }
    if (!snap->epoch_consistent()) {
      result.violations.push_back(
          {"serve-epoch", t, "mixed shard epochs (torn snapshot)"});
    }
    if (snap->epoch() < serve_last_epoch) {
      std::ostringstream detail;
      detail << "epoch " << snap->epoch() << " after " << serve_last_epoch;
      result.violations.push_back({"serve-epoch-monotonic", t, detail.str()});
    }
    serve_last_epoch = std::max(serve_last_epoch, snap->epoch());
    const std::size_t probe_k = std::min<std::size_t>(5, snap->num_pages());
    std::vector<serve::TopKEntry> brute;
    brute.reserve(snap->num_pages());
    for (std::uint32_t page = 0; page < snap->num_pages(); ++page) {
      brute.push_back({page, snap->rank(page)});
    }
    std::sort(brute.begin(), brute.end(), serve::ranks_before);
    brute.resize(probe_k);
    if (snap->top_k(probe_k) != brute) {
      result.violations.push_back(
          {"serve-topk", t,
           "merged top-K disagrees with brute force over the snapshot's ranks"});
    }
  };

  // Recovery-contract probes: the supervisor's ledger must equal the
  // engine's ownership map at every sample (no page lost or duplicated by a
  // handoff), and per-ranker recovery epochs — the fencing tokens — never
  // regress.
  std::vector<std::uint64_t> recover_epochs;
  const auto recovery_probe = [&] {
    if (supervisor == nullptr ||
        result.violations.size() >= opts_.max_violations) {
      return;
    }
    const double t = offset + sim->now();
    const auto live_assignment = sim->current_assignment();
    const auto ledger = supervisor->ledger();
    for (std::size_t p = 0; p < live_assignment.size(); ++p) {
      if (ledger[p] != live_assignment[p]) {
        std::ostringstream detail;
        detail << "page " << p << ": supervisor ledger says " << ledger[p]
               << ", engine says " << live_assignment[p];
        result.violations.push_back({"recover-ledger", t, detail.str()});
        break;
      }
    }
    if (recover_epochs.empty()) recover_epochs.assign(s.k, 0);
    for (std::uint32_t r = 0; r < s.k; ++r) {
      const std::uint64_t e = supervisor->recovery_epoch(r);
      if (e < recover_epochs[r]) {
        std::ostringstream detail;
        detail << "ranker " << r << " recovery epoch went backwards: "
               << recover_epochs[r] << " -> " << e;
        result.violations.push_back({"recover-epoch", t, detail.str()});
        break;
      }
      recover_epochs[r] = e;
    }
  };

  const auto advance_to = [&](double global_t) {
    while (offset + sim->now() + 1e-12 < global_t &&
           result.violations.size() < opts_.max_violations) {
      const double next =
          std::min(global_t, offset + sim->now() + opts_.sample_interval);
      const double interval = next - offset - sim->now();
      if (interval <= 0.0) break;  // fp guard: nothing left to simulate
      (void)sim->run(next - offset, interval);
      if (supervisor != nullptr) supervisor->tick(offset + sim->now());
      checker->check_sample(result.violations);
      serve_probe();
      recovery_probe();
      ++result.samples_checked;
      if (obs_samples != nullptr) ++*obs_samples;
      if (opts_.tracer != nullptr) {
        opts_.tracer->instant(obs::names::kTraceSample, offset + sim->now(), 0,
                              {}, static_cast<double>(result.violations.size()));
      }
    }
  };

  for (const ScheduleOp& op : s.ops) {
    if (result.violations.size() >= opts_.max_violations) break;
    advance_to(std::min(op.time, s.active_time));
    if (obs_ops_applied != nullptr) ++*obs_ops_applied;
    if (opts_.tracer != nullptr) {
      // Fault injections become trace instants on the target group's track,
      // so a trace shows *why* residuals moved, not just that they did.
      opts_.tracer->instant(obs::names::kTraceChaosOp, offset + sim->now(),
                            op.group, op_kind_name(op.kind), op.value);
    }
    switch (op.kind) {
      case OpKind::kCrash:
        if (op.group < s.k) {
          const bool nonempty = sim->group(op.group).size() > 0;
          sim->crash_group(op.group);
          if (nonempty) {  // crashing an empty group is a true no-op
            checker->on_crash(op.group);
            state_consistent = false;
          }
        }
        break;
      case OpKind::kPause:
        if (op.group < s.k) sim->pause_group(op.group);
        break;
      case OpKind::kResume:
        if (op.group < s.k) sim->resume_group(op.group);
        break;
      case OpKind::kSetLoss:
        sim->set_delivery_probability(std::clamp(op.value, 0.0, 1.0));
        break;
      case OpKind::kSetAckLoss:
        // Negative mirrors the *base* data-channel probability (the
        // engine's own convention for ack_delivery_probability).
        sim->set_ack_delivery_probability(
            op.value < 0.0 ? s.delivery_p : std::clamp(op.value, 0.0, 1.0));
        break;
      case OpKind::kSetJitter:
        sim->set_latency_jitter(std::max(op.value, 0.0));
        break;
      case OpKind::kLeave:
        // Generator aim can be stale (an earlier churn emptied the group):
        // invalid combinations are defined no-ops, like out-of-range crash
        // targets.
        if (op.group < s.k && op.group2 < s.k && op.group != op.group2 &&
            sim->group(op.group).size() > 0) {
          sim->leave_group(op.group, op.group2);
          // The handoff moves state exactly (full-precision checkpoint
          // round-trip + consistent X re-prime), so a monotone phase stays
          // monotone: no checker hook needed.
          if (supervisor != nullptr) supervisor->resync(offset + sim->now());
        }
        break;
      case OpKind::kJoin:
        if (op.group < s.k && op.group2 < s.k && op.group != op.group2 &&
            sim->group(op.group).size() == 0 &&
            sim->group(op.group2).size() >= 2) {
          sim->join_group(op.group, op.group2);
          if (supervisor != nullptr) supervisor->resync(offset + sim->now());
        }
        break;
      case OpKind::kPartition: {
        std::uint64_t mask = op.seed;
        if (mask == kCutBusiestGroup) {
          // Resolve the sentinel to the group owning the most pages right
          // now (lowest index ties) — the one cut guaranteed to sever live
          // traffic, so suspicion and the evict→rejoin arc must follow.
          std::uint32_t busiest = 0;
          for (std::uint32_t g2 = 1; g2 < s.k && g2 < 64; ++g2) {
            if (sim->group(g2).size() > sim->group(busiest).size()) {
              busiest = g2;
            }
          }
          mask = std::uint64_t{1} << busiest;
        }
        sim->set_partition(mask, std::clamp(op.value, 0.0, 1.0),
                           std::clamp(op.value2, 0.0, 1.0));
        break;
      }
      case OpKind::kHeal:
        sim->heal_partition();
        break;
      case OpKind::kCorrupt:
        sim->set_corruption(std::clamp(op.value, 0.0, 1.0));
        break;
      case OpKind::kSaveCheckpoint: {
        std::ostringstream out;
        engine::save_ranks(g, sim->global_ranks(), out);
        checkpoint = out.str();
        checkpoint_consistent = state_consistent;
        break;
      }
      case OpKind::kRestoreCheckpoint: {
        if (checkpoint.empty()) break;  // nothing saved yet: defined no-op
        std::istringstream in(checkpoint);
        // Full round-trip through the text format — the harness exercises
        // checkpoint serialization on every restore. A checkpoint from
        // before a graph update still loads: matching is by URL, new pages
        // start at 0.
        const auto loaded = engine::load_ranks(g, in);
        for (std::uint32_t grp = 0; grp < s.k; ++grp) sim->crash_group(grp);
        // A restore is a global rollback: slices sent from the rolled-back
        // timeline must not outlive it (they would inflate peers' X above
        // the restored state, and the first post-restore send would deflate
        // it — a rank dip that breaks monotone re-arming).
        sim->drop_in_flight();
        if (s.serve) {
          // The rollback instant: every published epoch reflects the
          // abandoned timeline and must read as stale — but still serve
          // (availability over freshness).
          const auto snap = serve_store.acquire();
          if (snap == nullptr || !serve_store.is_stale(*snap)) {
            result.violations.push_back(
                {"serve-invalidate", offset + sim->now(),
                 "snapshot not stale after restore rollback"});
          }
        }
        sim->warm_start(loaded.ranks);
        if (s.serve) {
          // The warm start republishes the restored state, superseding the
          // stale epochs immediately.
          const auto snap = serve_store.acquire();
          if (snap == nullptr || serve_store.is_stale(*snap)) {
            result.violations.push_back(
                {"serve-invalidate", offset + sim->now(),
                 "restore warm start did not republish a fresh snapshot"});
          }
        }
        checker->on_restore(loaded.ranks, checkpoint_consistent);
        state_consistent = checkpoint_consistent;
        break;
      }
      case OpKind::kGraphUpdate: {
        const auto ranks = sim->global_ranks();
        auto delta = graph::apply_updates_delta(g, random_updates(g, op.seed));
        auto new_assignment = partitioner->partition(delta.graph, s.k);
        // Incremental fast path (DESIGN.md §14): a link-only splice with
        // unchanged ownership carries the frontier across the swap instead
        // of re-sweeping densely. Bitwise-identical to the cold path, which
        // --full-graph-rebuild forces.
        const bool incremental = !opts_.full_graph_rebuild && delta.incremental &&
                                 new_assignment == assignment;
        engine::DistributedRanking::WorklistCarrySet carry;
        if (incremental) carry = sim->export_worklist_carry();
        // PageIds are preserved across a splice, so the rank vector carries
        // verbatim; only a page-adding rebuild needs carry_ranks' remap.
        std::vector<double> carried =
            delta.incremental ? std::vector<double>(ranks.begin(), ranks.end())
                              : engine::carry_ranks(g, ranks, delta.graph);
        offset += sim->now();
        checker.reset();  // references sim
        sim.reset();      // references g
        g = std::move(delta.graph);
        assignment = std::move(new_assignment);
        reference = engine::open_system_reference(g, opts_.alpha, pool_);
        if (opts_.break_skip_refresh) {
          eo.fault_skip_refresh_group = largest_group(assignment, s.k);
        }
        sim = std::make_unique<engine::DistributedRanking>(g, assignment, s.k,
                                                           eo, pool_);
        sim->set_reference(reference);
        if (incremental) {
          sim->warm_start_incremental(carried, std::move(carry),
                                      delta.in_changed, delta.degree_changed);
        } else {
          sim->warm_start(carried);
        }
        state_consistent = false;
        checkpoint_consistent = false;
        // The monotone/bound premises are gone (the paper's Section 4.3
        // caveat): carried ranks can exceed the new fixed point. Keep
        // finiteness + counters, and converge against the new reference.
        checker = std::make_unique<InvariantChecker>(
            *sim, reference, /*check_monotone=*/false, /*check_bound=*/false,
            /*expect_status_per_step=*/eo.stability_epsilon > 0.0);
        if (supervisor != nullptr) {
          // Fresh engine, fresh supervisor: the ledger re-roots on the new
          // assignment and all rankers start healthy (the ctor also clears
          // any shard-down marks left in the serve store). The eviction/
          // rejoin tallies roll up into the result before replacement.
          result.evictions += supervisor->evictions();
          result.rejoins += supervisor->rejoins();
          supervisor = std::make_unique<recover::RecoverySupervisor>(*sim, so);
          recover_epochs.clear();  // epochs re-root with the new supervisor
        }
        break;
      }
    }
  }
  advance_to(s.active_time);
  const double active_end = offset + sim->now();
  if (opts_.tracer != nullptr) {
    opts_.tracer->complete(obs::names::kTracePhase, 0.0, active_end, 0,
                           "active");
  }

  // Loss-free, fault-free tail: every theorem-abiding configuration must
  // now converge to the centralized ranks.
  if (result.violations.size() < opts_.max_violations) {
    sim->set_delivery_probability(1.0);
    sim->set_ack_delivery_probability(1.0);
    // Partitions and corruption are faults too: the tail heals the cut and
    // stops flipping bytes. An evicted ranker rejoins during the tail (the
    // supervisor keeps ticking and its probes now read clean), so recovery
    // scenarios must converge with full membership restored.
    sim->heal_partition();
    sim->set_corruption(0.0);
    // Jitter reverts to the scenario's base value: it is configuration, not
    // a fault — and with `reliable` off a mid-run reorder burst has already
    // dis-armed monotonicity, while convergence tolerates jitter either way
    // (as R settles, reordered slices carry identical values).
    sim->set_latency_jitter(s.latency_jitter);
    for (std::uint32_t grp = 0; grp < s.k; ++grp) {
      if (sim->is_paused(grp)) sim->resume_group(grp);
    }
    const double deadline = offset + sim->now() + opts_.tail_max_time;
    double err = sim->relative_error_now();
    while (err > opts_.tail_error_threshold &&
           offset + sim->now() + 1e-12 < deadline &&
           result.violations.size() < opts_.max_violations) {
      advance_to(std::min(deadline, offset + sim->now() + opts_.sample_interval));
      err = sim->relative_error_now();
    }
    result.converged = err <= opts_.tail_error_threshold;
    result.final_error = err;
    if (!result.converged && result.violations.size() < opts_.max_violations) {
      std::ostringstream detail;
      detail << "loss-free tail stuck at relative error " << err << " after "
             << opts_.tail_max_time << " extra time units";
      result.violations.push_back(
          {"convergence", offset + sim->now(), detail.str()});
    }
  } else {
    result.final_error = sim->relative_error_now();
  }

  result.end_time = offset + sim->now();
  if (opts_.tracer != nullptr && result.end_time > active_end) {
    opts_.tracer->complete(obs::names::kTracePhase, active_end,
                           result.end_time - active_end, 0, "tail");
  }
  result.messages_sent = sim->messages_sent();
  result.messages_lost = sim->messages_lost();
  result.retransmissions = sim->retransmissions();
  result.duplicates_rejected = sim->duplicates_rejected();
  result.churn_events = sim->churn_events();
  result.partition_drops = sim->partition_drops();
  result.frames_quarantined = sim->frames_quarantined();
  if (supervisor != nullptr) {
    result.evictions += supervisor->evictions();
    result.rejoins += supervisor->rejoins();
  }
  return result;
}

}  // namespace p2prank::check
