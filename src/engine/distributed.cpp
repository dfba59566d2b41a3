#include "engine/distributed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "engine/checkpoint.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/exchange.hpp"
#include "util/stats.hpp"

namespace p2prank::engine {

namespace {

/// Wire cost of one Y-slice message under the §4.5 format (40-byte
/// envelope + ~100 bytes per <url_from, url_to, score> record). The
/// engine ships record *counts*, not payloads; this prices them.
[[nodiscard]] double slice_wire_bytes(std::uint64_t records) {
  constexpr transport::WireFormat kWire{};
  return kWire.header_bytes + static_cast<double>(records) * kWire.record_bytes;
}

}  // namespace

EngineOptions DistributedRanking::validated(EngineOptions o) {
  // Field-naming messages: a chaos harness (or a config file) that produces
  // a bad option should learn *which* knob is bad, not just that one is.
  //
  // Every EngineOptions/ReliabilityOptions field must be registered here —
  // either with a range check or, when any value is valid, with an explicit
  // note. tools/p2plint (rule `engine-options-registry`) fails the build
  // when a new field is added without a decision in this function.
  //
  // Unconstrained fields:
  //   algorithm                — every enumerator is a valid algorithm
  //   overlay                  — nullptr = abstract channel; the constructor
  //                              checks num_nodes() >= k for non-null
  //   seed                     — any 64-bit seed
  //   fault_skip_refresh_group — any index; UINT32_MAX (default) = off, an
  //                              out-of-range index hits no group
  //   metrics                  — nullptr (default) = metrics off; any
  //                              registry, must outlive the engine
  //   tracer                   — nullptr (default) = tracing off; any
  //                              tracer, must outlive the engine
  //   snapshot_sink            — nullptr (default) = serving off; any sink,
  //                              must outlive the engine (DESIGN.md §12)
  if (!(o.alpha > 0.0 && o.alpha < 1.0)) {
    throw std::invalid_argument("EngineOptions.alpha: must be in (0,1)");
  }
  if (!(o.inner_epsilon > 0.0)) {
    throw std::invalid_argument("EngineOptions.inner_epsilon: must be > 0");
  }
  if (o.inner_max_iterations == 0) {
    throw std::invalid_argument("EngineOptions.inner_max_iterations: must be >= 1");
  }
  for (const double e : o.personalization) {
    if (!(e >= 0.0) || !std::isfinite(e)) {
      throw std::invalid_argument(
          "EngineOptions.personalization: entries must be >= 0 and finite");
    }
  }
  if (!(o.delivery_probability >= 0.0 && o.delivery_probability <= 1.0)) {
    throw std::invalid_argument(
        "EngineOptions.delivery_probability: must be in [0,1]");
  }
  if (!(o.t1 >= 0.0)) {
    throw std::invalid_argument("EngineOptions.t1: must be >= 0");
  }
  if (!(o.t2 >= o.t1)) {
    throw std::invalid_argument("EngineOptions.t2: must be >= t1");
  }
  if (!(o.delivery_latency >= 0.0)) {
    throw std::invalid_argument("EngineOptions.delivery_latency: must be >= 0");
  }
  if (!(o.latency_jitter >= 0.0)) {
    throw std::invalid_argument("EngineOptions.latency_jitter: must be >= 0");
  }
  if (!(o.per_hop_latency >= 0.0)) {
    throw std::invalid_argument("EngineOptions.per_hop_latency: must be >= 0");
  }
  if (!(o.stability_epsilon >= 0.0)) {
    throw std::invalid_argument("EngineOptions.stability_epsilon: must be >= 0");
  }
  if (!(o.send_threshold >= 0.0)) {
    throw std::invalid_argument("EngineOptions.send_threshold: must be >= 0");
  }
  if (!(o.snapshot_interval > 0.0) || !std::isfinite(o.snapshot_interval)) {
    throw std::invalid_argument(
        "EngineOptions.snapshot_interval: must be > 0 and finite");
  }
  // worklist — both values valid: false keeps the dense kernels, true
  // routes local iteration through the frontier kernel (DESIGN.md §6).
  if (!(o.worklist_epsilon >= 0.0) || !std::isfinite(o.worklist_epsilon)) {
    throw std::invalid_argument(
        "EngineOptions.worklist_epsilon: must be >= 0 and finite");
  }
  if (o.worklist && o.worklist_epsilon > 0.0 && o.worklist_full_interval == 0) {
    throw std::invalid_argument(
        "EngineOptions.worklist_full_interval: must be >= 1 when "
        "worklist_epsilon > 0 (periodic dense sweeps bound the drift)");
  }
  auto& r = o.reliability;
  if (r.retransmit) r.epochs = true;  // retransmission needs the dup filter
  if (!(r.ack_latency >= 0.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.ack_latency: must be >= 0");
  }
  if (!(r.ack_delivery_probability <= 1.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.ack_delivery_probability: must be <= 1 "
        "(negative mirrors delivery_probability)");
  }
  if (!(r.rto_initial > 0.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.rto_initial: must be > 0");
  }
  if (!(r.rto_backoff >= 1.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.rto_backoff: must be >= 1");
  }
  if (!(r.rto_max >= r.rto_initial)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.rto_max: must be >= rto_initial");
  }
  if (!(r.rto_jitter >= 0.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.rto_jitter: must be >= 0");
  }
  if (r.suspicion_after == 0) {
    throw std::invalid_argument(
        "EngineOptions.reliability.suspicion_after: must be >= 1");
  }
  if (!(r.suspect_decay >= 0.0 && r.suspect_decay <= 1.0)) {
    throw std::invalid_argument(
        "EngineOptions.reliability.suspect_decay: must be in [0,1]");
  }
  return o;
}

DistributedRanking::DistributedRanking(const graph::WebGraph& g,
                                       std::span<const std::uint32_t> assignment,
                                       std::uint32_t k, const EngineOptions& opts,
                                       util::ThreadPool& pool)
    : graph_(g),
      opts_(validated(opts)),
      pool_(pool),
      inbox_(k),
      waits_(opts_.t1, opts_.t2, k, opts_.seed ^ 0x5851f42d4c957f2dULL),
      loss_(opts_.delivery_probability, opts_.seed ^ 0x14057b7ef767814fULL),
      ack_loss_(opts_.reliability.ack_delivery_probability < 0.0
                    ? opts_.delivery_probability
                    : opts_.reliability.ack_delivery_probability,
                opts_.seed ^ 0x9e3779b97f4a7c15ULL),
      fault_plane_(opts_.seed ^ 0x94d049bb133111ebULL),
      jitter_rng_(opts_.seed ^ 0xd1b54a32d192ed03ULL),
      latency_jitter_(opts_.latency_jitter) {
  if (assignment.size() != g.num_pages()) {
    throw std::invalid_argument("DistributedRanking: assignment size mismatch");
  }
  if (k == 0) throw std::invalid_argument("DistributedRanking: k == 0");
  if (!opts_.personalization.empty() &&
      opts_.personalization.size() != g.num_pages()) {
    throw std::invalid_argument("EngineOptions.personalization: size mismatch");
  }
  if (opts_.overlay != nullptr && opts_.overlay->num_nodes() < k) {
    throw std::invalid_argument(
        "EngineOptions.overlay: fewer overlay nodes than the k ranker groups");
  }
  if (opts_.reliability.epochs) {
    transport::ReliableOptions ro;
    ro.rto_initial = opts_.reliability.rto_initial;
    ro.rto_backoff = opts_.reliability.rto_backoff;
    ro.rto_max = opts_.reliability.rto_max;
    ro.rto_jitter = opts_.reliability.rto_jitter;
    ro.suspicion_after = opts_.reliability.suspicion_after;
    reliable_.emplace(ro, opts_.seed ^ 0x2545f4914f6cdd1dULL);
  }

  build_groups(assignment);
  init_obs();

  // --- Kick off every non-empty ranker --------------------------------------
  stable_flag_.assign(k, 0);
  paused_.assign(k, 0);
  active_.assign(k, 0);
  records_per_group_.assign(k, 0);
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    if (groups_[grp]->size() > 0) schedule_step(grp);
  }

  // Serving is live from t = 0: the all-zero cold-start state is the true
  // current state, and publishing it means a reader never finds the store
  // empty once the engine exists (a warm_start republishes immediately).
  publish_snapshot();
}

void DistributedRanking::init_obs() {
  obs::MetricsRegistry* m = opts_.metrics;
  if (m == nullptr) return;
  namespace names = obs::names;
  obs_.outer_steps = &m->counter(names::kEngineOuterSteps);
  obs_.inner_sweeps = &m->counter(names::kEngineInnerSweeps);
  obs_.messages_sent = &m->counter(names::kEngineMessagesSent);
  obs_.messages_lost = &m->counter(names::kEngineMessagesLost);
  obs_.deliveries = &m->counter(names::kEngineDeliveries);
  obs_.records_sent = &m->counter(names::kEngineRecordsSent);
  obs_.record_hops = &m->counter(names::kEngineRecordHops);
  obs_.churn_events = &m->counter(names::kEngineChurnEvents);
  obs_.retransmissions = &m->counter(names::kTransportRetransmissions);
  obs_.retransmit_records = &m->counter(names::kTransportRetransmitRecords);
  obs_.acks_sent = &m->counter(names::kTransportAcksSent);
  obs_.acks_delivered = &m->counter(names::kTransportAcksDelivered);
  obs_.duplicates_rejected = &m->counter(names::kTransportDuplicatesRejected);
  obs_.suspicions = &m->counter(names::kTransportSuspicions);
  obs_.partition_drops = &m->counter(names::kTransportPartitionDrops);
  obs_.frames_quarantined = &m->counter(names::kTransportFramesQuarantined);
  obs_.data_bytes = &m->gauge(names::kEngineDataBytes);
  obs_.retransmit_bytes = &m->gauge(names::kTransportRetransmitBytes);
  obs_.slice_records = &m->log2_histogram(names::kEngineSliceRecords);
  obs_.inner_iterations = &m->log2_histogram(names::kEngineInnerIterations);
  // Residuals span ~[1, 1e-16] over a run; bin the log10 so late-
  // convergence structure is visible. -inf (a bit-identical step) clamps
  // into the first bin by the LinearHistogram contract.
  obs_.step_residual =
      &m->linear_histogram(names::kEngineStepResidualLog10, -18.0, 2.0, 40);
  const auto k = static_cast<std::uint32_t>(groups_.size());
  obs_.group_outer_steps.reserve(k);
  obs_.group_residual.reserve(k);
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    obs_.group_outer_steps.push_back(&m->counter(names::kEngineGroupOuterSteps, grp));
    obs_.group_residual.push_back(&m->gauge(names::kEngineGroupResidual, grp));
  }
}

void DistributedRanking::build_groups(std::span<const std::uint32_t> assignment) {
  const auto k = static_cast<std::uint32_t>(inbox_.size());

  // --- Collect members per group -------------------------------------------
  std::vector<std::vector<graph::PageId>> members(k);
  for (graph::PageId p = 0; p < graph_.num_pages(); ++p) {
    if (assignment[p] >= k) {
      throw std::invalid_argument("DistributedRanking: assignment value >= k");
    }
    members[assignment[p]].push_back(p);  // ascending because p ascends
  }

  // Local index of every page within its group.
  std::vector<std::uint32_t> local_index(graph_.num_pages(), 0);
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    for (std::uint32_t i = 0; i < members[grp].size(); ++i) {
      local_index[members[grp][i]] = i;
    }
  }

  groups_.clear();
  groups_.reserve(k);
  nonempty_ = 0;
  std::vector<double> e_local;
  for (std::uint32_t grp = 0; grp < k; ++grp) {
    if (!members[grp].empty()) ++nonempty_;
    e_local.clear();
    if (!opts_.personalization.empty()) {
      e_local.reserve(members[grp].size());
      for (const graph::PageId p : members[grp]) {
        e_local.push_back(opts_.personalization[p]);
      }
    }
    groups_.push_back(std::make_unique<PageGroup>(graph_, std::move(members[grp]),
                                                  opts_.alpha, e_local));
    if (opts_.worklist) {
      // Fresh groups start unprimed (first sweep dense), which is exactly
      // the frontier-reset rule for churn/graph-update rebuilds.
      rank::WorklistOptions wl;
      wl.epsilon = opts_.worklist_epsilon;
      wl.full_interval = opts_.worklist_full_interval;
      groups_.back()->configure_worklist(wl);
    }
  }

  // --- Wire cut edges into the link table -----------------------------------
  links_ = LinkTable::build(k, [&](auto&& emit) {
    for (graph::PageId u = 0; u < graph_.num_pages(); ++u) {
      const std::uint32_t gu = assignment[u];
      for (const graph::PageId v : graph_.out_links(u)) {
        const std::uint32_t gv = assignment[v];
        if (gv != gu) emit(gu, gv, local_index[u], local_index[v]);
      }
    }
  });
  for (std::uint32_t grp = 0; grp < k; ++grp) groups_[grp]->attach_links(links_, grp);
  pending_.assign(opts_.reliability.retransmit ? links_.num_links() : 0, kNone);
  pending_count_ = 0;
  if (reliable_) {
    link_pairs_.assign(links_.num_links(), LinkPair{});
    // Every link that sends takes one pair slot: size the pair table once.
    reliable_->reserve(links_.num_links());
  }
  hops_.assign(opts_.overlay != nullptr ? links_.num_links() : 0, kNone);

  // Every membership change funnels through here (construction, churn);
  // the bump tells snapshot sinks their cached page → shard maps are stale.
  ++ownership_version_;
}

void DistributedRanking::prime_x() {
  YSlice y;
  for (std::uint32_t src = 0; src < groups_.size(); ++src) {
    for (std::uint32_t link = links_.out_begin(src); link < links_.out_end(src); ++link) {
      const std::uint32_t dest = links_.dst(link);
      if (dest == opts_.fault_skip_refresh_group) continue;
      groups_[src]->compute_y(link, 0.0, y);
      const bool applied = groups_[dest]->refresh_x(link, y.values);
      assert(applied);
      static_cast<void>(applied);
    }
  }
}

void DistributedRanking::warm_start(std::span<const double> global_ranks) {
  if (global_ranks.size() != graph_.num_pages()) {
    throw std::invalid_argument("DistributedRanking: warm_start size mismatch");
  }
  std::vector<double> local;
  for (auto& grp : groups_) {
    const auto members = grp->members();
    local.clear();
    local.reserve(members.size());
    for (const graph::PageId p : members) local.push_back(global_ranks[p]);
    grp->set_ranks(local);
  }
  // Restore afferent state too: in a running deployment each ranker's X
  // survives a crawl update — it is received state, not recomputed. Prime
  // it by delivering every group's Y (computed from the warm ranks)
  // directly, outside the message accounting (and outside the epoch filter:
  // priming is state transfer, not a channel send). The chaos harness's
  // deliberately broken ranker skips priming like it skips its inbox — its
  // whole afferent-update path is dead, so churn and restore state
  // transfers must not silently heal it (the --broken self-test depends on
  // the fault surviving every recovery mechanism).
  prime_x();
  // A warm start changes the served state wholesale (initial seeding, churn
  // handoff, restore) — republish instead of waiting out the cadence.
  publish_snapshot();
}

DistributedRanking::WorklistCarrySet DistributedRanking::export_worklist_carry()
    const {
  WorklistCarrySet carry;
  carry.groups.reserve(groups_.size());
  for (const auto& grp : groups_) {
    carry.groups.push_back(grp->export_worklist_carry());
  }
  return carry;
}

void DistributedRanking::warm_start_incremental(
    std::span<const double> global_ranks, WorklistCarrySet carry,
    std::span<const graph::PageId> changed_rows,
    std::span<const graph::PageId> changed_sources) {
  if (global_ranks.size() != graph_.num_pages()) {
    throw std::invalid_argument(
        "DistributedRanking: warm_start_incremental size mismatch");
  }
  // A carry from an engine with a different group count cannot be aligned;
  // treat every group as fallback (degrades to warm_start semantics).
  const bool carry_usable = carry.groups.size() == groups_.size();

  // Bucket the delta's global page ids into per-group local row indices.
  const auto assignment = current_assignment();
  std::vector<std::vector<std::uint32_t>> rows_local(groups_.size());
  std::vector<std::vector<std::uint32_t>> sources_local(groups_.size());
  const auto bucket = [&](std::span<const graph::PageId> pages,
                          std::vector<std::vector<std::uint32_t>>& out) {
    for (const graph::PageId p : pages) {
      const std::uint32_t gi = assignment.at(p);
      const auto members = groups_[gi]->members();
      const auto it = std::lower_bound(members.begin(), members.end(), p);
      assert(it != members.end() && *it == p);
      out[gi].push_back(static_cast<std::uint32_t>(it - members.begin()));
    }
  };
  bucket(changed_rows, rows_local);
  bucket(changed_sources, sources_local);

  // Install ranks + frontier everywhere *before* re-priming X, so
  // refresh_x's forcing-dirty marks land on primed state.
  std::vector<double> local;
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    const auto members = groups_[i]->members();
    local.clear();
    local.reserve(members.size());
    for (const graph::PageId p : members) local.push_back(global_ranks[p]);
    if (carry_usable) {
      groups_[i]->install_worklist_carry(local, std::move(carry.groups[i]),
                                         rows_local[i], sources_local[i]);
    } else {
      groups_[i]->set_ranks(local);
    }
  }
  // X re-prime: identical to warm_start (state transfer, not channel sends;
  // the deliberately broken ranker stays broken).
  prime_x();
  // Conservative frontier repair: every received X row recomputes next
  // sweep, covering entries the delta-based marks cannot see (bitwise-0.0
  // slice values superseding a nonzero pre-swap X).
  for (auto& grp : groups_) grp->mark_all_received_dirty();
  publish_snapshot();
}

void DistributedRanking::pause_group(std::uint32_t group) {
  paused_.at(group) = 1;
}

void DistributedRanking::resume_group(std::uint32_t group) {
  if (paused_.at(group) == 0) return;
  paused_[group] = 0;
  // Only schedule when no step event is already queued (a pause/resume
  // inside one wait interval must not double-clock the group).
  if (groups_[group]->size() > 0 && active_[group] == 0) schedule_step(group);
}

bool DistributedRanking::is_paused(std::uint32_t group) const {
  return paused_.at(group) != 0;
}

void DistributedRanking::crash_group(std::uint32_t group) {
  PageGroup& pg = *groups_.at(group);
  if (pg.size() == 0) return;  // nothing to lose, nothing scheduled
  pg.reset_state();
  inbox_[group].clear();
  if (reliable_) {
    // The crashed ranker's transmit buffers die with its memory; the
    // per-pair epochs are transport-session state and survive (peers keep
    // rejecting stale slices and keep retransmitting *to* it).
    reliable_->reset_sender(group);
    if (!pending_.empty()) {
      for (std::uint32_t link = links_.out_begin(group); link < links_.out_end(group);
           ++link) {
        clear_pending(link);
      }
    }
  }
  // A rebooted ranker starts unstable until it reports otherwise.
  if (stable_flag_[group] != 0) {
    stable_flag_[group] = 0;
    --stable_count_;
  }
  // Deliberately no (re)scheduling: a running group's next step is already
  // queued and simply finds empty state; a paused group stays paused until
  // resume_group (crash-while-down semantics).
}

std::vector<std::uint32_t> DistributedRanking::current_assignment() const {
  std::vector<std::uint32_t> assignment(graph_.num_pages(), UINT32_MAX);
  for (std::uint32_t grp = 0; grp < groups_.size(); ++grp) {
    for (const graph::PageId p : groups_[grp]->members()) assignment[p] = grp;
  }
  return assignment;
}

void DistributedRanking::drop_in_flight() {
  // The generation stamp kills undelivered slice events; the buffered
  // retransmit payloads and pending-epoch records go with them. Queued
  // inbox messages are already-delivered state and stay (a restore's crash
  // wave clears them anyway). Accepted-epoch high-water marks survive: the
  // channel session outlives a rollback just like it outlives a crash.
  ++generation_;
  drop_pending();
  if (reliable_) reliable_->reset_pending();
  // A restore is a global rollback for the serving layer too: every epoch
  // published from the rolled-back timeline is stale. The sink keeps
  // serving it (availability over freshness) until the restore's
  // warm_start republishes.
  if (opts_.snapshot_sink != nullptr) {
    opts_.snapshot_sink->invalidate(queue_.now());
  }
}

void DistributedRanking::apply_churn(std::span<const std::uint32_t> assignment) {
  // Hand the rank state through the checkpoint text format — the exact
  // state-transfer path a real ranker handoff would ship over the wire —
  // then rebuild the cut-edge wiring for the new ownership and warm-start.
  // The format stores full double precision, so a consistent
  // (sub-fixed-point) state round-trips exactly and Thm 4.1/4.2 survive.
  std::ostringstream text;
  save_ranks(graph_, global_ranks(), text);

  // Queued and buffered slices address the old wiring's links: drop them
  // before the link table is rebuilt.
  drop_pending();
  for (auto& box : inbox_) box.clear();
  for (const auto& grp : groups_) retired_outer_steps_ += grp->outer_steps();
  build_groups(assignment);

  std::istringstream in(text.str());
  const LoadedRanks loaded = load_ranks(graph_, in);
  warm_start(loaded.ranks);

  // In-flight slices and retransmit timers reference the *old* wiring's
  // links: invalidate them wholesale via the generation stamp (their
  // buffers and the inboxes were dropped above). Epoch counters survive
  // (transport-session state), so "accepted epoch non-decreasing" holds
  // across churn.
  ++generation_;
  if (reliable_) reliable_->reset_pending();

  // Every ranker re-reports stability against the new ownership.
  std::fill(stable_flag_.begin(), stable_flag_.end(), 0);
  stable_count_ = 0;

  ++churn_events_;
  if (obs_.churn_events != nullptr) ++*obs_.churn_events;
  if (opts_.tracer != nullptr) {
    opts_.tracer->instant(obs::names::kTraceChurn, queue_.now());
  }
  for (std::uint32_t grp = 0; grp < groups_.size(); ++grp) {
    if (groups_[grp]->size() > 0 && paused_[grp] == 0 && active_[grp] == 0) {
      schedule_step(grp);
    }
  }
}

void DistributedRanking::leave_group(std::uint32_t group, std::uint32_t successor) {
  if (group >= groups_.size() || successor >= groups_.size()) {
    throw std::out_of_range("DistributedRanking::leave_group: group out of range");
  }
  if (successor == group) {
    throw std::invalid_argument(
        "DistributedRanking::leave_group: successor == departing group");
  }
  if (groups_[group]->size() == 0) {
    throw std::invalid_argument(
        "DistributedRanking::leave_group: departing group owns no pages");
  }
  std::vector<std::uint32_t> assignment = current_assignment();
  for (auto& a : assignment) {
    if (a == group) a = successor;
  }
  // The chaos harness's deliberately-broken ranker follows its pages: if the
  // faulty group departs, the successor inherits the fault, so a --broken
  // self-test stays broken across churn.
  if (opts_.fault_skip_refresh_group == group) {
    opts_.fault_skip_refresh_group = successor;
  }
  apply_churn(assignment);
}

void DistributedRanking::join_group(std::uint32_t group, std::uint32_t donor) {
  if (group >= groups_.size() || donor >= groups_.size()) {
    throw std::out_of_range("DistributedRanking::join_group: group out of range");
  }
  if (donor == group) {
    throw std::invalid_argument("DistributedRanking::join_group: donor == group");
  }
  if (groups_[group]->size() != 0) {
    throw std::invalid_argument(
        "DistributedRanking::join_group: joining group already owns pages");
  }
  const auto donor_members = groups_[donor]->members();
  if (donor_members.size() < 2) {
    throw std::invalid_argument(
        "DistributedRanking::join_group: donor has fewer than two pages");
  }
  std::vector<std::uint32_t> assignment = current_assignment();
  // The joiner takes the upper half of the donor's (ascending) key range —
  // the successor-split a structured overlay performs on node arrival.
  const std::size_t keep = (donor_members.size() + 1) / 2;
  for (std::size_t i = keep; i < donor_members.size(); ++i) {
    assignment[donor_members[i]] = group;
  }
  apply_churn(assignment);
}

void DistributedRanking::set_latency_jitter(double jitter) {
  if (!(jitter >= 0.0)) {
    throw std::invalid_argument("DistributedRanking: latency_jitter must be >= 0");
  }
  latency_jitter_ = jitter;
}

double DistributedRanking::delivery_delay(std::uint32_t src, std::uint32_t dst,
                                          std::uint32_t link) {
  double delay = opts_.delivery_latency;
  if (opts_.overlay != nullptr) {
    // Indirect transmission: one overlay hop per per_hop_latency. Routes are
    // static in the stabilized overlay, so hop counts are cached per link.
    std::uint32_t& hops = hops_[link];
    if (hops == kNone) {
      hops = static_cast<std::uint32_t>(
          opts_.overlay->route(src, opts_.overlay->id_of(dst)).size());
    }
    delay = opts_.per_hop_latency * static_cast<double>(hops);
  }
  // One jitter draw per delivered message, and only when jitter is on — the
  // jitter-off RNG streams are bit-identical to the pre-jitter engine.
  if (latency_jitter_ > 0.0) delay += jitter_rng_.uniform(0.0, latency_jitter_);
  return delay;
}

void DistributedRanking::schedule_step(std::uint32_t group) {
  active_[group] = 1;
  const double wait = std::max(kMinWait, waits_.next_wait(group));
  queue_.schedule_in(wait, Event{.kind = Event::Kind::kStep, .group = group});
}

void DistributedRanking::advance_to(double t) {
  events_executed_ += queue_.run_until(t, [this](const Event& ev) { fire(ev); });
}

void DistributedRanking::fire(const Event& ev) {
  // Deliveries and timers stamped with an older generation name links of a
  // rebuilt wiring (or of a rolled-back timeline): they are dropped.
  const bool live = ev.generation == generation_;
  switch (ev.kind) {
    case Event::Kind::kStep:
      run_step(ev.group);
      return;
    case Event::Kind::kArrive:
      if (live) arrive(ev.group, ev.link, slices_[ev.ref].slice);
      release_slice(ev.ref);
      return;
    case Event::Kind::kDeliver:
      if (live) deliver(ev.group, ev.link, ev.epoch, slices_[ev.ref].slice);
      release_slice(ev.ref);
      return;
    case Event::Kind::kAck:
      apply_ack(ev);
      return;
    case Event::Kind::kTimer:
      if (live) on_retransmit_timer(ev.group, ev.link, ev.epoch);
      return;
  }
}

std::uint32_t DistributedRanking::hold(const YSlice& slice) {
  std::uint32_t index = free_slice_;
  if (index != kNone) {
    free_slice_ = slices_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slices_.size());
    slices_.emplace_back();
  }
  SliceBuf& buf = slices_[index];
  buf.refs = 1;
  buf.slice.sparse = slice.sparse;
  buf.slice.record_count = slice.record_count;
  buf.slice.values.assign(slice.values.begin(), slice.values.end());
  buf.slice.entries.assign(slice.entries.begin(), slice.entries.end());
  return index;
}

void DistributedRanking::release_slice(std::uint32_t slice) {
  SliceBuf& buf = slices_[slice];
  assert(buf.refs > 0);
  if (--buf.refs != 0) return;
  buf.next_free = free_slice_;
  free_slice_ = slice;
}

void DistributedRanking::set_pending(std::uint32_t link, std::uint32_t slice) {
  clear_pending(link);
  pending_[link] = slice;
  ++pending_count_;
}

void DistributedRanking::clear_pending(std::uint32_t link) {
  if (pending_[link] == kNone) return;
  release_slice(pending_[link]);
  pending_[link] = kNone;
  --pending_count_;
}

void DistributedRanking::drop_pending() {
  for (std::uint32_t link = 0; link < pending_.size(); ++link) clear_pending(link);
}

void DistributedRanking::inject_slice(std::uint32_t src, std::uint32_t dst,
                                      const YSlice& slice) {
  const std::uint32_t link = src < links_.num_groups() && dst < links_.num_groups()
                                 ? links_.find(src, dst)
                                 : LinkTable::kNoLink;
  if (link == LinkTable::kNoLink) {
    throw std::invalid_argument("DistributedRanking::inject_slice: no link src -> dst");
  }
  enqueue(link, slice);
}

void DistributedRanking::enqueue(std::uint32_t link, const YSlice& slice) {
  // Addressed by the receiver's slots from here on: the step that drains
  // the inbox never looks the link up again.
  inbox_[links_.dst(link)].push(links_.recv_first(link), links_.slot_count(link), slice);
}

void DistributedRanking::send_slice(std::uint32_t src, std::uint32_t link,
                                    const YSlice& slice) {
  const std::uint32_t dst = links_.dst(link);
  const std::uint64_t records = slice.record_count;
  ++messages_sent_;
  records_sent_ += records;
  records_per_group_[src] += records;
  if (obs_.messages_sent != nullptr) {
    ++*obs_.messages_sent;
    *obs_.records_sent += records;
    *obs_.data_bytes += slice_wire_bytes(records);
    obs_.slice_records->add(records);
  }

  if (!reliable_) {
    // The paper's fire-and-forget channel (bit-compatible with the
    // pre-reliability engine: one loss draw per send, commit on delivery).
    // The loss draw always comes first; the fault plane draws from its own
    // RNG and only while a cut is active, so the loss stream never shifts.
    const bool pass_loss = loss_.delivered();
    const bool pass_cut = fault_plane_.deliver(src, dst);
    if (!pass_cut && obs_.partition_drops != nullptr) ++*obs_.partition_drops;
    if (!pass_loss || !pass_cut) {
      ++messages_lost_;
      if (obs_.messages_lost != nullptr) ++*obs_.messages_lost;
      return;
    }
    if (opts_.send_threshold > 0.0) groups_[src]->commit_sent(link, slice);
    const double delay = delivery_delay(src, dst, link);
    if (opts_.overlay != nullptr) {
      const std::uint64_t hops = records * hops_[link];
      record_hops_ += hops;
      if (obs_.record_hops != nullptr) *obs_.record_hops += hops;
    }
    if (opts_.tracer != nullptr) {
      opts_.tracer->complete(obs::names::kTraceMsgFlight, queue_.now(), delay, dst,
                             {}, static_cast<double>(records));
    }
    if (delay <= 0.0) {
      arrive(src, link, slice);
    } else {
      // The slice lands in the inbox when the event fires — unless churn
      // rebuilt the wiring meanwhile (its link is stale, so it is dropped;
      // with no retransmission that loss is repaired by the sender's next
      // step).
      queue_.schedule_in(delay, Event{.kind = Event::Kind::kArrive,
                                      .group = src,
                                      .link = link,
                                      .ref = hold(slice),
                                      .generation = generation_});
    }
    return;
  }

  // Reliable exchange: stamp an epoch, buffer the payload if retransmission
  // is on (a fresh send supersedes the link's previous unacked slice — the
  // buffer holds at most one slice per link), then transmit. Sends to a
  // suspected peer still go out: they double as probes.
  const transport::Epoch epoch = reliable_->begin_send(pair_slot(src, link));
  std::uint32_t held = kNone;
  if (opts_.reliability.retransmit) {
    held = hold(slice);
    set_pending(link, held);
  }

  const bool pass_loss = loss_.delivered();
  const bool pass_cut = fault_plane_.deliver(src, dst);
  if (!pass_cut && obs_.partition_drops != nullptr) ++*obs_.partition_drops;
  const bool delivered = pass_loss && pass_cut;
  if (!delivered) {
    ++messages_lost_;
    if (obs_.messages_lost != nullptr) ++*obs_.messages_lost;
  } else {
    if (opts_.send_threshold > 0.0 && !opts_.reliability.retransmit) {
      // Without retransmission the loss draw above is the only delivery
      // knowledge; commit eagerly on it, exactly like fire-and-forget.
      // (With retransmission the commit happens on ack instead.)
      groups_[src]->commit_sent(link, slice);
    }
    const double delay = delivery_delay(src, dst, link);
    if (opts_.overlay != nullptr) {
      const std::uint64_t hops = records * hops_[link];
      record_hops_ += hops;
      if (obs_.record_hops != nullptr) *obs_.record_hops += hops;
    }
    if (opts_.tracer != nullptr) {
      opts_.tracer->complete(obs::names::kTraceMsgFlight, queue_.now(), delay, dst,
                             {}, static_cast<double>(records));
    }
    if (delay <= 0.0) {
      deliver(src, link, epoch, slice);
    } else {
      // The retransmit buffer doubles as the in-flight payload.
      if (held == kNone) {
        held = hold(slice);
      } else {
        ++slices_[held].refs;
      }
      queue_.schedule_in(delay, Event{.kind = Event::Kind::kDeliver,
                                      .group = src,
                                      .link = link,
                                      .ref = held,
                                      .epoch = epoch,
                                      .generation = generation_});
    }
  }
  if (opts_.reliability.retransmit) schedule_retransmit(src, link, epoch);
}

DistributedRanking::PairSlot DistributedRanking::pair_slot(std::uint32_t src,
                                                           std::uint32_t link) {
  LinkPair& lp = link_pairs_[link];
  if (lp.slot == kNone) {
    const std::uint32_t dst = links_.dst(link);
    lp.slot = reliable_->pair_slot(src, dst);
    lp.reverse = links_.find(dst, src);
  }
  return lp.slot;
}

void DistributedRanking::arrive(std::uint32_t src, std::uint32_t link,
                                const YSlice& slice) {
  const std::uint32_t dst = links_.dst(link);
  const YSlice* const arrived = frame_survives(src, dst, 0, link, slice);
  if (arrived == nullptr) return;
  if (obs_.deliveries != nullptr) ++*obs_.deliveries;
  enqueue(link, *arrived);
}

void DistributedRanking::deliver(std::uint32_t src, std::uint32_t link,
                                 transport::Epoch epoch, const YSlice& slice) {
  const std::uint32_t dst = links_.dst(link);
  // Transport-level processing at delivery time: runs even when dst's
  // application loop is paused (the protocol stack stays up; only the
  // ranker sleeps) and even when dst crashed meanwhile (a reboot does not
  // reset the channel).
  //
  // Corruption defense first: a quarantined frame is garbage — the receiver
  // cannot trust its addressing or epoch, so it is dropped before any
  // protocol processing (no liveness evidence, no epoch accept, no ack;
  // the sender's retransmit timer re-ships it).
  const YSlice* const arrived = frame_survives(src, dst, epoch, link, slice);
  if (arrived == nullptr) return;
  // The link carried this slice, so its first send filled its pair slot.
  const LinkPair lp = link_pairs_[link];
  // Receiving data from src is evidence src is alive: clear any suspicion
  // on the reverse pair and, if a retransmit was parked there, re-arm it.
  // A reverse link that has not sent in this wiring has nothing pending,
  // parked or backed off, so there is nothing for the evidence to clear.
  if (lp.reverse != LinkTable::kNoLink) {
    const PairSlot back = link_pairs_[lp.reverse].slot;
    if (back != kNone && reliable_->peer_alive(back)) {
      schedule_retransmit(dst, lp.reverse, reliable_->pending_epoch(back));
    }
  }
  const bool fresh = reliable_->accept(lp.slot, epoch);
  if (fresh) {
    if (obs_.deliveries != nullptr) ++*obs_.deliveries;
    enqueue(link, *arrived);
  } else if (obs_.duplicates_rejected != nullptr) {
    ++*obs_.duplicates_rejected;
  }
  // Ack even a rejected duplicate — the ack is cumulative (it carries the
  // receiver's accept high-water mark), so it also repairs a lost earlier
  // ack. Acks ride their own lossy channel.
  ++acks_sent_;
  if (obs_.acks_sent != nullptr) ++*obs_.acks_sent;
  const bool ack_pass_loss = ack_loss_.delivered();
  // The ack crosses the cut in the reverse direction (dst → src), so an
  // asymmetric partition can pass data one way and starve the acks.
  const bool ack_pass_cut = fault_plane_.deliver(dst, src);
  if (!ack_pass_cut && obs_.partition_drops != nullptr) {
    ++*obs_.partition_drops;
  }
  if (!ack_pass_loss || !ack_pass_cut) return;
  const Event ack{.kind = Event::Kind::kAck,
                  .group = src,
                  .link = link,
                  .ref = lp.slot,
                  .epoch = reliable_->accepted_epoch(lp.slot),
                  .generation = generation_};
  const double delay = opts_.reliability.ack_latency;
  if (delay <= 0.0) {
    apply_ack(ack);
  } else {
    queue_.schedule_in(delay, ack);
  }
}

void DistributedRanking::apply_ack(const Event& ack) {
  ++acks_delivered_;
  if (obs_.acks_delivered != nullptr) ++*obs_.acks_delivered;
  // An ack from before a churn rebuild cannot clear a newer epoch, and
  // its link id belongs to the old wiring: only the transport sees it.
  if (reliable_->on_ack(ack.ref, ack.epoch) && ack.generation == generation_ &&
      !pending_.empty() && pending_[ack.link] != kNone) {
    // Cleared the pending epoch: the buffered payload is now known
    // delivered — commit it for delta-sending and drop it.
    if (opts_.send_threshold > 0.0) {
      groups_[ack.group]->commit_sent(ack.link, slices_[pending_[ack.link]].slice);
    }
    clear_pending(ack.link);
  }
}

const YSlice* DistributedRanking::frame_survives(std::uint32_t src, std::uint32_t dst,
                                                 transport::Epoch epoch,
                                                 std::uint32_t link,
                                                 const YSlice& slice) {
  if (!fault_plane_.corruption_enabled()) return &slice;
  // While corruption is live, every slice pays the encode → (maybe flip
  // bytes) → decode round-trip, so the defense is exercised on clean frames
  // too — a codec that mangled valid payloads would corrupt ranks and trip
  // the finiteness/monotone invariants immediately. Frames address
  // destination-local pages, as on the wire; the link maps them to slots.
  frame_entries_.clear();
  if (slice.sparse) {
    for (const auto& [slot, value] : slice.entries) {
      frame_entries_.emplace_back(links_.slot_page(link, slot), value);
    }
  } else {
    for (std::size_t slot = 0; slot < slice.values.size(); ++slot) {
      frame_entries_.emplace_back(links_.slot_page(link, slot), slice.values[slot]);
    }
  }
  const transport::FrameHeader header{src, dst, epoch, slice.record_count};
  transport::encode_frame(header, frame_entries_, frame_bytes_);
  const bool corrupted = fault_plane_.maybe_corrupt(frame_bytes_);
  const auto verdict = transport::decode_frame(frame_bytes_, decoded_);
  if (verdict != transport::FrameVerdict::kOk) {
    ++frames_quarantined_;
    if (obs_.frames_quarantined != nullptr) ++*obs_.frames_quarantined;
    return nullptr;
  }
  // An uncorrupted frame decodes to exactly the slice it encodes.
  if (!corrupted) return &slice;
  // A corrupted frame passed the 64-bit checksum — collision odds are
  // negligible, so this tripwire staying 0 is an invariant the chaos
  // checker enforces ("zero applied corrupt frames"). What decoded is what
  // gets delivered; pages outside the link get an out-of-range slot, which
  // the refresh guard rejects.
  ++corrupt_frames_applied_;
  collided_.sparse = true;
  collided_.record_count = decoded_.header.record_count;
  collided_.entries.clear();
  for (const auto& [page, value] : decoded_.entries) {
    collided_.entries.emplace_back(links_.slot_of(link, page), value);
  }
  return &collided_;
}

bool DistributedRanking::has_cut_edges(std::uint32_t src,
                                       std::uint32_t dst) const {
  (void)groups_.at(src);
  return dst < links_.num_groups() && links_.find(src, dst) != LinkTable::kNoLink;
}

void DistributedRanking::schedule_retransmit(std::uint32_t src, std::uint32_t link,
                                             transport::Epoch epoch) {
  // Timers armed before a churn rebuild reference retired payloads; the
  // generation stamp drops them.
  queue_.schedule_in(reliable_->timer_delay(link_pairs_[link].slot),
                     Event{.kind = Event::Kind::kTimer,
                           .group = src,
                           .link = link,
                           .epoch = epoch,
                           .generation = generation_});
}

void DistributedRanking::on_retransmit_timer(std::uint32_t src, std::uint32_t link,
                                             transport::Epoch epoch) {
  const std::uint32_t dst = links_.dst(link);
  switch (reliable_->on_timer(link_pairs_[link].slot, epoch)) {
    case transport::ReliableExchange::TimerVerdict::kSuperseded:
    case transport::ReliableExchange::TimerVerdict::kAcked:
    case transport::ReliableExchange::TimerVerdict::kParked:
      return;  // timer is dead; a newer send or an ack owns the pair now
    case transport::ReliableExchange::TimerVerdict::kSuspectNow:
      // Failure detection tripped: park retransmits to dst (fresh sends
      // still probe it) and optionally decay its share of our X so a dead
      // peer's stale contribution fades instead of persisting forever.
      // (suspect_decay = 1, the default, keeps the last value in force —
      // the only setting under which Thm 4.1 survives a suspicion.)
      if (opts_.reliability.suspect_decay < 1.0) {
        groups_[src]->scale_received(dst, opts_.reliability.suspect_decay);
      }
      if (obs_.suspicions != nullptr) ++*obs_.suspicions;
      return;
    case transport::ReliableExchange::TimerVerdict::kRetransmit:
      break;
  }
  if (pending_.empty()) return;
  const std::uint32_t held = pending_[link];
  if (held == kNone) return;  // crash dropped the buffer
  const std::uint64_t records = slices_[held].slice.record_count;
  ++retransmissions_;
  ++messages_sent_;
  // Accounting fix: a retransmit re-ships the *same* logical records, so it
  // must not inflate records_sent_ / records_per_group_ / record_hops_ —
  // those feed the §4.5 cost model's W and h·l·W, which price logical
  // records, not channel attempts. (It used to, overstating the cost model
  // by exactly the loss-driven retransmit rate.) Re-shipped records and
  // their wire bytes are tallied apart as overhead.
  retransmit_records_ += records;
  if (obs_.retransmissions != nullptr) {
    ++*obs_.retransmissions;
    ++*obs_.messages_sent;
    *obs_.retransmit_records += records;
    *obs_.retransmit_bytes += slice_wire_bytes(records);
  }
  const bool pass_loss = loss_.delivered();
  const bool pass_cut = fault_plane_.deliver(src, dst);
  if (!pass_cut && obs_.partition_drops != nullptr) ++*obs_.partition_drops;
  if (!pass_loss || !pass_cut) {
    ++messages_lost_;
    if (obs_.messages_lost != nullptr) ++*obs_.messages_lost;
  } else {
    const double delay = delivery_delay(src, dst, link);
    if (opts_.tracer != nullptr) {
      opts_.tracer->complete(obs::names::kTraceRetransmit, queue_.now(), delay, dst,
                             {}, static_cast<double>(records));
    }
    // The delivery holds its own reference: an ack processed during it may
    // drop the retransmit buffer.
    ++slices_[held].refs;
    if (delay <= 0.0) {
      deliver(src, link, epoch, slices_[held].slice);
      release_slice(held);
    } else {
      queue_.schedule_in(delay, Event{.kind = Event::Kind::kDeliver,
                                      .group = src,
                                      .link = link,
                                      .ref = held,
                                      .epoch = epoch,
                                      .generation = generation_});
    }
  }
  schedule_retransmit(src, link, epoch);
}

void DistributedRanking::run_step(std::uint32_t group) {
  active_[group] = 0;
  if (paused_[group]) return;  // suspended: no work, no reschedule
  PageGroup& pg = *groups_[group];
  if (pg.size() == 0) return;  // departed in churn while this event was queued

  // Refresh X: drain every slice that arrived since the last step. Applying
  // in arrival order leaves exactly the newest slice per source in force
  // (with epochs on, stale reordered slices never reached the inbox).
  // (fault_skip_refresh_group is the chaos harness's deliberately broken
  // engine: that group drops its inbox unapplied, so its X stays stale and
  // the convergence invariant must catch it.)
  Inbox& inbox = inbox_[group];
  if (group != opts_.fault_skip_refresh_group) {
    // Poisoned-slice guard (defense in depth behind the frame codec):
    // refresh_slots refuses a payload of the wrong length, with slots
    // outside the link or out of order, or with NaN/Inf/negative values —
    // it would otherwise propagate through every subsequent sweep.
    inbox.for_each([&](const Inbox::Message& msg) {
      if (!pg.refresh_slots(msg)) ++slices_rejected_;
    });
  }
  inbox.clear();

  const bool detect = opts_.stability_epsilon > 0.0;
  const bool dpr1 = opts_.algorithm == Algorithm::kDPR1;
  // Observability also wants the per-step residual; measuring it never
  // feeds back into the algorithm, so turning metrics on cannot change
  // results — only add the measurement cost.
  const bool want_residual =
      detect || obs_.step_residual != nullptr || opts_.tracer != nullptr;
  // DPR2's single sweep reports its own fused residual, so only DPR1's
  // multi-sweep solve needs a before-snapshot to measure the step delta.
  if (want_residual && dpr1) {
    const auto r = pg.ranks();
    step_scratch_.assign(r.begin(), r.end());
  }

  // Compute R.
  if (dpr1) {
    const std::size_t used = pg.solve_to_convergence(opts_.inner_epsilon,
                                                     opts_.inner_max_iterations,
                                                     pool_);
    inner_sweeps_ += used;
    if (obs_.inner_sweeps != nullptr) {
      *obs_.inner_sweeps += used;
      obs_.inner_iterations->add(used);
    }
  } else {
    pg.sweep_once(pool_);
    ++inner_sweeps_;
    if (obs_.inner_sweeps != nullptr) ++*obs_.inner_sweeps;
  }
  pg.count_outer_step();
  if (obs_.outer_steps != nullptr) {
    ++*obs_.outer_steps;
    ++*obs_.group_outer_steps[group];
  }

  if (want_residual) {
    const double delta = dpr1 ? util::l1_distance(pg.ranks(), step_scratch_)
                              : pg.last_sweep_delta();
    if (obs_.step_residual != nullptr) {
      obs_.step_residual->add(std::log10(delta));
      *obs_.group_residual[group] = delta;
    }
    if (opts_.tracer != nullptr) {
      opts_.tracer->instant(obs::names::kTraceStep, queue_.now(), group, {}, delta);
    }
    if (detect) {
      // Report this step's stability to the coordinator (reliable control
      // message; the simulator applies it immediately).
      const bool stable = delta <= opts_.stability_epsilon;
      ++status_messages_;
      if (stable != (stable_flag_[group] != 0)) {
        stable_flag_[group] = stable ? 1 : 0;
        stable_count_ += stable ? 1 : -1;
      }
      if (!termination_detected() && stable_count_ == nonempty_) {
        termination_time_ = queue_.now();
      }
    }
  }

  // Compute and send Y on every link out of this group: the group's links
  // are contiguous in the table, so this is one streaming pass.
  for (std::uint32_t link = links_.out_begin(group); link < links_.out_end(group);
       ++link) {
    pg.compute_y(link, opts_.send_threshold, outgoing_);
    if (outgoing_.sparse && outgoing_.entries.empty()) {
      continue;  // nothing moved enough to be worth a message
    }
    send_slice(group, link, outgoing_);
  }

  // Publish-at-iteration-boundary (DESIGN.md §12): loop-step boundaries are
  // the engine's consistent cut points, and they happen at deterministic
  // event times — so the published epoch sequence is bitwise-identical
  // across pool sizes, like every other result.
  if (opts_.snapshot_sink != nullptr && queue_.now() + 1e-12 >= next_snapshot_) {
    publish_snapshot();
  }

  schedule_step(group);
}

void DistributedRanking::publish_snapshot() {
  if (opts_.snapshot_sink == nullptr) return;
  // Hand the sink each group's (members, ranks) view directly: the sink
  // scatters into its own storage exactly once and the engine gathers
  // nothing — publishing a 50k-page snapshot costs one streaming pass,
  // which is what keeps it inside the serving layer's overhead budget.
  // The views die when the call returns (RankSnapshotSink contract).
  snapshot_cuts_.clear();
  snapshot_cuts_.reserve(groups_.size());
  for (const auto& g : groups_) {
    snapshot_cuts_.push_back(GroupCut{g->members(), g->ranks()});
  }
  opts_.snapshot_sink->publish_groups(
      queue_.now(), snapshot_cuts_,
      static_cast<std::uint32_t>(graph_.num_pages()), ownership_version_);
  next_snapshot_ = queue_.now() + opts_.snapshot_interval;
  if (opts_.tracer != nullptr) {
    opts_.tracer->instant(obs::names::kTraceSnapshot, queue_.now(), 0, {},
                          static_cast<double>(num_groups()));
  }
}

void DistributedRanking::set_reference(std::vector<double> reference) {
  if (reference.size() != graph_.num_pages()) {
    throw std::invalid_argument("DistributedRanking: reference size mismatch");
  }
  reference_ = std::move(reference);
  reference_l1_ = util::l1_norm(reference_);
}

void DistributedRanking::scatter_ranks(std::span<double> out) const {
  for (const auto& grp : groups_) {
    const auto members = grp->members();
    const auto local = grp->ranks();
    for (std::size_t i = 0; i < members.size(); ++i) out[members[i]] = local[i];
  }
}

std::vector<double> DistributedRanking::global_ranks() const {
  std::vector<double> ranks(graph_.num_pages(), 0.0);
  scatter_ranks(ranks);
  return ranks;
}

double DistributedRanking::relative_error_now() const {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  // util::relative_error(global_ranks(), reference_), bit for bit, without
  // a fresh vector or a fresh ‖R*‖₁ per check. Every page has exactly one
  // owner, so the scatter overwrites the whole vector.
  error_ranks_.resize(graph_.num_pages());
  scatter_ranks(error_ranks_);
  return util::relative_error(error_ranks_, reference_, reference_l1_);
}

std::vector<std::uint64_t> DistributedRanking::outer_steps_per_group() const {
  std::vector<std::uint64_t> steps;
  steps.reserve(groups_.size());
  for (const auto& grp : groups_) steps.push_back(grp->outer_steps());
  return steps;
}

std::uint64_t DistributedRanking::total_outer_steps() const noexcept {
  std::uint64_t total = retired_outer_steps_;
  for (const auto& grp : groups_) total += grp->outer_steps();
  return total;
}

double DistributedRanking::mean_outer_steps() const noexcept {
  if (nonempty_ == 0) return 0.0;
  return static_cast<double>(total_outer_steps()) / static_cast<double>(nonempty_);
}

std::vector<Sample> DistributedRanking::run(double t_end, double sample_interval) {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  if (sample_interval <= 0.0) {
    throw std::invalid_argument("DistributedRanking: sample_interval must be > 0");
  }
  std::vector<Sample> samples;
  if (prev_sample_ranks_.empty()) prev_sample_ranks_ = global_ranks();

  for (double t = queue_.now() + sample_interval; t <= t_end + 1e-12;
       t += sample_interval) {
    advance_to(t);
    Sample s;
    s.time = t;
    const auto ranks = global_ranks();
    s.relative_error = util::relative_error(ranks, reference_);
    s.average_rank = ranks.empty() ? 0.0
                                   : util::accurate_sum(ranks) /
                                         static_cast<double>(ranks.size());
    double min_delta = 0.0;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      min_delta = std::min(min_delta, ranks[i] - prev_sample_ranks_[i]);
    }
    s.min_rank_delta = min_delta;
    s.total_outer_steps = total_outer_steps();
    prev_sample_ranks_ = ranks;
    samples.push_back(s);
  }
  return samples;
}

ConvergenceResult DistributedRanking::run_until_error(double threshold,
                                                      double max_time,
                                                      double check_interval) {
  if (reference_.empty()) {
    throw std::logic_error("DistributedRanking: reference not set");
  }
  ConvergenceResult result;
  double err = relative_error_now();
  double t = queue_.now();
  while (err > threshold && t < max_time) {
    t = std::min(t + check_interval, max_time);
    advance_to(t);
    err = relative_error_now();
  }
  result.reached = err <= threshold;
  result.time = t;
  result.mean_outer_steps = mean_outer_steps();
  for (const auto& grp : groups_) {
    result.max_outer_steps = std::max(result.max_outer_steps, grp->outer_steps());
  }
  result.messages_sent = messages_sent_;
  result.messages_lost = messages_lost_;
  result.records_sent = records_sent_;
  result.retransmit_records = retransmit_records_;
  result.retransmissions = retransmissions_;
  result.acks_sent = acks_sent_;
  result.duplicates_rejected = duplicates_rejected();
  result.final_relative_error = err;
  return result;
}

}  // namespace p2prank::engine
