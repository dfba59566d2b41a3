// Options and result types for the distributed page-ranking engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "overlay/overlay.hpp"
#include "transport/reliable.hpp"

namespace p2prank::obs {
class MetricsRegistry;
class Tracer;
}  // namespace p2prank::obs

namespace p2prank::engine {

/// One ranker group's slice of a snapshot cut: `ranks[i]` is the rank of
/// global page `members[i]`. Members are ascending (PageGroup keeps them
/// that way); the views alias live group state and are only valid while
/// the publish_groups call they were passed to is on the stack.
struct GroupCut {
  std::span<const std::uint32_t> members;
  std::span<const double> ranks;
};

/// Engine → serving handoff (DESIGN.md §12 "Serving contract"). The engine
/// pushes consistent (ranks, ownership) states into this interface at
/// loop-step boundaries; src/serve/ implements it with epoch-swapped
/// immutable snapshots that concurrent readers query without ever blocking
/// a sweep. The interface lives engine-side so the engine never links the
/// serving layer — the dependency points serve → engine only.
///
/// Every call happens on the simulation thread. Implementations that hand
/// the state to other threads (the whole point) own that synchronization.
class RankSnapshotSink {
 public:
  virtual ~RankSnapshotSink() = default;

  /// One consistent cut of the engine at virtual time `time`: the global
  /// rank vector and the page → ranker-group ownership map, with group ids
  /// in [0, num_shards). Called at construction, every snapshot_interval of
  /// virtual time at loop-step boundaries, and after every warm start
  /// (initial seeding, churn handoff, checkpoint restore) — so ownership
  /// changes are republished promptly. The spans are valid only for the
  /// duration of the call.
  virtual void publish(double time, std::span<const double> ranks,
                       std::span<const std::uint32_t> assignment,
                       std::uint32_t num_shards) = 0;

  /// Group-structured variant of publish(): one cut per ranker group, the
  /// group's shard id being its position in `groups`. Members are
  /// ascending global page ids (PageGroup's invariant) and groups
  /// partition the owned pages; pages in no group (post-crash orphans)
  /// read as unowned. This is the engine's publish path: handing the
  /// per-group views straight through lets the sink scatter into its own
  /// storage exactly once instead of the engine materializing dense
  /// vectors the sink would immediately re-copy and re-scan — the
  /// difference between blowing and meeting the < 5% serving overhead
  /// budget at 50k+ pages. Same validity contract as publish(): the spans
  /// die when the call returns. Default: materialize and forward.
  ///
  /// `ownership_version` is a monotone counter the publisher bumps whenever
  /// the page → group map changes (0 = unknown). Ranks change every
  /// publish but ownership almost never does, so sinks may keep
  /// ownership-derived state (dense shard maps, shard page counts) from
  /// any earlier publish with the same nonzero version instead of
  /// rewriting it.
  virtual void publish_groups(double time, std::span<const GroupCut> groups,
                              std::uint32_t num_pages,
                              std::uint64_t ownership_version) {
    static_cast<void>(ownership_version);  // the dense path always rebuilds
    std::vector<double> ranks(num_pages, 0.0);
    std::vector<std::uint32_t> assignment(num_pages, UINT32_MAX);
    for (std::size_t sh = 0; sh < groups.size(); ++sh) {
      for (std::size_t i = 0; i < groups[sh].members.size(); ++i) {
        ranks[groups[sh].members[i]] = groups[sh].ranks[i];
        assignment[groups[sh].members[i]] = static_cast<std::uint32_t>(sh);
      }
    }
    publish(time, ranks, assignment, static_cast<std::uint32_t>(groups.size()));
  }

  /// Every previously published epoch is now a lie: a checkpoint restore
  /// rolled the engine back past it (the serving twin of drop_in_flight()'s
  /// in-flight-slice rollback). Implementations mark published state stale
  /// but keep serving it — availability over freshness — until the next
  /// publish supersedes it.
  virtual void invalidate(double time) = 0;
};

// (The paper's Section 3: "The case when E is not uniform over pages can be
// used for personalized page ranking" — EngineOptions::personalization wires
// exactly that through the distributed engine.)

/// Which of the paper's two algorithms a ranker runs per loop step.
enum class Algorithm {
  /// DPR1 (Algorithm 3): refresh X, solve the local system to convergence
  /// (GroupPageRank), then send Y.
  kDPR1,
  /// DPR2 (Algorithm 4): refresh X, do exactly one Jacobi sweep, send Y
  /// eagerly.
  kDPR2,
};

/// Reliable-exchange configuration (see src/transport/reliable.hpp and
/// DESIGN.md §8 "Reliable exchange contract"). The paper ships Y slices
/// fire-and-forget; these knobs add the reliability layer it hand-waves.
struct ReliabilityOptions {
  /// Stamp every Y slice with a per-(src,dst) epoch and reject stale
  /// reordered slices at the receiver (counted in duplicates_rejected()).
  /// Without this, jittered latency lets a delayed older Y silently replace
  /// a newer X entry.
  bool epochs = false;
  /// Acknowledge delivered slices and retransmit unacked ones with
  /// exponential backoff + jitter. Implies `epochs` (retransmission without
  /// the duplicate filter would double-apply). Only the newest epoch per
  /// peer is buffered/retransmitted — superseded slices are dropped, so the
  /// buffer is O(1) per peer.
  bool retransmit = false;
  /// One-way virtual-time delay of an ack message.
  double ack_latency = 0.1;
  /// Delivery probability of acks. Negative = same as the data channel's
  /// delivery_probability (the default); settable separately so the chaos
  /// harness can inject ack-only loss.
  double ack_delivery_probability = -1.0;
  /// Retransmit timeout schedule: first timeout, multiplier per attempt,
  /// cap, and multiplicative jitter (delay = rto * (1 + U[0, jitter))).
  double rto_initial = 1.0;
  double rto_backoff = 2.0;
  double rto_max = 8.0;
  double rto_jitter = 0.25;
  /// Consecutive unacked retransmit timers before the peer is suspected
  /// dead; a suspected peer's retransmits are parked (fresh sends still go
  /// out and double as probes; any ack or received data un-suspects).
  std::uint32_t suspicion_after = 4;
  /// Graceful degradation: when a peer becomes suspected, scale its stored
  /// contribution to this ranker's X by this factor (applied once per
  /// suspicion event). 1 (default) keeps the last value in force — the only
  /// setting under which Thm 4.1 monotonicity survives a suspicion.
  double suspect_decay = 1.0;
};

struct EngineOptions {
  Algorithm algorithm = Algorithm::kDPR1;
  double alpha = 0.85;

  /// Inner-loop termination for DPR1's GroupPageRank call (L1 delta).
  double inner_epsilon = 1e-12;
  std::size_t inner_max_iterations = 500;

  /// Probability a Y message actually reaches its destination (the paper's
  /// p, read as delivery probability).
  double delivery_probability = 1.0;

  /// Wait-time interval: each group's mean wait is drawn from [t1, t2];
  /// waits are exponential with that mean (Section 5's Tw(u, m)).
  double t1 = 0.0;
  double t2 = 6.0;

  /// Virtual-time delay between a send and its arrival. The paper's
  /// experiments fold network delay into the waits, so 0 is the default.
  /// Ignored when `overlay` is set.
  double delivery_latency = 0.0;

  /// Additional per-message delivery delay drawn uniformly from
  /// [0, latency_jitter). Nonzero jitter reorders messages on the same
  /// (src, dst) pair — exactly the hazard ReliabilityOptions::epochs
  /// guards against. Applies on top of delivery_latency / overlay hops.
  double latency_jitter = 0.0;

  /// Reliable-exchange layer (epochs, ack/retransmit, failure detection).
  /// Default-constructed = fire-and-forget, the paper's channel.
  ReliabilityOptions reliability;

  /// Full-stack mode: route every Y message over this overlay (ranker i
  /// lives on overlay node i; requires overlay->num_nodes() >= k). Delivery
  /// latency becomes per_hop_latency × route hops — indirect transmission's
  /// timing (Section 4.4) instead of an abstract channel. The overlay must
  /// outlive the engine. nullptr (default) keeps the paper's abstract
  /// channel.
  const overlay::Overlay* overlay = nullptr;
  double per_hop_latency = 0.5;

  /// Distributed termination detection (the paper's algorithms loop
  /// "while true"; a deployment needs a stopping rule that uses only local
  /// information). When > 0, every ranker reports after each loop step
  /// whether the step changed its rank vector by at most this L1 amount; a
  /// coordinator ranker declares convergence the first time every
  /// non-empty group's latest report is "stable". Status messages are
  /// small, reliable (think TCP), and counted separately. 0 disables.
  double stability_epsilon = 0.0;

  /// Delta-send threshold (the paper's "explore more methods for reducing
  /// communication overhead" future work): a Y entry is only transmitted
  /// when its value moved at least this much since the last delivered send.
  /// 0 sends full slices every step (the paper's algorithms as written).
  /// Nonzero saves most records late in convergence at the price of a
  /// relative-error floor on the order of threshold·(cut entries)/||R*||.
  double send_threshold = 0.0;

  /// Per-page E vector for personalized ranking (Section 3). Empty means
  /// the uniform E(v) = 1 of the paper's experiments; otherwise must have
  /// one non-negative entry per page of the graph.
  std::vector<double> personalization;

  /// Chaos-harness self-test ONLY (src/check): when set to a valid group
  /// index, that group's afferent-update path is dead — it silently drops
  /// its inbox instead of refreshing X and ignores warm-start priming (so
  /// churn / restore state transfers cannot heal it). A deliberately broken
  /// engine the scenario checker must flag: its ranks converge to a too-low
  /// fixed point, failing the convergence invariant. If the group departs
  /// in churn, its successor inherits the fault. The default (no group)
  /// leaves the engine correct.
  std::uint32_t fault_skip_refresh_group = UINT32_MAX;

  /// Observability (DESIGN.md §11): when non-null, the engine publishes its
  /// counters/gauges/histograms into this registry and emits virtual-time
  /// trace events into this tracer. Both must outlive the engine. Pure
  /// observation — enabling them never changes rank results, RNG streams,
  /// or event ordering. nullptr (default) = off, zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Rank serving (DESIGN.md §12): when non-null, the engine publishes a
  /// consistent (global ranks, ownership) state into this sink — at
  /// construction, then every snapshot_interval of virtual time at loop-step
  /// boundaries, and after every warm start (so churn handoffs and restores
  /// republish the new ownership immediately) — and calls invalidate() from
  /// drop_in_flight() (a restore is a global rollback; published epochs from
  /// the rolled-back timeline are stale). Pure observation: attaching a sink
  /// never changes rank results, RNG streams, or event ordering. Must
  /// outlive the engine. nullptr (default) = serving off, zero overhead.
  RankSnapshotSink* snapshot_sink = nullptr;
  /// Virtual-time cadence of snapshot publication (snapshot_sink only).
  double snapshot_interval = 1.0;

  std::uint64_t seed = 7;
};

/// One point of the Fig. 6 / Fig. 7 time series.
struct Sample {
  double time = 0.0;
  /// ||R - R*||_1 / ||R*||_1 against the centralized reference.
  double relative_error = 0.0;
  /// Mean rank over all pages (Fig. 7's y-axis).
  double average_rank = 0.0;
  /// min over pages of (rank_now - rank_at_previous_sample): >= 0 iff the
  /// sequence stayed monotone since the last sample (Theorem 4.1's claim).
  double min_rank_delta = 0.0;
  /// Total outer loop steps executed across all groups so far.
  std::uint64_t total_outer_steps = 0;
};

struct ConvergenceResult {
  bool reached = false;
  double time = 0.0;
  /// Mean outer loop steps per (non-empty) group when the threshold was
  /// first met — the paper's Fig. 8 y-axis.
  double mean_outer_steps = 0.0;
  std::uint64_t max_outer_steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t records_sent = 0;  ///< fresh cut-link <from,to,score> records
  /// Reliable-exchange traffic (0 with the fire-and-forget channel).
  /// Retransmitted records are accounted here, never in records_sent — the
  /// §4.5 cost model's W is fresh records only.
  std::uint64_t retransmit_records = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_rejected = 0;
  double final_relative_error = 0.0;
};

}  // namespace p2prank::engine
