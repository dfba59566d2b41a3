// Seeded chaos scenarios (FoundationDB-style simulation testing).
//
// One 64-bit seed deterministically expands into a full experiment: a
// synthetic crawl, a partition, an engine configuration (DPR1/DPR2, loss,
// wait interval, optional warm start), and a randomized *fault schedule* —
// crash/pause/resume at random virtual times, loss-probability bursts,
// checkpoint save/restore, and an optional mid-run link-graph update. The
// ScenarioRunner (runner.hpp) drives DistributedRanking through the
// schedule while the InvariantChecker (invariants.hpp) holds the paper's
// theorems (4.1 monotonicity, 4.2 boundedness) plus engine bookkeeping to
// account at every sample.
//
// Scenarios serialize to a line-oriented text trace: replaying the trace —
// or the same seed — reproduces the identical run, because every stochastic
// choice in the engine flows from seeded RNG streams and the event queue
// breaks timestamp ties deterministically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine_types.hpp"

namespace p2prank::check {

/// One fault injected at a virtual time.
enum class OpKind {
  kCrash,              ///< crash_group(group): wipe a ranker's state
  kPause,              ///< pause_group(group)
  kResume,             ///< resume_group(group)
  kSetLoss,            ///< set_delivery_probability(value) — loss burst edge
  kSaveCheckpoint,     ///< serialize current global ranks (in-memory file)
  kRestoreCheckpoint,  ///< crash every group, warm-start from the last save
                       ///< (no-op when nothing was saved yet)
  kGraphUpdate,        ///< mutate the link graph (seed), rebuild the engine
  kLeave,              ///< leave_group(group, group2): ranker churn, pages
                       ///< hand off to the successor (no-op when invalid)
  kJoin,               ///< join_group(group, group2): an empty ranker joins,
                       ///< taking half of donor group2 (no-op when invalid)
  kSetAckLoss,         ///< set_ack_delivery_probability(value) — ack-only
                       ///< loss burst (reliable mode; no-op otherwise)
  kSetJitter,          ///< set_latency_jitter(value) — reorder burst edge
  kPartition,          ///< set_partition(seed = side-A group bitmask,
                       ///< value = A→B delivery p, value2 = B→A delivery p).
                       ///< seed == kCutBusiestGroup resolves at injection
                       ///< time to the group owning the most pages.
  kHeal,               ///< heal_partition(): clear the active cut
  kCorrupt,            ///< set_corruption(value): per-frame byte-flip
                       ///< probability (0 = end of the corruption burst)
};

[[nodiscard]] std::string_view op_kind_name(OpKind kind) noexcept;

struct ScheduleOp {
  double time = 0.0;          ///< absolute virtual time of injection
  OpKind kind = OpKind::kCrash;
  std::uint32_t group = 0;    ///< crash/pause/resume/leave/join target
  std::uint32_t group2 = 0;   ///< kLeave: successor; kJoin: donor
  double value = 0.0;         ///< kSetLoss/kSetAckLoss/kSetJitter/kCorrupt:
                              ///< new value; kPartition: A→B delivery p
  double value2 = 0.0;        ///< kPartition: B→A delivery p (asymmetric)
  std::uint64_t seed = 0;     ///< kGraphUpdate: mutation seed;
                              ///< kPartition: side-A group bitmask
};

/// kPartition sentinel mask: isolate whichever group owns the most pages
/// when the op fires (lowest index on ties). A literal mask derived only
/// from the seed can land on a group with no pages or no cut edges — a cut
/// nothing ever crosses — which would let a --broken self-test scenario
/// finish without the evict→rejoin arc its planted fault needs. Resolved in
/// the runner from deterministic engine state, so replays are exact; never
/// produced by the generator's literal-mask path (masks there are proper
/// subsets of the low k bits, k <= 25).
inline constexpr std::uint64_t kCutBusiestGroup = ~std::uint64_t{0};

enum class PartitionKind { kHashUrl, kHashSite, kRandom };

/// A fully specified chaos experiment. Everything needed to replay it is a
/// plain value; Scenario::from_seed derives one from a single integer.
struct Scenario {
  std::uint64_t origin_seed = 0;  ///< generating seed (0 = hand-built)

  // Workload.
  std::uint32_t pages = 400;
  std::uint64_t graph_seed = 1;
  std::uint32_t k = 8;
  PartitionKind partition = PartitionKind::kHashUrl;

  // Engine configuration.
  engine::Algorithm algorithm = engine::Algorithm::kDPR1;
  double delivery_p = 1.0;
  double t1 = 0.0;
  double t2 = 6.0;
  double delivery_latency = 0.0;
  /// Per-message uniform extra delivery delay in [0, latency_jitter) —
  /// reorders same-pair messages. With `reliable` off this is the stale-Y
  /// hazard (the runner dis-arms the monotone theorem); with it on the
  /// epoch filter rejects the stale slices and the theorems stay armed.
  double latency_jitter = 0.0;
  /// Run the reliable exchange layer (epochs + ack/retransmit + suspicion)
  /// instead of the paper's fire-and-forget channel.
  bool reliable = false;
  /// Attach a serve::SnapshotStore to the engine and probe the serving
  /// contract (DESIGN.md §12) at every sample: a snapshot exists, its
  /// epochs are consistent and monotone, its top-K matches a brute-force
  /// sort of its own ranks, and restores mark it stale exactly once before
  /// the warm start republishes. Attaching is pure observation, so every
  /// other invariant must hold unchanged with the flag on.
  bool serve = false;
  /// Attach a recover::RecoverySupervisor: autonomous suspicion → eviction
  /// → ownership handoff → rejoin, ticked at every sample, with its
  /// ownership ledger cross-checked against the engine (DESIGN.md §13).
  /// Implies `reliable` (the supervisor reads the failure detector).
  bool recovery = false;
  double stability_epsilon = 0.0;
  /// 0 = cold start (the theorems' R0 = 0 premise). Otherwise the engine
  /// warm-starts from scale·R*, which is still a sub-fixed-point start
  /// (F(s·R*) = s·R* + (1−s)·βE ≥ s·R*), so monotonicity still holds.
  double warm_start_scale = 0.0;
  std::uint64_t engine_seed = 7;

  /// Virtual-time window the schedule spans. After it, the runner lifts
  /// every fault (p = 1, all groups resumed) and demands convergence.
  double active_time = 60.0;

  std::vector<ScheduleOp> ops;  ///< sorted by time

  /// Deterministically expand a seed into a scenario (same seed, same
  /// scenario, forever — the corpus file depends on it).
  [[nodiscard]] static Scenario from_seed(std::uint64_t seed);

  /// Line-oriented text trace ("key value" header + "op TIME KIND ARG"
  /// lines, '#' comments ignored).
  void serialize(std::ostream& out) const;
  [[nodiscard]] std::string to_text() const;
  /// Throws std::runtime_error on malformed traces.
  [[nodiscard]] static Scenario parse(std::istream& in);
  [[nodiscard]] static Scenario parse_text(const std::string& text);
};

}  // namespace p2prank::check
