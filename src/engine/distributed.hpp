// The distributed page-ranking simulation: K page rankers (PageGroups)
// running DPR1 or DPR2 asynchronously over a lossy message channel, driven
// by a discrete-event queue (the experiment apparatus of Section 5).
//
// Each ranker's loop step is one event: drain the inbox ("Refresh X"),
// compute R (to convergence for DPR1, one sweep for DPR2), compute and send
// a Y slice to every group it has cut edges into (each send independently
// survives with probability p), then reschedule after an exponential wait.
//
// On top of the paper's fire-and-forget channel the engine can run the
// reliable exchange layer (EngineOptions::reliability, src/transport/
// reliable.hpp): epoch-stamped Y slices so jitter-reordered stale slices
// are rejected instead of clobbering newer X entries, ack/retransmit with
// exponential backoff for lossy channels, and suspicion-based failure
// detection with optional graceful decay of a dead peer's contribution.
// Ranker churn (leave_group / join_group) hands pages between rankers
// through the checkpoint state-transfer path while in-flight slices from
// the old wiring are dropped via a churn generation stamp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine_types.hpp"
#include "engine/page_group.hpp"
#include "graph/web_graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/processes.hpp"
#include "transport/fault_plane.hpp"
#include "transport/frame.hpp"
#include "transport/reliable.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {

class DistributedRanking {
 public:
  /// `assignment[p]` = group of page p, values in [0, k). Groups may be
  /// empty (they then simply never run). The graph must outlive this
  /// object. Throws std::invalid_argument with a field-naming message for
  /// invalid EngineOptions (negative latencies/jitter/backoff,
  /// delivery_probability outside [0,1], overlay smaller than k, ...).
  DistributedRanking(const graph::WebGraph& g,
                     std::span<const std::uint32_t> assignment, std::uint32_t k,
                     const EngineOptions& opts, util::ThreadPool& pool);
  // The groups hold pointers into this object's link table, so it neither
  // copies nor moves.
  DistributedRanking(const DistributedRanking&) = delete;
  DistributedRanking& operator=(const DistributedRanking&) = delete;

  /// Reference ranks R* for the relative-error metric (normally
  /// open_system_reference(...)). Required before run()/run_until_error().
  void set_reference(std::vector<double> reference);

  /// Seed every group's rank vector from a global vector (one entry per
  /// page). Used after a link-graph change: build a fresh engine on the
  /// mutated graph and warm-start it from the previous run's global_ranks()
  /// — convergence resumes from there instead of from zero. Call before
  /// run(); with the theorems' R0 = 0 premise gone, monotonicity may not
  /// hold (exactly the paper's Section 4.3 caveat), but convergence does.
  void warm_start(std::span<const double> global_ranks);

  /// Every group's exported worklist frontier, indexed by group. Captured
  /// on the engine being retired, installed into its successor by
  /// warm_start_incremental.
  struct WorklistCarrySet {
    std::vector<PageGroup::WorklistCarry> groups;
  };

  /// Snapshot all groups' worklist frontiers for an incremental graph swap.
  /// Groups without an exportable frontier contribute invalid entries (the
  /// successor falls back to a dense warm start for those groups only).
  [[nodiscard]] WorklistCarrySet export_worklist_carry() const;

  /// warm_start for a *link-only* graph splice (graph::apply_updates_delta
  /// with incremental == true): seeds ranks like warm_start, but also
  /// installs the predecessor engine's worklist frontiers so converged rows
  /// stay skipped instead of the whole web re-sweeping densely.
  /// `changed_rows` / `changed_sources` are the delta's in_changed /
  /// degree_changed page lists; they re-seed exactly the affected frontier
  /// rows. Precondition: identical membership and assignment as the engine
  /// that exported `carry` (the chaos runner guards this); with a mismatched
  /// carry every group re-primes with a dense sweep, so the call degrades to
  /// plain warm_start. The resulting rank trajectory is bitwise-identical to
  /// rebuild-then-warm_start (DESIGN.md §14, locked by test).
  void warm_start_incremental(std::span<const double> global_ranks,
                              WorklistCarrySet carry,
                              std::span<const graph::PageId> changed_rows,
                              std::span<const graph::PageId> changed_sources);

  /// Suspend a ranker: it stops looping until resume_group (the paper's
  /// "sleep for some time, suspend itself as its wish, or even shutdown").
  /// Its last Y values stay in force at its peers. Defined edge cases:
  /// pausing is level-triggered and idempotent (a second pause_group is a
  /// no-op, and one resume_group wakes the group regardless of how many
  /// pauses preceded it); pausing an empty group is allowed and harmless;
  /// an out-of-range group throws std::out_of_range. A paused ranker's
  /// transport stack stays up: deliveries are still accepted into its inbox
  /// and acked — only the application loop sleeps.
  void pause_group(std::uint32_t group);
  /// Wake a suspended ranker; it reschedules from the current time. A
  /// resume of a group that is not paused is a no-op (never double-
  /// schedules); resuming an empty group marks it unpaused but schedules
  /// nothing.
  void resume_group(std::uint32_t group);
  [[nodiscard]] bool is_paused(std::uint32_t group) const;

  /// Crash a ranker: all its in-memory state (R, X, delta baselines) and
  /// queued inbox messages are lost; it keeps running from scratch. Peers
  /// hold its last Y values until it sends again, and re-deliver theirs on
  /// their next loop steps, so the group re-converges. Note that global
  /// monotonicity (Thm 4.1) does NOT survive a crash: the rebooted ranker's
  /// next Y is computed from its reset ranks and *replaces* the higher
  /// pre-crash entries in peers' X, so peers' ranks can legitimately dip
  /// before re-converging. Combine with pause/resume for a crash +
  /// downtime, or warm_start-from-checkpoint for recovery.
  /// Defined edge cases: crashing a *paused* group wipes its state but
  /// leaves it paused — it reboots into standby and only runs again after
  /// resume_group; crashing an empty group is a no-op; repeated crashes are
  /// idempotent; messages already in flight (sent pre-crash with a delivery
  /// delay) still arrive afterwards — the network does not lose them just
  /// because the receiver rebooted (they are idempotent X patches); an
  /// out-of-range group throws std::out_of_range. With the reliable layer
  /// on, the crashed sender's retransmit buffers are wiped with the rest of
  /// its memory, but per-pair epochs are transport-session state and
  /// survive — peers keep rejecting stale slices and keep retransmitting
  /// *to* the crashed ranker until it acks again.
  void crash_group(std::uint32_t group);

  /// Ranker churn: `group` departs the overlay, handing every page it owns
  /// to `successor` through the checkpoint state-transfer path (the rank
  /// state round-trips through the text format, exactly what a real
  /// handoff would ship). Peers re-route subsequent Y slices via the
  /// rebuilt cut-edge wiring; slices still in flight against the old
  /// wiring are dropped by a churn generation stamp (their sender will
  /// retransmit / re-send against the new wiring). Rank values are
  /// preserved exactly, so a consistent (sub-fixed-point) state stays
  /// consistent: Thm 4.1/4.2 hold across a leave. Throws
  /// std::out_of_range / std::invalid_argument on bad indices, departing
  /// an empty group, or successor == group.
  void leave_group(std::uint32_t group, std::uint32_t successor);

  /// Drop every message currently in flight (undelivered Y slices, buffered
  /// retransmit payloads) without touching rank state. A crash deliberately
  /// keeps in-flight messages alive — the network does not lose them just
  /// because a receiver rebooted — but a checkpoint *restore* is a global
  /// rollback: slices sent from the rolled-back timeline would leak
  /// higher-than-restored Y values into peers' X, only to be deflated by
  /// the first post-restore send (a rank dip the monotone checker rightly
  /// rejects). The chaos runner calls this between the crash wave and the
  /// warm_start of a restore. Per-pair epochs survive (transport-session
  /// state, like crash and churn).
  void drop_in_flight();

  /// Ranker churn: an empty `group` joins the overlay and takes the upper
  /// half of `donor`'s pages (donor keeps at least one). Same state
  /// transfer and generation rules as leave_group. Throws on bad indices,
  /// a non-empty joining group, or a donor with fewer than two pages.
  void join_group(std::uint32_t group, std::uint32_t donor);

  /// Completed leave/join operations.
  [[nodiscard]] std::uint64_t churn_events() const noexcept { return churn_events_; }

  /// Current page -> group ownership map (exactly one owner per page).
  [[nodiscard]] std::vector<std::uint32_t> current_assignment() const;

  /// Change the Y-message delivery probability from now on (chaos-harness
  /// loss bursts). In-flight messages are unaffected; the loss RNG stream
  /// keeps consuming one draw per send, so the same seed keeps losing the
  /// same send indices across probability levels.
  void set_delivery_probability(double p) { loss_.set_probability(p); }
  [[nodiscard]] double delivery_probability() const noexcept {
    return loss_.delivery_probability();
  }

  /// Change the ack-channel delivery probability (reliable mode; no effect
  /// otherwise). Chaos-harness ack-loss bursts.
  void set_ack_delivery_probability(double p) { ack_loss_.set_probability(p); }

  /// Change the per-message delivery-latency jitter from now on (reorder
  /// bursts). Must be >= 0.
  void set_latency_jitter(double jitter);
  [[nodiscard]] double latency_jitter() const noexcept { return latency_jitter_; }

  // --- Fault plane: partitions + frame corruption (DESIGN.md §13) ----------
  /// Install a network cut: groups in `side_a_mask` form side A; messages
  /// crossing A→B / B→A are delivered with the given probabilities (0 =
  /// hard cut). One cut is active at a time; a new call replaces it. The
  /// plane draws from its own RNG only while a cut is active, so runs that
  /// never partition are bit-identical to the pre-fault-plane engine.
  void set_partition(std::uint64_t side_a_mask, double deliver_ab,
                     double deliver_ba) {
    fault_plane_.set_partition(side_a_mask, deliver_ab, deliver_ba);
  }
  void heal_partition() { fault_plane_.heal(); }
  [[nodiscard]] bool partition_active() const noexcept {
    return fault_plane_.partitioned();
  }
  /// Per-frame byte-corruption probability. While > 0 every Y slice
  /// round-trips through the checksummed frame codec at delivery; corrupted
  /// frames are quarantined (counted, never applied, never acked).
  void set_corruption(double probability) {
    fault_plane_.set_corruption(probability);
  }
  /// Deterministic link probe (no RNG draw): false only while a hard
  /// directed cut (delivery probability 0) separates src from dst. The
  /// RecoverySupervisor's heal detector.
  [[nodiscard]] bool probe_link(std::uint32_t src, std::uint32_t dst) const {
    return fault_plane_.link_up(src, dst);
  }
  /// Whether the reliable layer currently suspects dst from src's
  /// viewpoint (false in fire-and-forget mode).
  [[nodiscard]] bool suspected(std::uint32_t src, std::uint32_t dst) const {
    return reliable_ ? reliable_->suspected(src, dst) : false;
  }
  /// Whether src has cut edges into dst (i.e. sends it Y slices).
  [[nodiscard]] bool has_cut_edges(std::uint32_t src, std::uint32_t dst) const;
  /// Messages dropped by the active cut (also counted in messages_lost).
  [[nodiscard]] std::uint64_t partition_drops() const noexcept {
    return fault_plane_.partition_drops();
  }
  /// Frames the fault plane corrupted in flight.
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept {
    return fault_plane_.frames_corrupted();
  }
  /// Corrupted/garbage frames rejected by the codec at delivery.
  [[nodiscard]] std::uint64_t frames_quarantined() const noexcept {
    return frames_quarantined_;
  }
  /// Corrupted frames that survived validation and were applied — a
  /// checksum collision, impossible in practice; the invariant checker
  /// asserts this stays 0.
  [[nodiscard]] std::uint64_t corrupt_frames_applied() const noexcept {
    return corrupt_frames_applied_;
  }
  /// Slices rejected by the guard at refresh time: wrong length, slots
  /// outside the link or out of order, NaN/Inf/negative values (defense in
  /// depth behind the codec; must stay 0 in simulation).
  [[nodiscard]] std::uint64_t slices_rejected() const noexcept {
    return slices_rejected_;
  }
  /// Queue `slice` in dst's inbox as if the channel had delivered it on the
  /// link src → dst: fault injection for the poisoned-slice guard, which
  /// checks it at dst's next refresh. Throws std::invalid_argument when src
  /// has no cut edge into dst.
  void inject_slice(std::uint32_t src, std::uint32_t dst, const YSlice& slice);

  /// Advance virtual time to t_end, recording a Sample every
  /// `sample_interval` time units (Fig. 6 / Fig. 7 series). May be called
  /// repeatedly; time continues where it left off.
  [[nodiscard]] std::vector<Sample> run(double t_end, double sample_interval = 1.0);

  /// Advance until the relative error vs the reference drops to
  /// `threshold`, checking every `check_interval` units, giving up at
  /// max_time (Fig. 8 measurement).
  [[nodiscard]] ConvergenceResult run_until_error(double threshold, double max_time,
                                                  double check_interval = 1.0);

  /// Assemble the global rank vector from all groups' local vectors.
  [[nodiscard]] std::vector<double> global_ranks() const;

  [[nodiscard]] double relative_error_now() const;

  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return static_cast<std::uint32_t>(groups_.size());
  }
  [[nodiscard]] const PageGroup& group(std::uint32_t i) const { return *groups_.at(i); }
  [[nodiscard]] std::uint32_t nonempty_groups() const noexcept { return nonempty_; }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_lost() const noexcept { return messages_lost_; }
  /// Fresh Y-slice records only — the paper's W (and the W inside §4.5's
  /// D_dt/D_it). Retransmitted copies of a buffered slice are accounted in
  /// retransmit_records(), never here: a retransmit re-ships bytes, it does
  /// not create new logical records, and counting it here would inflate the
  /// cost model exactly when the channel is lossy.
  [[nodiscard]] std::uint64_t records_sent() const noexcept { return records_sent_; }
  /// Records re-shipped by the reliable layer's retransmit timers (0 with
  /// fire-and-forget). Overhead traffic, kept apart from records_sent().
  [[nodiscard]] std::uint64_t retransmit_records() const noexcept {
    return retransmit_records_;
  }
  /// Σ records × overlay hops, the D_it = h·l·W quantity (full-stack mode
  /// only; 0 with the abstract channel).
  [[nodiscard]] std::uint64_t record_hops() const noexcept { return record_hops_; }
  [[nodiscard]] sim::SimTime now() const noexcept { return queue_.now(); }
  /// Simulator events executed so far: loop steps, delayed deliveries,
  /// acks and retransmit timers.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  // --- Reliable-exchange diagnostics (all 0 with fire-and-forget) ----------
  /// Re-sends of an unacked epoch (each is also counted in messages_sent).
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  [[nodiscard]] std::uint64_t acks_delivered() const noexcept {
    return acks_delivered_;
  }
  /// Stale (reordered or already-delivered) slices rejected by the epoch
  /// filter at the receiver.
  [[nodiscard]] std::uint64_t duplicates_rejected() const noexcept {
    return reliable_ ? reliable_->duplicates_rejected() : 0;
  }
  /// Retransmit timers that fired for an already-acked epoch — impossible
  /// by construction; the invariant checker asserts this stays 0.
  [[nodiscard]] std::uint64_t zombie_retransmits() const noexcept {
    return reliable_ ? reliable_->zombie_retransmits() : 0;
  }
  [[nodiscard]] std::uint64_t suspicion_events() const noexcept {
    return reliable_ ? reliable_->suspicion_events() : 0;
  }
  [[nodiscard]] std::uint32_t suspected_pairs() const noexcept {
    return reliable_ ? reliable_->suspected_pairs() : 0;
  }
  /// Links currently holding an unacked buffered slice.
  [[nodiscard]] std::uint64_t pending_retransmits() const noexcept {
    return pending_count_;
  }
  /// Receiver-side epoch high-water mark for (src, dst); non-decreasing
  /// for the lifetime of the engine (epochs survive crash and churn).
  [[nodiscard]] std::uint64_t accepted_epoch(std::uint32_t src,
                                             std::uint32_t dst) const noexcept {
    return reliable_ ? reliable_->accepted_epoch(src, dst) : 0;
  }

  /// Total outer loop steps executed across all groups (including steps by
  /// rankers that have since departed in churn).
  [[nodiscard]] std::uint64_t total_outer_steps() const noexcept;
  /// Mean outer steps per non-empty group.
  [[nodiscard]] double mean_outer_steps() const noexcept;
  /// Total inner Jacobi sweeps across all groups (DPR1's hidden cost; for
  /// DPR2 this equals total_outer_steps()).
  [[nodiscard]] std::uint64_t total_inner_sweeps() const noexcept {
    return inner_sweeps_;
  }

  /// Per-group diagnostics: loop steps and wire records emitted by each
  /// group so far (straggler/hot-spot analysis).
  [[nodiscard]] std::vector<std::uint64_t> outer_steps_per_group() const;
  [[nodiscard]] std::span<const std::uint64_t> records_sent_per_group() const noexcept {
    return records_per_group_;
  }

  /// Termination detection results (opts.stability_epsilon > 0 only).
  [[nodiscard]] bool termination_detected() const noexcept {
    return termination_time_ >= 0.0;
  }
  /// Virtual time at which the coordinator first saw every group stable
  /// (-1 when not (yet) detected).
  [[nodiscard]] double termination_time() const noexcept {
    return termination_time_;
  }
  [[nodiscard]] std::uint64_t status_messages() const noexcept {
    return status_messages_;
  }

 private:
  /// A pooled slice buffer. `refs` counts its holders: in-flight delivery
  /// events and the link's retransmit buffer.
  struct SliceBuf {
    YSlice slice;
    std::uint32_t refs = 0;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;
  using PairSlot = transport::ReliableExchange::PairSlot;

  /// One simulator event (DESIGN.md §15): 32 B, trivially copyable and
  /// stored by value in the queue, so scheduling one allocates nothing.
  struct Event {
    enum class Kind : std::uint8_t {
      kStep,     ///< `group` runs a loop step
      kDeliver,  ///< slice `ref`, stamped `epoch` (0 without epochs), reaches `link`'s receiver
      kAck,      ///< cumulative ack `epoch` for pair `ref` reaches its sender `group`
      kTimer,    ///< retransmit timer for `epoch` on `link`
    };
    Kind kind = Kind::kStep;
    std::uint32_t group = 0;  ///< step: the ranker; otherwise the sender
    std::uint32_t link = 0;   ///< a link of the wiring at `generation`
    /// deliver: the pooled slice the event holds. ack: the reliable
    /// pair of `link` — pair slots outlive link ids, so an ack from before
    /// a churn rebuild still reaches its pair's epochs.
    std::uint32_t ref = 0;
    transport::Epoch epoch = 0;
    std::uint64_t generation = 0;
  };
  /// Reliable-layer handles of one link, filled on its first send.
  struct LinkPair {
    PairSlot slot = kNone;                       ///< pair (src, dst)
    std::uint32_t reverse = LinkTable::kNoLink;  ///< link dst → src, if any
  };

  static EngineOptions validated(EngineOptions opts);
  void build_groups(std::span<const std::uint32_t> assignment);
  /// Deliver every link's Y, computed from current ranks, straight into its
  /// receiver's X — state transfer, outside the channel and its accounting.
  /// The chaos harness's deliberately broken ranker is skipped.
  void prime_x();
  void schedule_step(std::uint32_t group);
  void run_step(std::uint32_t group);
  /// Run every event up to virtual time t.
  void advance_to(double t);
  void fire(const Event& ev);
  void init_obs();
  /// Push the current (ranks, ownership) into opts_.snapshot_sink (no-op
  /// without one) and restart the publish-cadence clock.
  void publish_snapshot();

  // Slice pool for slices that outlive their send: in flight behind a
  // delivery delay, or buffered for retransmission. Buffers are recycled,
  // so steady-state sends allocate nothing. hold() copies a slice into a
  // buffer with one reference; every holder drops its own with
  // release_slice().
  [[nodiscard]] std::uint32_t hold(const YSlice& slice);
  void release_slice(std::uint32_t slice);
  /// Drop every link's retransmit buffer.
  void drop_pending();
  /// Make `slice` the link's retransmit buffer, adopting one reference.
  void set_pending(std::uint32_t link, std::uint32_t slice);
  void clear_pending(std::uint32_t link);

  // Exchange plumbing.
  void send_slice(std::uint32_t src, std::uint32_t link, const YSlice& slice);
  /// The link's reliable pair slot, assigned (and its reverse link looked
  /// up) on the link's first send.
  [[nodiscard]] PairSlot pair_slot(std::uint32_t src, std::uint32_t link);
  /// Put one Y message on the channel — a fresh send or a retransmit:
  /// draw loss, then the fault plane's cut, then the delay, and deliver now
  /// or schedule the delivery. `held` is the slice's pool buffer (the
  /// link's retransmit buffer), or kNone to copy `slice` if it must wait.
  /// Returns whether the message survived loss and cut.
  bool transmit(std::uint32_t src, std::uint32_t link, transport::Epoch epoch,
                const YSlice& slice, std::uint32_t held, std::string_view trace_name);
  /// The channel hands `slice` to `link`'s receiver: the corruption
  /// round-trip, then (with epochs) the stale-slice filter and the ack.
  void deliver(std::uint32_t src, std::uint32_t link, transport::Epoch epoch,
               const YSlice& slice);
  /// The reliable receiver's part of a delivery: liveness evidence, the
  /// stale-epoch filter and the cumulative ack.
  void receive_reliable(std::uint32_t src, std::uint32_t link, transport::Epoch epoch,
                        const YSlice& arrived);
  void apply_ack(const Event& ack);
  void schedule_retransmit(std::uint32_t src, std::uint32_t link, transport::Epoch epoch);
  void on_retransmit_timer(std::uint32_t src, std::uint32_t link, transport::Epoch epoch);
  void apply_churn(std::span<const std::uint32_t> assignment);
  /// Write every group's ranks into `out` (one entry per page).
  void scatter_ranks(std::span<double> out) const;
  /// Queue `slice`, received on `link`, in its receiver's inbox.
  void enqueue(std::uint32_t link, const YSlice& slice);
  /// Corruption round-trip at delivery: encode the slice as a wire frame,
  /// let the fault plane maybe flip bytes, decode + validate. Returns the
  /// slice to deliver — `slice` itself, or what a corrupted frame that
  /// still passed the checksum decoded to — or nullptr when the frame was
  /// quarantined. No-op pass-through while corruption is disabled.
  [[nodiscard]] const YSlice* frame_survives(std::uint32_t src, std::uint32_t dst,
                                             transport::Epoch epoch, std::uint32_t link,
                                             const YSlice& slice);

  // Thread-confinement contract (DESIGN.md §9): the engine runs on one
  // simulation thread. The only concurrency is inside PageGroup's rank
  // kernels, which hand `pool_` disjoint index ranges and never touch the
  // members below; P2P_EXTERNALLY_SYNCHRONIZED marks the state whose
  // mutation from a pool worker would be a data race.
  const graph::WebGraph& graph_;
  EngineOptions opts_;
  util::ThreadPool& pool_;
  std::vector<std::unique_ptr<PageGroup>> groups_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::vector<Inbox> inbox_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::EventQueue<Event> queue_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::uint64_t events_executed_ = 0;
  sim::WaitProcess waits_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::LossModel loss_ P2P_EXTERNALLY_SYNCHRONIZED;
  sim::LossModel ack_loss_ P2P_EXTERNALLY_SYNCHRONIZED;
  transport::FaultPlane fault_plane_ P2P_EXTERNALLY_SYNCHRONIZED;
  util::Rng jitter_rng_ P2P_EXTERNALLY_SYNCHRONIZED;
  double latency_jitter_ = 0.0;
  std::optional<transport::ReliableExchange> reliable_ P2P_EXTERNALLY_SYNCHRONIZED;
  /// Every cut link of the current wiring and both endpoints' exchange
  /// state (DESIGN.md §15); rebuilt with the groups.
  LinkTable links_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::vector<SliceBuf> slices_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::uint32_t free_slice_ = kNone;
  /// Per link: the newest unacked slice (retransmit mode), or kNone.
  /// In-flight delivery events share it, so retransmits copy nothing.
  std::vector<std::uint32_t> pending_ P2P_EXTERNALLY_SYNCHRONIZED;
  std::uint64_t pending_count_ = 0;
  /// Per link (reliable mode): its pair slot and reverse link.
  std::vector<LinkPair> link_pairs_ P2P_EXTERNALLY_SYNCHRONIZED;
  /// The Y slice being sent; reused across sends.
  YSlice outgoing_;
  /// Scratch for the corruption round-trip, reused across frames: (page,
  /// value) frame entries, the frame bytes, the decoded frame, and a
  /// decoded slice that a corrupted frame carried.
  std::vector<std::pair<std::uint32_t, double>> frame_entries_;
  std::vector<std::uint8_t> frame_bytes_;
  transport::DecodedFrame decoded_;
  YSlice collided_;
  /// Wiring generation: bumped by churn and drop_in_flight; deliveries,
  /// acks and timers stamped with an older generation name links of dead
  /// wiring (or a rolled-back timeline) and are dropped.
  std::uint64_t generation_ = 0;
  std::vector<double> reference_;
  double reference_l1_ = 0.0;  ///< ‖R*‖₁, the relative error's denominator
  /// relative_error_now's global rank vector, reused across checks.
  mutable std::vector<double> error_ranks_;
  std::vector<double> prev_sample_ranks_;
  std::vector<char> paused_;
  /// Whether a loop-step event is pending for the group (prevents double
  /// scheduling across resume/churn).
  std::vector<char> active_;
  std::uint32_t nonempty_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t records_sent_ = 0;
  std::uint64_t retransmit_records_ = 0;
  std::uint64_t inner_sweeps_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t acks_delivered_ = 0;
  std::uint64_t churn_events_ = 0;
  std::uint64_t frames_quarantined_ = 0;
  std::uint64_t corrupt_frames_applied_ = 0;
  std::uint64_t slices_rejected_ = 0;
  /// Outer steps performed by group objects retired in churn rebuilds.
  std::uint64_t retired_outer_steps_ = 0;
  std::vector<std::uint64_t> records_per_group_;

  // Termination detection (stability_epsilon > 0): per-group latest
  // stability flag as seen by the coordinator, plus scratch for measuring a
  // step's rank change.
  std::vector<char> stable_flag_;
  std::uint32_t stable_count_ = 0;
  double termination_time_ = -1.0;
  /// Next virtual time at which a loop step publishes into snapshot_sink.
  double next_snapshot_ = 0.0;
  /// Per-group view array for publish_snapshot(), reused across publishes
  /// so the per-outer-iteration publish path allocates nothing.
  std::vector<GroupCut> snapshot_cuts_;
  /// Bumped by build_groups() on every membership change; handed to the
  /// snapshot sink so it can keep ownership-derived state across publishes.
  std::uint64_t ownership_version_ = 0;
  std::uint64_t status_messages_ = 0;
  std::vector<double> step_scratch_;

  // Full-stack mode: overlay hop count per link, routed on first use
  // (kNone = not yet routed).
  std::vector<std::uint32_t> hops_;
  std::uint64_t record_hops_ = 0;

  // Observability hooks (EngineOptions::metrics/tracer; DESIGN.md §11).
  // Registry cells are resolved once at construction — std::map nodes are
  // stable — so the hot path pays one null check + increment per metric.
  // All-null when metrics is off.
  struct ObsHooks {
    std::uint64_t* outer_steps = nullptr;
    std::uint64_t* inner_sweeps = nullptr;
    std::uint64_t* messages_sent = nullptr;
    std::uint64_t* messages_lost = nullptr;
    std::uint64_t* deliveries = nullptr;
    std::uint64_t* records_sent = nullptr;
    std::uint64_t* record_hops = nullptr;
    std::uint64_t* churn_events = nullptr;
    std::uint64_t* retransmissions = nullptr;
    std::uint64_t* retransmit_records = nullptr;
    std::uint64_t* acks_sent = nullptr;
    std::uint64_t* acks_delivered = nullptr;
    std::uint64_t* duplicates_rejected = nullptr;
    std::uint64_t* suspicions = nullptr;
    std::uint64_t* partition_drops = nullptr;
    std::uint64_t* frames_quarantined = nullptr;
    double* data_bytes = nullptr;
    double* retransmit_bytes = nullptr;
    util::Log2Histogram* slice_records = nullptr;
    util::Log2Histogram* inner_iterations = nullptr;
    util::LinearHistogram* step_residual = nullptr;
    std::vector<std::uint64_t*> group_outer_steps;
    std::vector<double*> group_residual;
  };
  ObsHooks obs_ P2P_EXTERNALLY_SYNCHRONIZED;

  [[nodiscard]] double delivery_delay(std::uint32_t src, std::uint32_t dst,
                                      std::uint32_t link);

  /// Floor on sampled waits: a group whose drawn mean is ~0 would otherwise
  /// flood virtual time with events. (The paper's discrete-time simulation
  /// has an implicit floor of one time unit; ours is finer.)
  static constexpr double kMinWait = 0.1;
};

}  // namespace p2prank::engine
