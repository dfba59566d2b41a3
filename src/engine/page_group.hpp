// One page ranker's local state (Section 3's "page group" G), and the
// link table through which groups exchange Y slices.
//
// A group owns a subset of the crawl and keeps:
//   * A   — the local open-system matrix over its own pages (inner links),
//   * R   — its current rank vector,
//   * X   — afferent rank, assembled from the latest Y slice received on
//           each link into the group (refresh = replace that link's values,
//           NOT accumulate: a slice is a snapshot of the sender's efferent
//           contribution, so a newer one supersedes the older).
// The cut edges themselves live in the engine-wide LinkTable, from which the
// outgoing Y slice is computed as Y(v) = Σ α·R(u)/d(u) over cut edges u→v
// (the paper prints β in formula 3.5; see DESIGN.md "Known typo handled").
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/web_graph.hpp"
#include "rank/link_matrix.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {

/// One Y message on a link (DESIGN.md §15). A *full* slice — the paper's
/// algorithm as written (send_threshold == 0) — carries one value per slot
/// of its link, in slot order, and no indices. A *sparse* slice is a patch:
/// (slot, value) pairs, ascending; slots it does not name keep their
/// previous value.
struct YSlice {
  bool sparse = false;
  std::vector<double> values;                             ///< full slices
  std::vector<std::pair<std::uint32_t, double>> entries;  ///< sparse slices
  /// Number of <url_from, url_to, score> wire records this slice stands
  /// for (= cut edges feeding the included slots) — traffic accounting.
  std::uint64_t record_count = 0;
};

/// Every cut link (source group → destination group) of one engine wiring,
/// with the exchange state of both endpoints (DESIGN.md §15).
///
/// Link ids are dense and ordered by (source group, destination group). A
/// link's *slots* are the distinct destination-local pages its cut edges
/// point at, ascending. The sender's Y values and the receiver's stored
/// values share that slot index, so neither side maps page ids at exchange
/// time. Sender state is laid out in link order, so a group's outgoing links
/// are one contiguous stretch. Receiver state is laid out in (destination,
/// source) order, so a group's incoming slots are one contiguous range, and
/// each link records, in link order, where its slots start in that layout:
/// a delivered slice is queued already addressed by its receiver's slots.
class LinkTable {
 public:
  static constexpr std::uint32_t kNoLink = UINT32_MAX;

  LinkTable() = default;

  /// Build from the cut edges. `walk(emit)` must call
  /// emit(src_group, dst_group, src_local, dst_local) once per cut edge, in
  /// wiring order, and is invoked twice (count, then scatter) with the same
  /// sequence. A counting sort groups the edges by source group, then by
  /// destination group, keeping wiring order inside a link; the edges of a
  /// link are then ordered by destination page with the same std::sort the
  /// per-block wiring used, so every Y sum keeps its summation order.
  /// Throws std::length_error when the wiring has 2^32 slots or more
  /// (receiver slots are addressed by 32-bit offsets).
  template <typename Walk>
  [[nodiscard]] static LinkTable build(std::uint32_t num_groups, Walk&& walk);

  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return out_begin_.empty() ? 0 : static_cast<std::uint32_t>(out_begin_.size() - 1);
  }
  [[nodiscard]] std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(link_dst_.size());
  }
  /// Links out of `group` are the ids [out_begin(group), out_end(group)).
  [[nodiscard]] std::uint32_t out_begin(std::uint32_t group) const noexcept {
    return out_begin_[group];
  }
  [[nodiscard]] std::uint32_t out_end(std::uint32_t group) const noexcept {
    return out_begin_[group + 1];
  }
  /// Destination group of every link out of `group`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> destinations(
      std::uint32_t group) const noexcept {
    return {link_dst_.data() + out_begin_[group], link_dst_.data() + out_begin_[group + 1]};
  }
  /// The link src → dst, or kNoLink when src has no cut edge into dst.
  [[nodiscard]] std::uint32_t find(std::uint32_t src, std::uint32_t dst) const noexcept;

  [[nodiscard]] std::uint32_t dst(std::uint32_t link) const noexcept {
    return link_dst_[link];
  }
  [[nodiscard]] std::uint32_t slot_count(std::uint32_t link) const noexcept {
    return static_cast<std::uint32_t>(slot_begin_[link + 1] - slot_begin_[link]);
  }
  [[nodiscard]] std::uint64_t edge_count(std::uint32_t link) const noexcept {
    return edge_begin_[link + 1] - edge_begin_[link];
  }
  /// The link's slots are the receiver slots [recv_first(link),
  /// recv_first(link) + slot_count(link)).
  [[nodiscard]] std::uint32_t recv_first(std::uint32_t link) const noexcept {
    return recv_first_[link];
  }
  /// Slots into `group` are the receiver slots [recv_begin(group),
  /// recv_end(group)): its incoming links' slots, by ascending source.
  [[nodiscard]] std::uint32_t recv_begin(std::uint32_t group) const noexcept {
    return recv_begin_[group];
  }
  [[nodiscard]] std::uint32_t recv_end(std::uint32_t group) const noexcept {
    return recv_begin_[group + 1];
  }
  /// Destination-local page of a slot.
  [[nodiscard]] std::uint32_t slot_page(std::uint32_t link, std::size_t slot) const noexcept {
    return slot_page_[recv_first_[link] + slot];
  }
  /// Slot of a destination-local page, or slot_count(link) when the link
  /// has no edge into that page.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t link, std::uint32_t page) const noexcept;

 private:
  friend class PageGroup;

  /// Second half of build(): `bucket[g]..bucket[g + 1]` are the cut edges
  /// of source group g, in wiring order.
  void link_edges(std::span<const std::size_t> bucket,
                  std::span<const std::uint32_t> dst_group,
                  std::span<const std::uint32_t> src_local,
                  std::span<const std::uint32_t> dst_local);

  // Sender side, in link order. Per group (k + 1): first outgoing link.
  std::vector<std::uint32_t> out_begin_;
  // Per link: destination group and first receiver slot (size num_links),
  // first sender slot and first cut edge (both size num_links + 1).
  std::vector<std::uint32_t> link_dst_;
  std::vector<std::uint32_t> recv_first_;
  std::vector<std::size_t> slot_begin_;
  std::vector<std::size_t> edge_begin_;
  // Per slot: cut edges feeding it, and the last committed value (NaN =
  // never committed).
  std::vector<std::uint32_t> slot_edges_;
  std::vector<double> last_sent_;
  // Per cut edge, in slot order: the sender-local source page. Its weight
  // α/d(u) is the sender matrix's source weight, so it is not stored again.
  std::vector<std::uint32_t> edge_src_;

  // Receiver side, in (destination, source) order. Per group (k + 1): first
  // incoming slot. Per slot: destination-local page, and the latest
  // received value (NaN = never received).
  std::vector<std::uint32_t> recv_begin_;
  std::vector<std::uint32_t> slot_page_;
  std::vector<double> received_;
};

/// A group's inbox (DESIGN.md §15): the slices delivered since its last
/// step, in arrival order, packed into one reused stream of 64-bit words.
/// Each message is a two-word header, then its payload:
///   word 0: first receiver slot (low 32 bits), slot count (high 32 bits);
///   word 1: value count (low 63 bits), sparse flag (bit 63);
///   payload: one word per value (full slice), or one (slot, value) word
///   pair per entry (sparse slice).
/// Values travel as their IEEE-754 bit patterns, so a slice round-trips
/// bit for bit.
class Inbox {
 public:
  /// One message as the stream stores it.
  struct Message {
    std::uint32_t first = 0;  ///< first receiver slot of the link
    std::uint32_t slots = 0;  ///< slot count of the link
    bool sparse = false;
    /// Value words (full), or (slot, value) word pairs (sparse).
    std::span<const std::uint64_t> payload;
  };

  /// Append a slice addressed to receiver slots [first, first + slots).
  void push(std::uint32_t first, std::uint32_t slots, const YSlice& slice);
  void push(std::uint32_t first, std::uint32_t slots, std::span<const double> values);
  void push(std::uint32_t first, std::uint32_t slots,
            std::span<const std::pair<std::uint32_t, double>> entries);

  /// Call visit(const Message&) for every message, in arrival order.
  template <typename Visit>
  void for_each(Visit&& visit) const;

  void clear() noexcept { words_.clear(); }

 private:
  static constexpr std::uint64_t kSparse = std::uint64_t{1} << 63;

  /// Append a header and make room for `payload` words; returns the first.
  std::uint64_t* append(std::uint32_t first, std::uint32_t slots, bool sparse,
                        std::size_t count, std::size_t payload);

  std::vector<std::uint64_t> words_;
};

template <typename Visit>
void Inbox::for_each(Visit&& visit) const {
  const std::uint64_t* at = words_.data();
  const std::uint64_t* const end = at + words_.size();
  while (at != end) {
    const bool sparse = (at[1] & kSparse) != 0;
    const std::size_t count = at[1] & ~kSparse;
    const std::size_t size = sparse ? 2 * count : count;
    visit(Message{static_cast<std::uint32_t>(at[0]), static_cast<std::uint32_t>(at[0] >> 32),
                  sparse, {at + 2, size}});
    at += 2 + size;
  }
}

template <typename Walk>
LinkTable LinkTable::build(std::uint32_t num_groups, Walk&& walk) {
  // Counting sort by source group: count, then scatter in wiring order.
  std::vector<std::size_t> bucket(num_groups + 1, 0);
  walk([&](std::uint32_t src, std::uint32_t, std::uint32_t, std::uint32_t) {
    ++bucket[src + 1];
  });
  for (std::uint32_t g = 0; g < num_groups; ++g) bucket[g + 1] += bucket[g];
  std::vector<std::uint32_t> dst_group(bucket[num_groups]);
  std::vector<std::uint32_t> src_local(bucket[num_groups]);
  std::vector<std::uint32_t> dst_local(bucket[num_groups]);
  std::vector<std::size_t> cursor(bucket.begin(), bucket.end() - 1);
  walk([&](std::uint32_t src, std::uint32_t dst, std::uint32_t from, std::uint32_t to) {
    const std::size_t pos = cursor[src]++;
    dst_group[pos] = dst;
    src_local[pos] = from;
    dst_local[pos] = to;
  });
  LinkTable t;
  t.link_edges(bucket, dst_group, src_local, dst_local);
  return t;
}

class PageGroup {
 public:
  /// `members`: ascending global PageIds owned by this group. `e_local`
  /// optionally personalizes the rank source: E(members[i]) = e_local[i]
  /// (empty = uniform E = 1, the paper's default).
  PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
            double alpha, std::span<const double> e_local = {});

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::span<const graph::PageId> members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::span<const double> ranks() const noexcept { return ranks_; }
  [[nodiscard]] std::uint64_t outer_steps() const noexcept { return outer_steps_; }

  /// Overwrite the local rank vector (size must match). Used to carry rank
  /// state across a link-graph swap (warm start on a mutated crawl).
  void set_ranks(std::span<const double> ranks);

  /// Wipe all runtime state — R, X, the values received on every link into
  /// this group, the last-sent values of every link out of it — as a
  /// crash-without-checkpoint does. The structural state (matrix, link
  /// table) survives; peers re-deliver X on their next sends.
  void reset_state();

  /// Join `links` as group `self`: Y is computed for the links out of
  /// `self`, X is refreshed from the links into it. Called during engine
  /// wiring, before the first step; the table must outlive the group.
  void attach_links(LinkTable& links, std::uint32_t self);

  /// Destination groups this group ships Y slices to (empty until
  /// attach_links).
  [[nodiscard]] std::span<const std::uint32_t> efferent_destinations() const noexcept;

  /// Apply one inbox message, addressed to the receiver slots
  /// [msg.first, msg.first + msg.slots): each value supersedes the stored
  /// value of its slot. This is the "Refresh X" of Algorithms 3/4 (the
  /// engine streams the inbox through it). Keeps X = Σ_links
  /// latest-per-slot exact for full and sparse slices alike. Returns false,
  /// touching nothing, unless the slots lie in this group's incoming range,
  /// a full slice has exactly one value per slot, a sparse one names
  /// strictly ascending slots below msg.slots, and every value is finite
  /// and non-negative.
  [[nodiscard]] bool refresh_slots(const Inbox::Message& msg);

  /// refresh_slots for a slice received on `link`, given as the values of a
  /// full slice or the entries of a sparse one. Also returns false unless
  /// the link ends at this group.
  [[nodiscard]] bool refresh_x(std::uint32_t link, std::span<const double> values);
  [[nodiscard]] bool refresh_x(std::uint32_t link,
                               std::span<const std::pair<std::uint32_t, double>> entries);

  /// Graceful degradation on suspected peer death: scale every stored X
  /// contribution received from `source_group` by `factor` (in [0, 1]).
  /// The next genuine slice from that peer supersedes the decayed values
  /// slot by slot, exactly like any refresh.
  void scale_received(std::uint32_t source_group, double factor);

  /// Route all local iteration through the residual-driven worklist kernel
  /// (DESIGN.md §6). Call during wiring; the frontier state then persists
  /// across steps so converged rows stay skipped until their inputs move.
  /// With opts.epsilon == 0 every iterate is bitwise-identical to the dense
  /// kernels.
  void configure_worklist(const rank::WorklistOptions& opts);

  /// Frontier state (tallies of skipped/recomputed rows); for tests.
  [[nodiscard]] const rank::WorklistState& worklist_state() const noexcept {
    return wl_state_;
  }

  /// Portable slice of the worklist frontier: the per-source propagated
  /// contributions and the differ bitmap as of the last completed sweep.
  /// Together with the rank vector this is everything a successor group
  /// (same membership, updated links) needs to resume sparse sweeps without
  /// a dense re-prime (DESIGN.md §14).
  struct WorklistCarry {
    bool valid = false;
    std::vector<double> contrib;
    std::vector<std::uint64_t> differ;
  };

  /// Snapshot the frontier for an incremental graph swap. Returns an
  /// invalid carry when the group is not running a primed worklist on the
  /// current buffer pair (callers then fall back to a dense warm start).
  [[nodiscard]] WorklistCarry export_worklist_carry() const;

  /// Adopt rank state plus a predecessor's frontier after a link-only graph
  /// splice. `changed_sources_local` are local rows whose out-degree (and
  /// hence contribution weight) changed — they get differ bits so the next
  /// sweep re-propagates them; `changed_rows_local` are local rows whose
  /// in-neighborhood changed — they get forcing-dirty bits so they
  /// recompute. Falls back to set_ranks() (dense re-prime) and returns
  /// false when the carry does not fit this group or the worklist is not in
  /// exact mode; returns true when the frontier was installed. Call before
  /// any X re-priming so refresh_x() can record its own dirty rows.
  bool install_worklist_carry(std::span<const double> ranks, WorklistCarry carry,
                              std::span<const std::uint32_t> changed_rows_local,
                              std::span<const std::uint32_t> changed_sources_local);

  /// Force every row with any received X entry to recompute next sweep.
  /// After an incremental swap the fresh group's received slots are re-primed
  /// from full Y slices; entries that land at bitwise 0.0 produce no
  /// refresh_x() delta yet may still supersede a nonzero pre-swap X, so the
  /// conservative mark keeps the frontier sound (recomputing a consistent
  /// row is bitwise-idempotent).
  void mark_all_received_dirty();

  /// DPR1 body: solve R = A·R + βE + X to `epsilon`, warm-started from the
  /// current R. Returns inner iterations used.
  std::size_t solve_to_convergence(double epsilon, std::size_t max_iterations,
                                   util::ThreadPool& pool);

  /// DPR2 body: exactly one Jacobi sweep of R = A·R + βE + X (fused
  /// contribution kernel; the sweep's residual is recorded, not recomputed).
  void sweep_once(util::ThreadPool& pool);

  /// L1 norm of (R_new − R_old) of the most recent sweep_once(); 0 before
  /// the first sweep. Lets DPR2 stability detection skip a second pass
  /// (and a snapshot copy) over R.
  [[nodiscard]] double last_sweep_delta() const noexcept { return last_sweep_delta_; }

  /// Compute the outgoing Y slice of `link` (a link out of this group) from
  /// current R into `out`, reusing its buffers. With threshold == 0 the
  /// slice is full. With threshold > 0 it is sparse: slots whose value
  /// moved less than `threshold` since the last *committed* send are
  /// omitted (delta sending — the paper's "reduce communication overhead"
  /// future work); never-sent slots are always included. Throws
  /// std::invalid_argument for a link that does not start at this group.
  void compute_y(std::uint32_t link, double threshold, YSlice& out) const;

  /// Record that `slice` reached the receiver of `link`, so future
  /// thresholded sends diff against it. Call only on successful delivery —
  /// after a lost message the changes stay pending and ride the next slice.
  void commit_sent(std::uint32_t link, const YSlice& slice);

  /// Count one completed loop step.
  void count_outer_step() noexcept { ++outer_steps_; }

  [[nodiscard]] const rank::LinkMatrix& matrix() const noexcept { return matrix_; }

 private:
  /// Whether `link` is a link into this group.
  [[nodiscard]] bool receives(std::uint32_t link) const noexcept;
  /// refresh_slots on the one message in wrapped_ (refresh_x's path).
  [[nodiscard]] bool refresh_wrapped();
  /// Supersede the stored value of received slot `at`.
  void apply_slot(std::size_t at, double value);

  std::vector<graph::PageId> members_;
  rank::LinkMatrix matrix_;
  std::vector<double> beta_e_;          // βE(v) per local page
  std::vector<double> ranks_;           // R, local
  std::vector<double> x_;               // X, local (sum of latest slices)
  std::vector<double> forcing_;         // βE + X, kept in sync with x_
  std::vector<double> scratch_;         // sweep target
  rank::SweepScratch sweep_scratch_;    // contribution vector + partials
  bool worklist_enabled_ = false;       // route sweeps through the frontier kernel
  rank::WorklistOptions wl_opts_;
  rank::WorklistState wl_state_;        // frontier bitmaps, pinned to ranks_/scratch_
  double last_sweep_delta_ = 0.0;       // L1 residual of the last sweep_once
  LinkTable* links_ = nullptr;          // engine-owned; null until attached
  Inbox wrapped_;                       // refresh_x's slice, as a message
  std::uint32_t self_ = 0;              // this group's id in links_
  std::uint64_t outer_steps_ = 0;
};

}  // namespace p2prank::engine
