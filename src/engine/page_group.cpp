#include "engine/page_group.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "rank/open_system.hpp"

namespace p2prank::engine {

namespace {

constexpr double kNever = std::numeric_limits<double>::quiet_NaN();

double value_of(std::uint64_t word) noexcept { return std::bit_cast<double>(word); }

/// Finite and non-negative (NaN fails both comparisons).
bool value_fits(std::uint64_t word) noexcept {
  const double v = value_of(word);
  return v >= 0.0 && v <= std::numeric_limits<double>::max();
}

/// A full payload: one acceptable value per slot.
bool values_fit(std::size_t slots, std::span<const std::uint64_t> values) noexcept {
  if (values.size() != slots) return false;
  for (const std::uint64_t v : values) {
    if (!value_fits(v)) return false;
  }
  return true;
}

/// A sparse payload: (slot, value) pairs with strictly ascending slots
/// below `slots` and acceptable values.
bool entries_fit(std::size_t slots, std::span<const std::uint64_t> pairs) noexcept {
  std::uint64_t next = 0;  // lowest slot the next entry may name
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    if (pairs[i] < next || pairs[i] >= slots || !value_fits(pairs[i + 1])) return false;
    next = pairs[i] + 1;
  }
  return true;
}

}  // namespace

void LinkTable::link_edges(std::span<const std::size_t> bucket,
                           std::span<const std::uint32_t> dst_group,
                           std::span<const std::uint32_t> src_local,
                           std::span<const std::uint32_t> dst_local) {
  const auto k = static_cast<std::uint32_t>(bucket.size() - 1);
  out_begin_.assign(k + 1, 0);
  slot_begin_.assign(1, 0);
  edge_begin_.assign(1, 0);
  edge_src_.reserve(bucket[k]);
  std::vector<std::uint32_t> pages;  // slot pages in link order

  // Per source group: counting sort of its edges by destination group
  // (stable, so a link keeps wiring order), one link per destination.
  std::vector<std::uint32_t> count(k, 0);
  std::vector<std::uint32_t> dests;
  std::vector<std::uint32_t> link_src;  // scratch: this group's edges by link
  std::vector<std::uint32_t> link_page;
  std::vector<std::uint32_t> order;
  for (std::uint32_t g = 0; g < k; ++g) {
    out_begin_[g] = static_cast<std::uint32_t>(link_dst_.size());
    const std::size_t lo = bucket[g];
    const std::size_t hi = bucket[g + 1];
    dests.clear();
    for (std::size_t e = lo; e < hi; ++e) {
      if (count[dst_group[e]]++ == 0) dests.push_back(dst_group[e]);
    }
    std::sort(dests.begin(), dests.end());
    std::uint32_t offset = 0;
    for (const std::uint32_t d : dests) {
      const std::uint32_t n = count[d];
      count[d] = offset;  // becomes the link's scatter cursor
      offset += n;
    }
    link_src.resize(hi - lo);
    link_page.resize(hi - lo);
    for (std::size_t e = lo; e < hi; ++e) {
      const std::uint32_t pos = count[dst_group[e]]++;
      link_src[pos] = src_local[e];
      link_page[pos] = dst_local[e];
    }
    std::uint32_t first = 0;
    for (const std::uint32_t d : dests) {
      const std::uint32_t last = count[d];  // cursor now sits at the link's end
      count[d] = 0;
      // Order the link's edges by destination page with the unstable sort
      // of the per-block wiring, replayed on the same key sequence: equal
      // pages keep the edge order that sort produced, so every Y sum adds
      // its terms in the pre-link-table order (bitwise contract, §15).
      const std::span<const std::uint32_t> keys(link_page.data() + first, last - first);
      order.resize(keys.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
      for (const std::uint32_t i : order) {
        if (pages.size() == slot_begin_.back() || pages.back() != keys[i]) {
          pages.push_back(keys[i]);
          slot_edges_.push_back(0);
        }
        ++slot_edges_.back();
        edge_src_.push_back(link_src[first + i]);
      }
      link_dst_.push_back(d);
      slot_begin_.push_back(pages.size());
      edge_begin_.push_back(edge_src_.size());
      first = last;
    }
  }
  out_begin_[k] = static_cast<std::uint32_t>(link_dst_.size());
  if (pages.size() > UINT32_MAX) {
    throw std::length_error("LinkTable: 2^32 or more slots");
  }
  last_sent_.assign(pages.size(), kNever);

  // Receiver side: slots grouped by destination, ascending link id (=
  // ascending source) within a destination. Each link records where its
  // slots start, and its pages are copied into place.
  const std::uint32_t num_links = this->num_links();
  recv_begin_.assign(k + 1, 0);
  for (std::uint32_t l = 0; l < num_links; ++l) recv_begin_[link_dst_[l] + 1] += slot_count(l);
  for (std::uint32_t g = 0; g < k; ++g) recv_begin_[g + 1] += recv_begin_[g];
  std::vector<std::uint32_t> cursor(recv_begin_.begin(), recv_begin_.end() - 1);
  recv_first_.resize(num_links);
  slot_page_.resize(pages.size());
  for (std::uint32_t l = 0; l < num_links; ++l) {
    recv_first_[l] = cursor[link_dst_[l]];
    cursor[link_dst_[l]] += slot_count(l);
    std::copy(pages.begin() + static_cast<std::ptrdiff_t>(slot_begin_[l]),
              pages.begin() + static_cast<std::ptrdiff_t>(slot_begin_[l + 1]),
              slot_page_.begin() + recv_first_[l]);
  }
  received_.assign(slot_page_.size(), kNever);
}

std::uint32_t LinkTable::find(std::uint32_t src, std::uint32_t dst) const noexcept {
  const auto dests = destinations(src);
  const auto it = std::lower_bound(dests.begin(), dests.end(), dst);
  if (it == dests.end() || *it != dst) return kNoLink;
  return out_begin_[src] + static_cast<std::uint32_t>(it - dests.begin());
}

std::uint32_t LinkTable::slot_of(std::uint32_t link, std::uint32_t page) const noexcept {
  const auto first = slot_page_.begin() + recv_first_[link];
  const auto last = first + slot_count(link);
  const auto it = std::lower_bound(first, last, page);
  if (it != last && *it == page) return static_cast<std::uint32_t>(it - first);
  return static_cast<std::uint32_t>(last - first);
}

PageGroup::PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
                     double alpha, std::span<const double> e_local)
    : members_(std::move(members)),
      matrix_(rank::LinkMatrix::from_subset(g, members_, alpha)) {
  assert(std::is_sorted(members_.begin(), members_.end()));
  if (!e_local.empty() && e_local.size() != members_.size()) {
    throw std::invalid_argument("PageGroup: e_local size mismatch");
  }
  const double beta = rank::beta_of(alpha);
  beta_e_.resize(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    beta_e_[i] = beta * (e_local.empty() ? 1.0 : e_local[i]);
  }
  ranks_.assign(members_.size(), 0.0);  // R0 = 0 (the proofs' S = 0)
  x_.assign(members_.size(), 0.0);
  forcing_ = beta_e_;
  scratch_.assign(members_.size(), 0.0);
}

void PageGroup::configure_worklist(const rank::WorklistOptions& opts) {
  worklist_enabled_ = true;
  wl_opts_ = opts;
  wl_state_.reset();
}

void PageGroup::set_ranks(std::span<const double> ranks) {
  if (ranks.size() != ranks_.size()) {
    throw std::invalid_argument("PageGroup::set_ranks: size mismatch");
  }
  ranks_.assign(ranks.begin(), ranks.end());
  // R changed out of band (warm start / checkpoint restore): every frontier
  // assumption is stale, so the next sweep must run dense.
  wl_state_.reset();
}

void PageGroup::reset_state() {
  std::fill(ranks_.begin(), ranks_.end(), 0.0);
  std::fill(x_.begin(), x_.end(), 0.0);
  forcing_ = beta_e_;
  last_sweep_delta_ = 0.0;
  wl_state_.reset();
  if (links_ == nullptr) return;
  LinkTable& t = *links_;
  const auto fill_never = [](std::vector<double>& v, std::size_t lo, std::size_t hi) {
    std::fill(v.begin() + static_cast<std::ptrdiff_t>(lo),
              v.begin() + static_cast<std::ptrdiff_t>(hi), kNever);
  };
  fill_never(t.received_, t.recv_begin(self_), t.recv_end(self_));
  fill_never(t.last_sent_, t.slot_begin_[t.out_begin_[self_]],
             t.slot_begin_[t.out_begin_[self_ + 1]]);
}

void PageGroup::attach_links(LinkTable& links, std::uint32_t self) {
  assert(self < links.num_groups());
  links_ = &links;
  self_ = self;
}

std::span<const std::uint32_t> PageGroup::efferent_destinations() const noexcept {
  if (links_ == nullptr) return {};
  return links_->destinations(self_);
}

bool PageGroup::receives(std::uint32_t link) const noexcept {
  return links_ != nullptr && link < links_->num_links() && links_->dst(link) == self_;
}

void PageGroup::apply_slot(std::size_t at, double value) {
  // X(v) = Σ over (link, slot) of the latest received contribution.
  // Maintain the dense sum incrementally: each incoming value supersedes the
  // stored value of its slot (NaN = never received, which counts as 0).
  const std::uint32_t local = links_->slot_page_[at];
  double& stored = links_->received_[at];
  const double delta = value - (std::isnan(stored) ? 0.0 : stored);
  x_[local] += delta;
  forcing_[local] += delta;
  stored = value;
  // A bitwise-unchanged forcing slot (delta exactly 0) cannot change the
  // row's next value, so only real changes wake the row.
  if (worklist_enabled_ && delta != 0.0) wl_state_.mark_forcing_dirty(local);
}

bool PageGroup::refresh_slots(const Inbox::Message& msg) {
  // The guard (DESIGN.md §15 item 7): nothing is touched unless the whole
  // message fits.
  if (links_ == nullptr || msg.first < links_->recv_begin(self_) ||
      std::uint64_t{msg.first} + msg.slots > links_->recv_end(self_)) {
    return false;
  }
  const std::span<const std::uint64_t> p = msg.payload;
  if (msg.sparse) {
    if (!entries_fit(msg.slots, p)) return false;
    for (std::size_t i = 0; i < p.size(); i += 2) {
      apply_slot(msg.first + p[i], value_of(p[i + 1]));
    }
  } else {
    if (!values_fit(msg.slots, p)) return false;
    for (std::size_t slot = 0; slot < p.size(); ++slot) {
      apply_slot(msg.first + slot, value_of(p[slot]));
    }
  }
  return true;
}

bool PageGroup::refresh_wrapped() {
  bool applied = false;
  wrapped_.for_each([&](const Inbox::Message& msg) { applied = refresh_slots(msg); });
  wrapped_.clear();
  return applied;
}

bool PageGroup::refresh_x(std::uint32_t link, std::span<const double> values) {
  if (!receives(link)) return false;
  wrapped_.push(links_->recv_first(link), links_->slot_count(link), values);
  return refresh_wrapped();
}

bool PageGroup::refresh_x(std::uint32_t link,
                          std::span<const std::pair<std::uint32_t, double>> entries) {
  if (!receives(link)) return false;
  wrapped_.push(links_->recv_first(link), links_->slot_count(link), entries);
  return refresh_wrapped();
}

void PageGroup::scale_received(std::uint32_t source_group, double factor) {
  if (!(factor >= 0.0 && factor <= 1.0)) {
    throw std::invalid_argument("PageGroup::scale_received: factor out of [0,1]");
  }
  if (links_ == nullptr || source_group >= links_->num_groups()) return;
  const std::uint32_t link = links_->find(source_group, self_);
  if (link == LinkTable::kNoLink) return;  // that peer sends us nothing
  const std::size_t first = links_->recv_first(link);
  // Slots of one link name distinct pages, so the updates commute bitwise.
  for (std::size_t at = first; at < first + links_->slot_count(link); ++at) {
    double& value = links_->received_[at];
    if (std::isnan(value)) continue;  // never heard on this slot
    const std::uint32_t local = links_->slot_page_[at];
    const double decayed = value * factor;
    const double delta = decayed - value;
    x_[local] += delta;
    forcing_[local] += delta;
    value = decayed;
    if (worklist_enabled_ && delta != 0.0) wl_state_.mark_forcing_dirty(local);
  }
}

PageGroup::WorklistCarry PageGroup::export_worklist_carry() const {
  WorklistCarry carry;
  if (!worklist_enabled_ || !wl_state_.primed) return carry;
  // The differ bitmap is a statement about this exact buffer pair; if the
  // state talks about some other pair the frontier is not exportable.
  const bool pair_ok =
      (wl_state_.pair_a == ranks_.data() && wl_state_.pair_b == scratch_.data()) ||
      (wl_state_.pair_a == scratch_.data() && wl_state_.pair_b == ranks_.data());
  if (!pair_ok) return carry;
  carry.valid = true;
  carry.contrib = wl_state_.contrib;
  carry.differ = wl_state_.differ;
  return carry;
}

bool PageGroup::install_worklist_carry(
    std::span<const double> ranks, WorklistCarry carry,
    std::span<const std::uint32_t> changed_rows_local,
    std::span<const std::uint32_t> changed_sources_local) {
  const std::size_t dim = members_.size();
  const std::size_t words = (dim + 63) / 64;
  // The frontier argument (DESIGN.md §14) needs exact mode: with ε > 0 the
  // carried contribs embed sub-epsilon drift relative to a fresh prime, so
  // the bitwise contract with rebuild-then-warm-start would not hold.
  if (!worklist_enabled_ || wl_opts_.epsilon != 0.0 || !carry.valid ||
      carry.contrib.size() != dim || carry.differ.size() != words) {
    set_ranks(ranks);
    return false;
  }
  ranks_.assign(ranks.begin(), ranks.end());
  scratch_.assign(ranks.begin(), ranks.end());
  wl_state_.contrib = std::move(carry.contrib);
  wl_state_.differ = std::move(carry.differ);
  // Pre-size every derived bitmap exactly as the kernel's own prime does,
  // so the next sweep's sizing check keeps the installed frontier.
  wl_state_.dirty.assign(words, 0);
  wl_state_.src_active.assign(words, 0);
  wl_state_.forcing_dirty.assign(words, 0);
  wl_state_.grain_edges.assign(
      util::ThreadPool::num_grains(dim, matrix_.sweep_grain()), 0);
  wl_state_.active_grains.clear();
  wl_state_.primed = true;
  wl_state_.sweeps_since_dense = 0;
  wl_state_.pair_a = ranks_.data();
  wl_state_.pair_b = scratch_.data();
  // Sources whose 1/d(u) weight changed: their propagated contribution is
  // stale, so the next sweep's rescan phase must revisit them.
  for (const std::uint32_t row : changed_sources_local) {
    assert(row < dim);
    wl_state_.differ[row >> 6] |= std::uint64_t{1} << (row & 63);
  }
  // Rows whose in-neighborhood changed recompute against the new matrix.
  for (const std::uint32_t row : changed_rows_local) {
    assert(row < dim);
    wl_state_.mark_forcing_dirty(row);
  }
  return true;
}

void PageGroup::mark_all_received_dirty() {
  if (!worklist_enabled_ || links_ == nullptr) return;
  const LinkTable& t = *links_;
  for (std::size_t at = t.recv_begin(self_); at < t.recv_end(self_); ++at) {
    if (!std::isnan(t.received_[at])) wl_state_.mark_forcing_dirty(t.slot_page_[at]);
  }
}

std::size_t PageGroup::solve_to_convergence(double epsilon,
                                            std::size_t max_iterations,
                                            util::ThreadPool& pool) {
  if (worklist_enabled_) {
    // Iterate in place on the persistent ranks_/scratch_ pair so the
    // frontier survives across outer steps: after the first solve, later
    // solves only touch rows reached from refreshed forcing entries. Same
    // convergence gating as solve_open_system_worklist.
    std::size_t iterations = 0;
    bool confirm = false;
    for (std::size_t it = 0; it < max_iterations; ++it) {
      const rank::WorklistSweepStats stats = matrix_.sweep_and_residual_worklist(
          ranks_, scratch_, forcing_, sweep_scratch_, wl_state_, wl_opts_, pool,
          /*force_dense=*/confirm);
      std::swap(ranks_, scratch_);
      ++iterations;
      if (stats.l1_delta <= epsilon) {
        if (stats.dense || wl_opts_.epsilon == 0.0) break;
        confirm = true;
      } else {
        confirm = false;
      }
    }
    return iterations;
  }
  // Dense: solve_open_system's loop, run in place on the same pair so a
  // loop step allocates nothing.
  std::size_t iterations = 0;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    const double delta =
        rank::open_system_sweep(matrix_, ranks_, scratch_, forcing_, sweep_scratch_, pool)
            .l1_delta;
    std::swap(ranks_, scratch_);
    ++iterations;
    if (delta <= epsilon) break;
  }
  return iterations;
}

void PageGroup::sweep_once(util::ThreadPool& pool) {
  if (worklist_enabled_) {
    last_sweep_delta_ =
        matrix_
            .sweep_and_residual_worklist(ranks_, scratch_, forcing_,
                                         sweep_scratch_, wl_state_, wl_opts_, pool)
            .l1_delta;
  } else {
    last_sweep_delta_ =
        rank::open_system_sweep(matrix_, ranks_, scratch_, forcing_, sweep_scratch_, pool)
            .l1_delta;
  }
  std::swap(ranks_, scratch_);
}

void PageGroup::compute_y(std::uint32_t link, double threshold, YSlice& out) const {
  if (links_ == nullptr || link < links_->out_begin(self_) || link >= links_->out_end(self_)) {
    throw std::invalid_argument("PageGroup::compute_y: not a link out of this group");
  }
  const std::size_t first = links_->slot_begin_[link];
  const std::size_t slots = links_->slot_begin_[link + 1] - first;
  const std::uint32_t* const runs = links_->slot_edges_.data() + first;
  const std::uint32_t* src = links_->edge_src_.data() + links_->edge_begin_[link];
  const double* const weight = matrix_.source_weights().data();
  // Slots follow the link's edges in order: one streaming pass, summing each
  // slot's run of edges.
  out.sparse = threshold > 0.0;
  out.values.resize(out.sparse ? 0 : slots);
  out.entries.clear();
  out.record_count = out.sparse ? 0 : links_->edge_count(link);
  const double* const last_sent = links_->last_sent_.data() + first;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    double acc = 0.0;
    for (const std::uint32_t* end = src + runs[slot]; src != end; ++src) {
      acc += ranks_[*src] * weight[*src];
    }
    if (!out.sparse) {
      out.values[slot] = acc;
      continue;
    }
    // Include when never sent, or moved at least `threshold` since the last
    // committed send.
    const double last = last_sent[slot];
    if (std::isnan(last) || std::fabs(acc - last) >= threshold) {
      out.entries.emplace_back(static_cast<std::uint32_t>(slot), acc);
      out.record_count += runs[slot];
    }
  }
}

void PageGroup::commit_sent(std::uint32_t link, const YSlice& slice) {
  assert(links_ != nullptr && link >= links_->out_begin(self_) &&
         link < links_->out_end(self_));
  double* const last_sent = links_->last_sent_.data() + links_->slot_begin_[link];
  if (slice.sparse) {
    for (const auto& [slot, value] : slice.entries) last_sent[slot] = value;
  } else {
    std::copy(slice.values.begin(), slice.values.end(), last_sent);
  }
}

std::uint64_t* Inbox::append(std::uint32_t first, std::uint32_t slots, bool sparse,
                             std::size_t count, std::size_t payload) {
  const std::size_t at = words_.size();
  words_.resize(at + 2 + payload);
  std::uint64_t* const header = words_.data() + at;
  header[0] = first | (std::uint64_t{slots} << 32);
  header[1] = count | (sparse ? kSparse : 0);
  return header + 2;
}

void Inbox::push(std::uint32_t first, std::uint32_t slots, std::span<const double> values) {
  std::uint64_t* out = append(first, slots, false, values.size(), values.size());
  for (const double v : values) *out++ = std::bit_cast<std::uint64_t>(v);
}

void Inbox::push(std::uint32_t first, std::uint32_t slots,
                 std::span<const std::pair<std::uint32_t, double>> entries) {
  std::uint64_t* out = append(first, slots, true, entries.size(), 2 * entries.size());
  for (const auto& [slot, value] : entries) {
    *out++ = slot;
    *out++ = std::bit_cast<std::uint64_t>(value);
  }
}

void Inbox::push(std::uint32_t first, std::uint32_t slots, const YSlice& slice) {
  if (slice.sparse) {
    push(first, slots, slice.entries);
  } else {
    push(first, slots, slice.values);
  }
}

}  // namespace p2prank::engine
