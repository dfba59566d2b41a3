#include "engine/page_group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr double kBeta = 1.0 - kAlpha;

util::ThreadPool& pool() {
  static util::ThreadPool p(2);
  return p;
}

/// One cut edge for a hand-built link table.
struct Cut {
  std::uint32_t src_group;
  std::uint32_t dst_group;
  std::uint32_t src_local;
  std::uint32_t dst_local;
};

LinkTable table_of(std::uint32_t k, const std::vector<Cut>& cuts) {
  return LinkTable::build(k, [&](auto&& emit) {
    for (const Cut& c : cuts) emit(c.src_group, c.dst_group, c.src_local, c.dst_local);
  });
}

using Values = std::vector<double>;
using Entries = std::vector<std::pair<std::uint32_t, double>>;

YSlice slice_of(Values values) {
  YSlice s;
  s.values = std::move(values);
  return s;
}

YSlice slice_of(Entries entries) {
  YSlice s;
  s.sparse = true;
  s.entries = std::move(entries);
  return s;
}

bool forcing_dirty(const PageGroup& group, std::uint32_t row) {
  const auto& bits = group.worklist_state().forcing_dirty;
  return ((bits.at(row >> 6) >> (row & 63)) & 1) != 0;
}

TEST(PageGroup, SolvesLocalSystemWithoutAfferentRank) {
  // Whole two-cycle as one group: fixed point is 1 everywhere.
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.solve_to_convergence(1e-14, 2000, pool());
  EXPECT_NEAR(group.ranks()[0], 1.0, 1e-10);
  EXPECT_NEAR(group.ranks()[1], 1.0, 1e-10);
}

TEST(PageGroup, RefreshXRaisesFixedPoint) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  auto links = table_of(8, {{7, 0, 0, 0}});
  group.attach_links(links, 0);
  group.solve_to_convergence(1e-14, 2000, pool());
  ASSERT_TRUE(group.refresh_x(links.find(/*src=*/7, /*dst=*/0), Values{0.5}));
  group.solve_to_convergence(1e-14, 2000, pool());
  // Closed form: r0 = beta + 0.5 + alpha*r1; r1 = beta + alpha*r0.
  const double r0 = (kBeta + 0.5 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, RefreshXReplacesPriorSliceFromSameSource) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  auto links = table_of(4, {{3, 0, 0, 0}});
  group.attach_links(links, 0);
  const std::uint32_t link = links.find(3, 0);
  ASSERT_TRUE(group.refresh_x(link, Values{0.9}));
  ASSERT_TRUE(group.refresh_x(link, Values{0.2}));  // replaces, does not accumulate
  group.solve_to_convergence(1e-14, 2000, pool());
  const double r0 = (kBeta + 0.2 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, SlicesFromDifferentSourcesAccumulate) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  auto links = table_of(3, {{1, 0, 0, 0}, {2, 0, 0, 0}});
  group.attach_links(links, 0);
  ASSERT_TRUE(group.refresh_x(links.find(1, 0), Values{0.2}));
  ASSERT_TRUE(group.refresh_x(links.find(2, 0), Values{0.3}));
  group.solve_to_convergence(1e-14, 2000, pool());
  const double r0 = (kBeta + 0.5 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, ComputeYUsesAlphaOverGlobalDegree) {
  // Chain 0->1->2->3 split {0,1} | {2,3}. Group A's efferent edge is 1->2
  // with weight alpha/d(1) = alpha.
  const auto g = test::chain(4);
  PageGroup a(g, {0, 1}, kAlpha);
  auto links = table_of(2, {{/*src_group=*/0, /*dst_group=*/1, /*src_local=*/1,
                             /*dst_local=*/0}});
  a.attach_links(links, 0);
  a.solve_to_convergence(1e-14, 2000, pool());
  // R(1) = beta + alpha*beta.
  const std::uint32_t link = links.find(0, 1);
  YSlice y;
  a.compute_y(link, 0.0, y);
  ASSERT_FALSE(y.sparse);
  ASSERT_EQ(y.values.size(), 1u);
  EXPECT_EQ(links.slot_page(link, 0), 0u);
  EXPECT_NEAR(y.values[0], kAlpha * (kBeta + kAlpha * kBeta), 1e-10);
  EXPECT_EQ(y.record_count, 1u);
}

TEST(PageGroup, ComputeYAggregatesEdgesToSameTarget) {
  // Two pages in group A both link to the same page in group B.
  const auto g = test::star(2);  // leaves 1,2 -> hub 0
  PageGroup a(g, {1, 2}, kAlpha);
  auto links = table_of(2, {{1, 0, 0, 0},    // leaf1 -> hub
                            {1, 0, 1, 0}});  // leaf2 -> hub
  a.attach_links(links, 1);
  a.solve_to_convergence(1e-14, 2000, pool());
  YSlice y;
  a.compute_y(links.find(1, 0), 0.0, y);
  ASSERT_EQ(y.values.size(), 1u);  // aggregated
  EXPECT_EQ(y.record_count, 2u);   // but 2 wire records
  EXPECT_NEAR(y.values[0], 2.0 * kAlpha * kBeta, 1e-10);
}

TEST(PageGroup, ComputeYForUnknownGroupThrows) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  YSlice y;
  EXPECT_THROW(group.compute_y(0, 0.0, y), std::invalid_argument);  // unattached
  auto links = table_of(10, {{9, 0, 0, 0}});
  group.attach_links(links, 0);
  // The only link ends at this group; it does not start here.
  EXPECT_THROW(group.compute_y(links.find(9, 0), 0.0, y), std::invalid_argument);
}

TEST(PageGroup, EfferentDestinationsListsEveryTargetGroupOnce) {
  const auto g = test::chain(6);
  PageGroup group(g, {0, 1, 2}, kAlpha);
  auto links = table_of(3, {{0, 1, 2, 0}, {0, 2, 2, 0}, {0, 1, 0, 1}});
  group.attach_links(links, 0);
  const auto dests = group.efferent_destinations();
  ASSERT_EQ(dests.size(), 2u);
  EXPECT_EQ(dests[0], 1u);
  EXPECT_EQ(dests[1], 2u);
}

TEST(PageGroup, SweepOnceIsOneJacobiStep) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.sweep_once(pool());
  // From R0 = 0: one sweep gives exactly beta everywhere.
  EXPECT_DOUBLE_EQ(group.ranks()[0], kBeta);
  EXPECT_DOUBLE_EQ(group.ranks()[1], kBeta);
  group.sweep_once(pool());
  EXPECT_DOUBLE_EQ(group.ranks()[0], kBeta + kAlpha * kBeta);
}

TEST(PageGroup, ConvergedGroupSweepsRecomputeNothing) {
  // Under constant forcing, once R reaches its bitwise fixed point the
  // frontier is empty: further sweeps run no dense pass and recompute no
  // row, however many there are.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 9));
  std::vector<graph::PageId> members(g.num_pages());
  std::iota(members.begin(), members.end(), graph::PageId{0});
  PageGroup group(g, std::move(members), kAlpha);
  std::size_t sweeps = 0;
  do {
    group.sweep_once(pool());
  } while (group.last_sweep_delta() != 0.0 && ++sweeps < 5000);
  ASSERT_EQ(group.last_sweep_delta(), 0.0) << "no bitwise fixed point reached";

  const std::vector<double> fixed(group.ranks().begin(), group.ranks().end());
  const std::uint64_t dense = group.worklist_state().dense_sweeps;
  const std::uint64_t rows = group.worklist_state().rows_computed;
  for (int k = 0; k < 640; ++k) group.sweep_once(pool());
  EXPECT_EQ(group.worklist_state().dense_sweeps, dense);
  EXPECT_EQ(group.worklist_state().rows_computed, rows);
  EXPECT_EQ(group.last_sweep_delta(), 0.0);
  EXPECT_TRUE(std::equal(fixed.begin(), fixed.end(), group.ranks().begin()));
}

TEST(PageGroup, OuterStepCounter) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  EXPECT_EQ(group.outer_steps(), 0u);
  group.count_outer_step();
  group.count_outer_step();
  EXPECT_EQ(group.outer_steps(), 2u);
}

TEST(PageGroup, EmptyGroupIsInert) {
  const auto g = test::two_cycle();
  PageGroup group(g, {}, kAlpha);
  EXPECT_EQ(group.size(), 0u);
  EXPECT_TRUE(group.efferent_destinations().empty());
  group.sweep_once(pool());
  group.solve_to_convergence(1e-10, 10, pool());
  EXPECT_TRUE(group.ranks().empty());
}

// --- Link table layout (DESIGN.md §15) --------------------------------------

TEST(LinkTable, LinksOrderedBySourceThenDestination) {
  // Wiring order is scrambled on purpose; ids must not follow it.
  const auto links =
      table_of(4, {{2, 0, 0, 0}, {0, 3, 1, 0}, {2, 1, 0, 0}, {0, 1, 0, 4}, {0, 3, 0, 2}});
  ASSERT_EQ(links.num_links(), 4u);
  EXPECT_EQ(links.find(0, 1), 0u);
  EXPECT_EQ(links.find(0, 3), 1u);
  EXPECT_EQ(links.find(2, 0), 2u);
  EXPECT_EQ(links.find(2, 1), 3u);
  EXPECT_EQ(links.find(1, 0), LinkTable::kNoLink);
  EXPECT_EQ(links.find(0, 2), LinkTable::kNoLink);
  EXPECT_EQ(links.out_begin(1), links.out_end(1));  // group 1 sends nothing
  EXPECT_EQ(links.dst(links.find(2, 1)), 1u);
}

TEST(LinkTable, SlotsAreTheSendersDistinctPagesAscending) {
  const auto links = table_of(2, {{0, 1, 3, 7}, {0, 1, 1, 2}, {0, 1, 0, 7}, {0, 1, 2, 5}});
  const std::uint32_t link = links.find(0, 1);
  ASSERT_EQ(links.slot_count(link), 3u);
  EXPECT_EQ(links.edge_count(link), 4u);
  EXPECT_EQ(links.slot_page(link, 0), 2u);
  EXPECT_EQ(links.slot_page(link, 1), 5u);
  EXPECT_EQ(links.slot_page(link, 2), 7u);
  EXPECT_EQ(links.slot_of(link, 5), 1u);
  EXPECT_EQ(links.slot_of(link, 6), 3u);  // not a slot: one past the end
}

TEST(LinkTable, ReceiverSlotsTileEachDestinationsIncomingRange) {
  // Random cut edges among 7 groups; group 6 receives nothing.
  constexpr std::uint32_t kGroups = 7;
  util::Rng rng(23);
  std::vector<Cut> cuts;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::set<std::uint32_t>> pages;
  for (int e = 0; e < 400; ++e) {
    const auto src = static_cast<std::uint32_t>(rng.below(kGroups));
    const auto dst = static_cast<std::uint32_t>(rng.below(kGroups - 1));
    if (src == dst) continue;
    const auto to = static_cast<std::uint32_t>(rng.below(12));
    cuts.push_back({src, dst, static_cast<std::uint32_t>(rng.below(10)), to});
    pages[{src, dst}].insert(to);
  }
  const auto links = table_of(kGroups, cuts);
  ASSERT_EQ(links.num_links(), pages.size());

  EXPECT_EQ(links.recv_begin(0), 0u);
  std::size_t total = 0;
  for (std::uint32_t d = 0; d < kGroups; ++d) {
    // d's in-links, ascending link id = ascending source, tile its range.
    std::uint32_t next = links.recv_begin(d);
    std::uint32_t prev_src = 0;
    bool any = false;
    for (std::uint32_t src = 0; src < kGroups; ++src) {
      const std::uint32_t link = links.find(src, d);
      if (link == LinkTable::kNoLink) continue;
      if (any) {
        EXPECT_LT(prev_src, src);
      }
      prev_src = src;
      any = true;
      EXPECT_EQ(links.dst(link), d);
      EXPECT_EQ(links.recv_first(link), next) << src << " -> " << d;
      next = links.recv_first(link) + links.slot_count(link);
      EXPECT_LE(next, links.recv_end(d));
      // The range holds exactly the link's slots: its distinct pages.
      const auto& expected = pages.at({src, d});
      ASSERT_EQ(links.slot_count(link), expected.size());
      std::uint32_t slot = 0;
      for (const std::uint32_t page : expected) EXPECT_EQ(links.slot_page(link, slot++), page);
    }
    EXPECT_EQ(next, links.recv_end(d)) << "group " << d;
    if (d + 1 < kGroups) {
      EXPECT_EQ(links.recv_end(d), links.recv_begin(d + 1));
    }
    total += links.recv_end(d) - links.recv_begin(d);
  }
  EXPECT_EQ(links.recv_begin(kGroups - 1), links.recv_end(kGroups - 1));
  std::size_t slots = 0;
  for (const auto& [pair, set] : pages) slots += set.size();
  EXPECT_EQ(total, slots);
}

TEST(LinkTable, EqualPagesKeepTheReplayedSortOrder) {
  // 40 senders (star leaves, each α/1) into 3 receiver pages, wired in a
  // shuffled order. Y sums each page's edges in the order std::sort leaves
  // them when it sorts wiring positions by page — the bitwise contract.
  constexpr std::uint32_t kLeaves = 40;
  const auto g = test::star(static_cast<int>(kLeaves));
  std::vector<graph::PageId> leaves(kLeaves);
  std::iota(leaves.begin(), leaves.end(), 1);
  PageGroup sender(g, leaves, kAlpha);
  std::vector<std::uint32_t> wiring(kLeaves);
  std::iota(wiring.begin(), wiring.end(), 0);
  util::Rng rng(5);
  for (std::uint32_t i = kLeaves - 1; i > 0; --i) {
    std::swap(wiring[i], wiring[rng.below(i + 1)]);
  }
  std::vector<Cut> cuts;
  std::vector<std::uint32_t> keys;
  for (const std::uint32_t u : wiring) {
    cuts.push_back({1, 0, u, u % 3});
    keys.push_back(u % 3);
  }
  auto links = table_of(2, cuts);
  sender.attach_links(links, 1);
  std::vector<double> ranks(kLeaves);
  for (auto& r : ranks) r = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(-8.0, 8.0));
  sender.set_ranks(ranks);

  std::vector<std::uint32_t> order(kLeaves);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint32_t> stable = order;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  std::stable_sort(stable.begin(), stable.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  ASSERT_NE(order, stable) << "input does not exercise the unstable order";
  std::vector<double> expected(3, 0.0);
  for (const std::uint32_t i : order) {
    const std::uint32_t u = wiring[i];
    expected[keys[i]] += ranks[u] * sender.matrix().source_weights()[u];
  }
  YSlice y;
  sender.compute_y(links.find(1, 0), 0.0, y);
  ASSERT_EQ(y.values.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(y.values[s], expected[s]) << s;
}

/// Receiver for the slot-state tests: star(3)'s leaves have no links among
/// themselves, so after one sweep R(i) = β + X(i) exactly.
struct SlotRig {
  graph::WebGraph g = test::star(3);
  LinkTable links = table_of(2, {{1, 0, 0, 0}, {1, 0, 0, 1}, {1, 0, 0, 2}, {0, 1, 1, 0}});
  PageGroup receiver{g, {1, 2, 3}, kAlpha};
  std::uint32_t in = links.find(1, 0);
  std::uint32_t out = links.find(0, 1);

  SlotRig() { receiver.attach_links(links, 0); }

  /// Sweep once and compare X (= R − β) with `expected`.
  void expect_x(const std::vector<double>& expected) {
    receiver.sweep_once(pool());
    ASSERT_EQ(receiver.ranks().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(receiver.ranks()[i] - kBeta, expected[i], 1e-15) << "page " << i;
    }
  }
};

TEST(PageGroupSlots, ScaleReceivedTouchesOnlyReceivedSlots) {
  SlotRig rig;
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Entries{{0, 0.4}, {2, 0.8}}));
  rig.receiver.scale_received(/*source_group=*/1, 0.5);
  rig.expect_x({0.2, 0.0, 0.4});
  // Slot 1 was never received: its first value lands whole.
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Entries{{1, 0.6}}));
  rig.expect_x({0.2, 0.6, 0.4});
  rig.receiver.scale_received(/*source_group=*/0, 0.5);  // no link 0 -> 0
  rig.receiver.scale_received(/*source_group=*/7, 0.5);  // no such group
  rig.expect_x({0.2, 0.6, 0.4});
  EXPECT_THROW(rig.receiver.scale_received(1, 1.5), std::invalid_argument);
}

TEST(PageGroupSlots, MarkAllReceivedDirtyMarksExactlyReceivedSlots) {
  SlotRig rig;
  rig.receiver.sweep_once(pool());  // primes the frontier bitmaps
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Entries{{0, 0.0}, {2, 0.3}}));
  rig.receiver.sweep_once(pool());  // consumes the refresh's dirty marks
  ASSERT_FALSE(forcing_dirty(rig.receiver, 0));
  ASSERT_FALSE(forcing_dirty(rig.receiver, 2));
  rig.receiver.mark_all_received_dirty();
  // Slot 0 holds a received bitwise 0.0 — still received, still marked.
  EXPECT_TRUE(forcing_dirty(rig.receiver, 0));
  EXPECT_FALSE(forcing_dirty(rig.receiver, 1));
  EXPECT_TRUE(forcing_dirty(rig.receiver, 2));
}

TEST(PageGroupSlots, ResetStateClearsReceivedAndSentSlots) {
  SlotRig rig;
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Values{0.4, 0.6, 0.8}));
  rig.expect_x({0.4, 0.6, 0.8});
  YSlice y;
  rig.receiver.compute_y(rig.out, 1e-3, y);
  ASSERT_EQ(y.entries.size(), 1u);  // never sent: included
  rig.receiver.commit_sent(rig.out, y);
  rig.receiver.compute_y(rig.out, 1e-3, y);
  EXPECT_TRUE(y.entries.empty());  // unchanged since the committed send

  rig.receiver.reset_state();
  rig.expect_x({0.0, 0.0, 0.0});
  rig.receiver.sweep_once(pool());
  rig.receiver.mark_all_received_dirty();  // nothing left to mark
  for (std::uint32_t row = 0; row < 3; ++row) EXPECT_FALSE(forcing_dirty(rig.receiver, row));
  // A fresh value is not diffed against the wiped one.
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Entries{{1, 0.3}}));
  rig.expect_x({0.0, 0.3, 0.0});
  // The last-sent baseline is gone too: the next thresholded Y is complete.
  rig.receiver.compute_y(rig.out, 1e-3, y);
  EXPECT_EQ(y.entries.size(), 1u);
}

TEST(PageGroupSlots, RefreshRejectsMisfitSlicesWithoutApplying) {
  SlotRig rig;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(rig.receiver.refresh_x(rig.in, Values{0.1, 0.2, 0.3}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Values{0.5, 0.5}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Values{0.5, 0.5, 0.5, 0.5}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Values{0.5, nan, 0.5}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Values{inf, 0.5, 0.5}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Values{0.5, 0.5, -0.5}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Entries{{0, 0.5}, {3, 0.5}}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Entries{{1, 0.5}, {0, 0.5}}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Entries{{1, 0.5}, {1, 0.5}}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.in, Entries{{0, 0.5}, {1, nan}}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.out, Values{0.5}));  // not into this group
  EXPECT_FALSE(rig.receiver.refresh_x(rig.out, Entries{{0, 0.5}}));
  EXPECT_FALSE(rig.receiver.refresh_x(rig.links.num_links(), Values{0.5}));
  rig.expect_x({0.1, 0.2, 0.3});
}

TEST(PageGroupSlots, RefreshSlotsRejectsSlotsOutsideTheIncomingRange) {
  // The receiver (group 0) owns receiver slots [0, 3); slot 3 is group 1's.
  SlotRig rig;
  ASSERT_EQ(rig.links.recv_begin(0), 0u);
  ASSERT_EQ(rig.links.recv_end(0), 3u);
  const auto words = [](std::initializer_list<double> values) {
    std::vector<std::uint64_t> out;
    for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  const auto one = words({0.5});
  const auto three = words({0.1, 0.2, 0.3});
  EXPECT_FALSE(rig.receiver.refresh_slots({.first = 3, .slots = 1, .payload = one}));
  EXPECT_FALSE(rig.receiver.refresh_slots({.first = 1, .slots = 3, .payload = three}));
  EXPECT_FALSE(rig.receiver.refresh_slots(
      {.first = UINT32_MAX, .slots = 3, .payload = three}));  // wraps in 32 bits
  rig.expect_x({0.0, 0.0, 0.0});
  ASSERT_TRUE(rig.receiver.refresh_slots({.first = 0, .slots = 3, .payload = three}));
  rig.expect_x({0.1, 0.2, 0.3});
}

// --- Engine-level poisoned-slice guard --------------------------------------

TEST(EngineSliceGuard, MisfitSlicesAreCountedAndNeverApplied) {
  // Chain 0->1->2->3 split {0,1} | {2,3}: one link 0 -> 1 with one slot.
  const auto g = test::chain(4);
  const std::vector<std::uint32_t> assignment = {0, 0, 1, 1};
  EngineOptions o;
  o.alpha = kAlpha;
  o.seed = 11;
  const auto reference = open_system_reference(g, kAlpha, pool());
  DistributedRanking clean(g, assignment, 2, o, pool());
  DistributedRanking poisoned(g, assignment, 2, o, pool());
  clean.set_reference(reference);
  poisoned.set_reference(reference);

  poisoned.inject_slice(0, 1, slice_of(Values{1.0, 1.0}));  // too long
  poisoned.inject_slice(0, 1, slice_of(Entries{{1, 1.0}}));  // the link has only slot 0
  poisoned.inject_slice(0, 1, slice_of(Values{std::numeric_limits<double>::infinity()}));
  EXPECT_THROW(poisoned.inject_slice(1, 0, slice_of(Values{1.0})), std::invalid_argument);
  EXPECT_THROW(poisoned.inject_slice(0, 5, slice_of(Values{1.0})), std::invalid_argument);

  (void)clean.run(20.0, 20.0);
  (void)poisoned.run(20.0, 20.0);
  EXPECT_EQ(poisoned.slices_rejected(), 3u);
  EXPECT_EQ(clean.slices_rejected(), 0u);
  EXPECT_EQ(poisoned.global_ranks(), clean.global_ranks());
}

/// Group 0 = pages {0, 1}, group 1 = pages {2, 3, 4}, and one link 0 -> 1
/// with three slots (pages 2, 3, 4). Group 1 has no internal links, so one
/// step leaves R = β + X on it.
graph::WebGraph three_slot_link() {
  graph::GraphBuilder b;
  std::vector<graph::PageId> p;
  for (int i = 0; i < 5; ++i) p.push_back(b.add_page("s.edu/p" + std::to_string(i), "s.edu"));
  b.add_link(p[0], p[2]);
  b.add_link(p[0], p[3]);
  b.add_link(p[1], p[4]);
  b.add_link(p[1], p[0]);
  return std::move(b).build();
}

TEST(EngineSliceGuard, OneInboxAppliesGoodSlicesInArrivalOrderAndCountsBadOnes) {
  const auto g = three_slot_link();
  const std::vector<std::uint32_t> assignment = {0, 0, 1, 1, 1};
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.seed = 3;
  o.t1 = 1.0;  // each group steps about once per time unit
  o.t2 = 1.0;
  o.delivery_probability = 0.0;  // only injected slices reach group 1
  const auto reference = open_system_reference(g, kAlpha, pool());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<YSlice> good = {slice_of(Values{0.1, 0.2, 0.3}),
                                    slice_of(Entries{{1, 0.5}}),
                                    slice_of(Entries{{0, 0.8}, {2, 0.9}})};
  const std::vector<YSlice> bad = {
      slice_of(Entries{{0, 0.4}, {3, 0.4}}),  // slot == slot_count
      slice_of(Values{0.6, 0.6}),             // wrong length
      slice_of(Values{0.7, nan, 0.7}),
      slice_of(Entries{{1, -1.0}}),
      slice_of(Values{0.1, 0.1, -1.0}),
  };
  // Good and bad interleaved in one inbox.
  const auto inject = [&](DistributedRanking& sim) {
    sim.inject_slice(0, 1, good[0]);
    sim.inject_slice(0, 1, bad[0]);
    sim.inject_slice(0, 1, good[1]);
    sim.inject_slice(0, 1, bad[1]);
    sim.inject_slice(0, 1, bad[2]);
    sim.inject_slice(0, 1, good[2]);
    sim.inject_slice(0, 1, bad[3]);
    sim.inject_slice(0, 1, bad[4]);
  };
  const auto x_of = [&](const DistributedRanking& sim) {
    std::vector<double> x;
    for (const double r : sim.group(1).ranks()) x.push_back(r - kBeta);
    return x;
  };

  DistributedRanking mixed(g, assignment, 2, o, pool());
  mixed.set_reference(reference);
  inject(mixed);
  (void)mixed.run(3.0, 3.0);
  EXPECT_EQ(mixed.slices_rejected(), bad.size());
  // Arrival order: the last slice naming a slot wins.
  const std::vector<double> expected = {0.8, 0.5, 0.9};
  const auto x = x_of(mixed);
  ASSERT_EQ(x.size(), expected.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], expected[i], 1e-15) << i;

  // The refused slices touched nothing: the good ones alone give the same bits.
  DistributedRanking clean(g, assignment, 2, o, pool());
  clean.set_reference(reference);
  for (const YSlice& s : good) clean.inject_slice(0, 1, s);
  (void)clean.run(3.0, 3.0);
  EXPECT_EQ(clean.slices_rejected(), 0u);
  EXPECT_EQ(mixed.global_ranks(), clean.global_ranks());

  // The deliberately broken ranker drops its inbox unread: nothing applied,
  // nothing counted.
  o.fault_skip_refresh_group = 1;
  DistributedRanking skipping(g, assignment, 2, o, pool());
  skipping.set_reference(reference);
  inject(skipping);
  (void)skipping.run(3.0, 3.0);
  EXPECT_EQ(skipping.slices_rejected(), 0u);
  for (const double v : x_of(skipping)) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace p2prank::engine
