// Tests for the reliable exchange layer (src/transport/reliable.hpp wired
// through DistributedRanking): the stale-Y reordering hazard and its epoch
// fix, EngineOptions validation messages, retransmission vs fire-and-forget
// convergence on a lossy channel, ranker churn conservation, and
// suspicion-based failure detection under ack loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "transport/reliable.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr double kTol = 1e-9;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class ReliableFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(1500, 41)));
    reference_ = new std::vector<double>(
        open_system_reference(*graph_, kAlpha, pool()));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete graph_;
    reference_ = nullptr;
    graph_ = nullptr;
  }

  static std::vector<std::uint32_t> assignment(std::uint32_t k) {
    return partition::make_hash_url_partitioner()->partition(*graph_, k);
  }

  static graph::WebGraph* graph_;
  static std::vector<double>* reference_;
};

graph::WebGraph* ReliableFixture::graph_ = nullptr;
std::vector<double>* ReliableFixture::reference_ = nullptr;

// --- Satellite 1: the stale-Y reordering hazard -------------------------
//
// With jittered delivery latency and NO epochs, a delayed older Y slice can
// arrive after a newer one and silently replace the newer X entry — ranks
// regress between samples, breaking Thm 4.1 monotonicity from R0 = 0. The
// epoch filter rejects exactly those slices (counted in
// duplicates_rejected()), restoring monotone growth under the same channel.
EngineOptions jittery_options(bool epochs) {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 0.3;
  o.t2 = 0.6;
  o.delivery_latency = 0.2;
  o.latency_jitter = 4.0;  // >> inter-step wait: reorders are routine
  o.seed = 11;
  o.reliability.epochs = epochs;
  return o;
}

TEST_F(ReliableFixture, JitterWithoutEpochsBreaksMonotonicity) {
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, jittery_options(false), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(60.0, 1.0);
  double worst = 0.0;
  for (const Sample& s : samples) worst = std::min(worst, s.min_rank_delta);
  EXPECT_LT(worst, -kTol)
      << "stale reordered Y slices should have dragged some rank down";
  EXPECT_EQ(sim.duplicates_rejected(), 0u);  // no filter installed
}

TEST_F(ReliableFixture, EpochsRejectStaleSlicesAndRestoreMonotonicity) {
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, jittery_options(true), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(60.0, 1.0);
  for (const Sample& s : samples) {
    EXPECT_GE(s.min_rank_delta, -kTol) << "t=" << s.time;
  }
  // The channel really did reorder: the filter had stale slices to reject.
  EXPECT_GT(sim.duplicates_rejected(), 0u);
  EXPECT_EQ(sim.zombie_retransmits(), 0u);
  // Epoch high-water marks are populated and survive the whole run.
  std::uint64_t total_epochs = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 0; d < 4; ++d) total_epochs += sim.accepted_epoch(s, d);
  }
  EXPECT_GT(total_epochs, 0u);
}

// --- Satellite 2: EngineOptions validation ------------------------------

TEST_F(ReliableFixture, OptionValidationNamesTheBadField) {
  const auto a = assignment(4);
  const auto expect_invalid = [&](EngineOptions o, const std::string& field) {
    try {
      DistributedRanking sim(*graph_, a, 4, o, pool());
      FAIL() << "expected invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message was: " << e.what();
    }
  };
  EngineOptions base;
  base.alpha = kAlpha;

  auto o = base;
  o.alpha = 1.5;
  expect_invalid(o, "alpha");
  o = base;
  o.inner_epsilon = 0.0;
  expect_invalid(o, "inner_epsilon");
  o = base;
  o.delivery_probability = 1.5;
  expect_invalid(o, "delivery_probability");
  o = base;
  o.t1 = -1.0;
  expect_invalid(o, "t1");
  o = base;
  o.t1 = 5.0;
  o.t2 = 1.0;
  expect_invalid(o, "t2");
  o = base;
  o.delivery_latency = -0.1;
  expect_invalid(o, "delivery_latency");
  o = base;
  o.latency_jitter = -0.1;
  expect_invalid(o, "latency_jitter");
  o = base;
  o.stability_epsilon = -1.0;
  expect_invalid(o, "stability_epsilon");
  o = base;
  o.send_threshold = -1.0;
  expect_invalid(o, "send_threshold");
  o = base;
  o.reliability.ack_latency = -1.0;
  expect_invalid(o, "ack_latency");
  o = base;
  o.reliability.ack_delivery_probability = 1.5;
  expect_invalid(o, "ack_delivery_probability");
  o = base;
  o.reliability.rto_initial = 0.0;
  expect_invalid(o, "rto_initial");
  o = base;
  o.reliability.rto_backoff = 0.5;
  expect_invalid(o, "rto_backoff");
  o = base;
  o.reliability.rto_max = 0.5;  // < rto_initial (1.0)
  expect_invalid(o, "rto_max");
  o = base;
  o.reliability.rto_jitter = -1.0;
  expect_invalid(o, "rto_jitter");
  o = base;
  o.reliability.suspicion_after = 0;
  expect_invalid(o, "suspicion_after");
  o = base;
  o.reliability.suspect_decay = 2.0;
  expect_invalid(o, "suspect_decay");
}

TEST_F(ReliableFixture, RetransmitImpliesEpochs) {
  const auto a = assignment(4);
  EngineOptions o;
  o.alpha = kAlpha;
  o.delivery_probability = 0.5;
  o.reliability.retransmit = true;  // epochs left false on purpose
  DistributedRanking sim(*graph_, a, 4, o, pool());
  sim.set_reference(*reference_);
  (void)sim.run(20.0, 5.0);
  // The dup filter must be live: retransmits of delivered epochs land here.
  EXPECT_GT(sim.retransmissions(), 0u);
  EXPECT_EQ(sim.zombie_retransmits(), 0u);
}

// --- Satellite 3: lossy-channel convergence, reliable vs fire-and-forget -

EngineOptions lossy_options(bool reliable) {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.delivery_probability = 0.5;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 2024;
  o.reliability.retransmit = reliable;
  return o;
}

TEST_F(ReliableFixture, RetransmissionBeatsFireAndForgetAtHalfDelivery) {
  const auto a = assignment(4);

  DistributedRanking fire(*graph_, a, 4, lossy_options(false), pool());
  fire.set_reference(*reference_);
  const ConvergenceResult fr = fire.run_until_error(1e-7, 4000.0, 1.0);

  DistributedRanking rel(*graph_, a, 4, lossy_options(true), pool());
  rel.set_reference(*reference_);
  const ConvergenceResult rr = rel.run_until_error(1e-7, 4000.0, 1.0);

  ASSERT_TRUE(fr.reached) << "fire-and-forget never converged";
  ASSERT_TRUE(rr.reached) << "reliable never converged";
  EXPECT_LT(rr.time, fr.time)
      << "retransmission should recover lost slices faster than waiting for "
         "the next loop step";

  // Fire-and-forget reports no reliability traffic at all.
  EXPECT_EQ(fr.retransmissions, 0u);
  EXPECT_EQ(fr.acks_sent, 0u);
  EXPECT_EQ(fr.duplicates_rejected, 0u);
  EXPECT_EQ(fire.pending_retransmits(), 0u);

  // Reliable counters are populated and mutually consistent.
  EXPECT_GT(rr.retransmissions, 0u);
  EXPECT_GT(rr.acks_sent, 0u);
  EXPECT_LE(rr.retransmissions, rr.messages_sent);
  EXPECT_LE(rel.acks_delivered(), rel.acks_sent());
  EXPECT_EQ(rel.zombie_retransmits(), 0u);
}

// --- Ranker churn: leave/join conserve ownership and rank state ---------

TEST_F(ReliableFixture, LeaveAndJoinConservePagesAndRanks) {
  const auto a = assignment(4);
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.seed = 5;
  o.reliability.retransmit = true;
  DistributedRanking sim(*graph_, a, 4, o, pool());
  sim.set_reference(*reference_);
  (void)sim.run(20.0, 5.0);

  const std::vector<double> before = sim.global_ranks();
  sim.leave_group(1, 2);
  EXPECT_EQ(sim.churn_events(), 1u);
  std::vector<std::uint32_t> owners = sim.current_assignment();
  ASSERT_EQ(owners.size(), graph_->num_pages());
  for (std::size_t p = 0; p < owners.size(); ++p) {
    EXPECT_NE(owners[p], 1u) << "page " << p << " still owned by departed group";
    EXPECT_LT(owners[p], 4u);
  }
  // The checkpoint text round-trip (setprecision 17) is exact: the handoff
  // must not perturb a single rank bit.
  const std::vector<double> after_leave = sim.global_ranks();
  ASSERT_EQ(after_leave.size(), before.size());
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(after_leave[p], before[p]) << "page " << p;
  }

  sim.join_group(1, 2);  // the emptied slot rejoins, taking half of group 2
  EXPECT_EQ(sim.churn_events(), 2u);
  owners = sim.current_assignment();
  std::vector<std::size_t> sizes(4, 0);
  for (const std::uint32_t g : owners) {
    ASSERT_LT(g, 4u);
    ++sizes[g];
  }
  EXPECT_GT(sizes[1], 0u);
  EXPECT_GT(sizes[2], 0u);
  const std::vector<double> after_join = sim.global_ranks();
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(after_join[p], before[p]) << "page " << p;
  }

  // Consistency survives the churn pair: the engine still converges and the
  // pre-churn sub-fixed-point state keeps the monotone/bound theorems alive.
  const ConvergenceResult res = sim.run_until_error(1e-5, 2000.0, 1.0);
  EXPECT_TRUE(res.reached);
  EXPECT_EQ(sim.zombie_retransmits(), 0u);
}

TEST_F(ReliableFixture, ChurnArgumentErrors) {
  const auto a = assignment(4);
  EngineOptions o;
  o.alpha = kAlpha;
  DistributedRanking sim(*graph_, a, 4, o, pool());
  EXPECT_THROW(sim.leave_group(9, 0), std::out_of_range);
  EXPECT_THROW(sim.leave_group(0, 9), std::out_of_range);
  EXPECT_THROW(sim.leave_group(2, 2), std::invalid_argument);
  EXPECT_THROW(sim.join_group(0, 1), std::invalid_argument);  // 0 not empty
  sim.leave_group(3, 0);
  EXPECT_THROW(sim.leave_group(3, 0), std::invalid_argument);  // now empty
  EXPECT_THROW(sim.join_group(3, 3), std::invalid_argument);
}

// --- Pair-state continuity: slots outlive the wiring ---------------------
//
// The reliable layer keys its per-pair state by a stable slot, and the
// engine caches each link's slot. Churn rebuilds the link ids; the pair's
// epochs must carry over to the new wiring untouched.

TEST_F(ReliableFixture, LeaveThenRejoinKeepsPairEpochsAndAcceptsTheFirstSlice) {
  constexpr std::uint32_t kK = 4;
  constexpr std::uint32_t kMover = 1;
  const auto a = assignment(kK);
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 8;
  o.reliability.retransmit = true;  // p = 1, no jitter: never a duplicate
  DistributedRanking sim(*graph_, a, kK, o, pool());
  sim.set_reference(*reference_);
  (void)sim.run(10.0, 5.0);

  std::vector<std::uint64_t> before(kK, 0);
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d == kMover) continue;
    ASSERT_TRUE(sim.has_cut_edges(kMover, d)) << d;
    before[d] = sim.accepted_epoch(kMover, d);
    ASSERT_GT(before[d], 0u) << d;
  }

  // The mover departs: its pairs have no link in the new wiring.
  sim.leave_group(kMover, 2);
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d == kMover) continue;
    EXPECT_FALSE(sim.has_cut_edges(kMover, d)) << d;
    EXPECT_EQ(sim.accepted_epoch(kMover, d), before[d]) << d;
  }
  (void)sim.run(15.0, 5.0);

  // It rejoins with half of group 2's pages; some of its pairs come back.
  sim.join_group(kMover, 2);
  std::vector<std::uint32_t> back;
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d != kMover && sim.has_cut_edges(kMover, d)) back.push_back(d);
  }
  ASSERT_FALSE(back.empty());
  ASSERT_EQ(sim.duplicates_rejected(), 0u);

  // One loop step later every returning pair has accepted a fresh slice:
  // the sender's epochs continued past the receiver's high-water mark
  // instead of restarting below it.
  (void)sim.run(20.0, 5.0);
  EXPECT_EQ(sim.duplicates_rejected(), 0u);
  for (const std::uint32_t d : back) {
    EXPECT_GT(sim.accepted_epoch(kMover, d), before[d]) << "pair " << kMover << "->" << d;
  }
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d == kMover) continue;
    EXPECT_GE(sim.accepted_epoch(kMover, d), before[d]) << d;
  }
  EXPECT_EQ(sim.zombie_retransmits(), 0u);
}

TEST_F(ReliableFixture, CrashResetsOnlyTheCrashedSendersPairs) {
  constexpr std::uint32_t kK = 4;
  constexpr std::uint32_t kCrashed = 0;
  const auto a = assignment(kK);
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 9;
  o.reliability.retransmit = true;
  o.reliability.ack_delivery_probability = 0.0;  // every sent link stays pending
  DistributedRanking sim(*graph_, a, kK, o, pool());
  sim.set_reference(*reference_);
  (void)sim.run(5.0, 5.0);

  std::uint64_t crashed_links = 0;
  std::vector<std::uint64_t> epochs(kK, 0);
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d == kCrashed || !sim.has_cut_edges(kCrashed, d)) continue;
    ++crashed_links;
    epochs[d] = sim.accepted_epoch(kCrashed, d);
  }
  ASSERT_GT(crashed_links, 0u);
  const std::uint64_t pending = sim.pending_retransmits();
  ASSERT_GT(pending, crashed_links);  // other senders hold buffers too

  sim.crash_group(kCrashed);
  EXPECT_EQ(sim.pending_retransmits(), pending - crashed_links);

  // The crashed sender's epochs are session state: once it sends again its
  // slices are accepted above the old high-water marks.
  (void)sim.run(10.0, 5.0);
  for (std::uint32_t d = 0; d < kK; ++d) {
    if (d != kCrashed && sim.has_cut_edges(kCrashed, d)) {
      EXPECT_GT(sim.accepted_epoch(kCrashed, d), epochs[d]) << d;
    }
  }
  EXPECT_EQ(sim.zombie_retransmits(), 0u);
}

TEST(ReliablePairs, ResetSenderResetsOnlyThatSendersSlots) {
  transport::ReliableOptions ro;
  ro.suspicion_after = 2;
  transport::ReliableExchange rx(ro, 1);
  const auto out1 = rx.pair_slot(0, 1);
  const auto out2 = rx.pair_slot(0, 2);
  const auto in1 = rx.pair_slot(1, 0);
  const auto in2 = rx.pair_slot(2, 0);
  EXPECT_EQ(rx.pair_slot(0, 1), out1);  // slots are stable
  for (const auto slot : {out1, out2, in1, in2}) EXPECT_EQ(rx.begin_send(slot), 1u);
  // Suspect one pair on each side of the crash.
  for (const auto slot : {out1, in1}) {
    EXPECT_EQ(rx.on_timer(slot, 1), transport::ReliableExchange::TimerVerdict::kRetransmit);
    EXPECT_EQ(rx.on_timer(slot, 1), transport::ReliableExchange::TimerVerdict::kSuspectNow);
  }
  EXPECT_TRUE(rx.accept(out1, 1));
  ASSERT_EQ(rx.suspected_pairs(), 2u);
  ASSERT_EQ(rx.pending_pairs(), 4u);

  rx.reset_sender(0);
  EXPECT_EQ(rx.pending_epoch(out1), 0u);
  EXPECT_EQ(rx.pending_epoch(out2), 0u);
  EXPECT_FALSE(rx.suspected(0, 1));
  EXPECT_EQ(rx.pending_epoch(in1), 1u);
  EXPECT_EQ(rx.pending_epoch(in2), 1u);
  EXPECT_TRUE(rx.suspected(1, 0));
  EXPECT_EQ(rx.suspected_pairs(), 1u);
  EXPECT_EQ(rx.pending_pairs(), 2u);
  // Epochs survive the reset on both sides of the pair.
  EXPECT_EQ(rx.accepted_epoch(0, 1), 1u);
  EXPECT_EQ(rx.accepted_epoch(out1), 1u);
  EXPECT_EQ(rx.begin_send(out1), 2u);
  // A pair never seen reads as empty, without being assigned a slot.
  EXPECT_EQ(rx.accepted_epoch(3, 0), 0u);
  EXPECT_FALSE(rx.suspected(3, 0));
  EXPECT_EQ(rx.pair_slot(3, 0), 4u);
}

// --- Failure detection: a silent peer gets suspected, acks recover it ---
//
// Suspicion needs a pair with no evidence of life: an ack resets the
// attempt counter, and received data clears suspicion via peer_alive (a
// talking peer is alive even if its acks are lost). A one-directional cut
// (a chain split at the middle: only group 0 sends to group 1) removes the
// reverse keep-alive; lose every ack and pause the sender, and its pending
// epoch keeps timing out until the failure detector trips — and stays
// tripped.
TEST(ReliableSuspicion, SilentPeerGetsSuspectedAndAcksRecoverIt) {
  const graph::WebGraph g = test::chain(4);  // 0->1->2->3, one cut edge 1->2
  const std::vector<std::uint32_t> a = {0, 0, 1, 1};
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 3;
  o.reliability.retransmit = true;
  o.reliability.ack_delivery_probability = 0.0;  // acks never arrive
  o.reliability.rto_initial = 0.5;
  o.reliability.rto_max = 1.0;
  o.reliability.suspicion_after = 2;
  DistributedRanking sim(g, a, 2, o, pool());
  sim.set_reference(open_system_reference(g, kAlpha, pool()));
  (void)sim.run(5.0, 5.0);  // pair (0 -> 1) now holds an unacked epoch
  ASSERT_GT(sim.pending_retransmits(), 0u);
  EXPECT_GT(sim.acks_sent(), 0u);
  EXPECT_EQ(sim.acks_delivered(), 0u);

  sim.pause_group(0);  // no more fresh sends to reset the attempt counter
  (void)sim.run(25.0, 5.0);

  EXPECT_GT(sim.retransmissions(), 0u);
  EXPECT_GT(sim.suspicion_events(), 0u);
  EXPECT_GT(sim.suspected_pairs(), 0u);
  // Retransmits of already-delivered epochs bounce off the dup filter (a
  // paused ranker's transport still accepts and acks).
  EXPECT_GT(sim.duplicates_rejected(), 0u);
  EXPECT_EQ(sim.zombie_retransmits(), 0u);

  // Heal the ack channel and wake the sender: fresh sends double as probes,
  // their acks land, and the suspected pair recovers.
  sim.set_ack_delivery_probability(1.0);
  sim.resume_group(0);
  (void)sim.run(60.0, 10.0);
  EXPECT_GT(sim.acks_delivered(), 0u);
  EXPECT_EQ(sim.suspected_pairs(), 0u);
}

}  // namespace
}  // namespace p2prank::engine
