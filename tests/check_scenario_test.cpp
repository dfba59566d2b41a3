// Tier-2 tests for the chaos-scenario harness (src/check/): seed-to-schedule
// determinism, trace round-trips, the smoke corpus staying invariant-clean,
// the minimizer contract, and the checker self-test — a deliberately broken
// engine (one group never refreshes X) must be flagged and its schedule must
// minimize to a handful of ops.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/minimize.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

#ifndef P2PRANK_CORPUS_FILE
#error "P2PRANK_CORPUS_FILE must point at tests/corpus/scenario_seeds.txt"
#endif

namespace p2prank::check {
namespace {

util::ThreadPool& pool() {
  static util::ThreadPool p(2);
  return p;
}

std::vector<std::uint64_t> corpus_seeds() {
  std::ifstream in(P2PRANK_CORPUS_FILE);
  EXPECT_TRUE(in.is_open()) << "missing corpus file " << P2PRANK_CORPUS_FILE;
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    seeds.push_back(std::stoull(line));  // stoull stops at inline comments
  }
  return seeds;
}

TEST(Scenario, FromSeedIsDeterministic) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const Scenario a = Scenario::from_seed(seed);
    const Scenario b = Scenario::from_seed(seed);
    EXPECT_EQ(a.to_text(), b.to_text()) << "seed " << seed;
  }
  EXPECT_NE(Scenario::from_seed(1).to_text(), Scenario::from_seed(2).to_text());
}

TEST(Scenario, ScheduleOpsAreTimeOrderedAndInWindow) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Scenario s = Scenario::from_seed(seed);
    double prev = 0.0;
    for (const ScheduleOp& op : s.ops) {
      EXPECT_GE(op.time, prev) << "seed " << seed;
      EXPECT_LE(op.time, s.active_time) << "seed " << seed;
      prev = op.time;
    }
  }
}

// Exhaustiveness matrix, leg three. tools/p2plint statically checks legs
// one and two (every op dispatched, every op emittable by from_seed); this
// closes the loop dynamically: every op kind must appear in the expanded
// schedule of at least one corpus seed, so the tier-2 gate *runs* each op
// rather than merely compiling its handler.
TEST(Scenario, CorpusOpCoverage) {
  constexpr OpKind kAll[] = {
      OpKind::kCrash,          OpKind::kPause,
      OpKind::kResume,         OpKind::kSetLoss,
      OpKind::kSaveCheckpoint, OpKind::kRestoreCheckpoint,
      OpKind::kGraphUpdate,    OpKind::kLeave,
      OpKind::kJoin,           OpKind::kSetAckLoss,
      OpKind::kSetJitter,      OpKind::kPartition,
      OpKind::kHeal,           OpKind::kCorrupt};
  std::set<OpKind> covered;
  for (const std::uint64_t seed : corpus_seeds()) {
    for (const ScheduleOp& op : Scenario::from_seed(seed).ops) {
      covered.insert(op.kind);
    }
  }
  for (const OpKind kind : kAll) {
    EXPECT_TRUE(covered.count(kind) > 0)
        << "no corpus seed emits " << op_kind_name(kind)
        << ": add a seed to tests/corpus/scenario_seeds.txt";
  }
}

TEST(Scenario, TraceRoundTripsThroughText) {
  for (const std::uint64_t seed : {3ULL, 19ULL, 28ULL, 130ULL}) {
    const Scenario s = Scenario::from_seed(seed);
    const Scenario back = Scenario::parse_text(s.to_text());
    EXPECT_EQ(s.to_text(), back.to_text()) << "seed " << seed;
  }
}

// The churn / reorder / ack-loss extension: new op kinds and the reliable /
// latency_jitter header keys survive the text round-trip, including the
// two-group payload of leave/join.
TEST(Scenario, ChurnAndReorderOpsRoundTrip) {
  Scenario s = Scenario::from_seed(13);
  s.reliable = true;
  s.latency_jitter = 0.75;
  s.ops.clear();
  s.ops.push_back({1.0, OpKind::kLeave, 2, 0, 0.0, 0});
  s.ops.push_back({2.0, OpKind::kJoin, 2, 1, 0.0, 0});
  s.ops.push_back({3.0, OpKind::kSetAckLoss, 0, 0, 0.4, 0});
  s.ops.push_back({4.0, OpKind::kSetAckLoss, 0, 0, -1.0, 0});
  s.ops.push_back({5.0, OpKind::kSetJitter, 0, 0, 1.25, 0});
  const Scenario back = Scenario::parse_text(s.to_text());
  EXPECT_EQ(back.to_text(), s.to_text());
  EXPECT_TRUE(back.reliable);
  EXPECT_DOUBLE_EQ(back.latency_jitter, 0.75);
  ASSERT_EQ(back.ops.size(), 5u);
  EXPECT_EQ(back.ops[0].kind, OpKind::kLeave);
  EXPECT_EQ(back.ops[0].group, 2u);
  EXPECT_EQ(back.ops[0].group2, 0u);
  EXPECT_EQ(back.ops[1].kind, OpKind::kJoin);
  EXPECT_EQ(back.ops[1].group2, 1u);
  EXPECT_DOUBLE_EQ(back.ops[3].value, -1.0);
  EXPECT_EQ(back.ops[4].kind, OpKind::kSetJitter);
}

// Traces written before the reliability extension lack the latency_jitter /
// reliable header keys — they must still parse, defaulting to the old
// fire-and-forget channel.
TEST(Scenario, PreReliabilityTracesParseWithDefaults) {
  Scenario s = Scenario::from_seed(13);
  s.reliable = false;
  s.latency_jitter = 0.0;
  std::string text = s.to_text();
  std::string pruned;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("latency_jitter ", 0) == 0) continue;
    if (line.rfind("reliable ", 0) == 0) continue;
    pruned += line + '\n';
  }
  const Scenario back = Scenario::parse_text(pruned);
  EXPECT_FALSE(back.reliable);
  EXPECT_DOUBLE_EQ(back.latency_jitter, 0.0);
  EXPECT_EQ(back.to_text(), text);
}

// Traces written while the engine had a dense and a worklist sweep path
// carry a `worklist 0|1` header line. It still parses (a malformed value is
// rejected) but selects nothing: both values replay to the same verdict, and
// the line is not written back.
TEST(Scenario, LegacyWorklistKeyParsesAndReplaysToTheSameVerdict) {
  const Scenario s = Scenario::from_seed(13);
  const std::string text = s.to_text();
  EXPECT_EQ(text.find("worklist"), std::string::npos);
  const auto with_key = [&](const std::string& value) {
    std::string out;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      out += line + '\n';
      if (line.rfind("reliable ", 0) == 0) out += "worklist " + value + '\n';
    }
    return out;
  };
  const Scenario off = Scenario::parse_text(with_key("0"));
  const Scenario on = Scenario::parse_text(with_key("1"));
  EXPECT_EQ(off.to_text(), text);
  EXPECT_EQ(on.to_text(), text);
  EXPECT_THROW((void)Scenario::parse_text(with_key("yes")), std::runtime_error);

  ScenarioRunner runner(pool(), RunnerOptions{});
  const ScenarioResult a = runner.run(off);
  const ScenarioResult b = runner.run(on);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.final_error, b.final_error);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

// Boolean header keys take exactly 0 or 1: `reliable 7` or `serve -2` is a
// corrupted trace, not a true flag. A later line overrides an earlier one,
// so appending a key sets it.
TEST(Scenario, BooleanKeysAcceptOnlyZeroOrOne) {
  const std::string text = Scenario::from_seed(13).to_text();
  for (const std::string key : {"reliable", "serve", "recovery", "worklist"}) {
    const auto with = [&](const std::string& value) {
      return text + key + ' ' + value + '\n';
    };
    for (const std::string bad : {"7", "-2", "2", "01", "yes", ""}) {
      EXPECT_THROW((void)Scenario::parse_text(with(bad)), std::runtime_error)
          << key << " '" << bad << "'";
    }
    EXPECT_NO_THROW((void)Scenario::parse_text(with("0"))) << key;
    EXPECT_NO_THROW((void)Scenario::parse_text(with("1"))) << key;
  }
  EXPECT_TRUE(Scenario::parse_text(text + "reliable 1\n").reliable);
  EXPECT_FALSE(Scenario::parse_text(text + "reliable 0\n").reliable);
  EXPECT_TRUE(Scenario::parse_text(text + "serve 1\n").serve);
  EXPECT_FALSE(Scenario::parse_text(text + "recovery 0\n").recovery);
}

// from_seed only pairs jitter with the reliable layer: jitter without epochs
// would make stale reordered slices clobber newer X entries, which is the
// hazard the regression test demonstrates — the fuzzer must not generate it
// as a "healthy" scenario.
TEST(Scenario, FromSeedNeverGeneratesJitterWithoutReliable) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Scenario s = Scenario::from_seed(seed);
    if (s.latency_jitter > 0.0) {
      EXPECT_TRUE(s.reliable) << "seed " << seed;
    }
    for (const ScheduleOp& op : s.ops) {
      if (op.kind == OpKind::kSetJitter && op.value > 0.0) {
        EXPECT_TRUE(s.reliable) << "seed " << seed;
      }
      if (op.kind == OpKind::kLeave || op.kind == OpKind::kJoin) {
        EXPECT_LT(op.group, s.k) << "seed " << seed;
        EXPECT_LT(op.group2, s.k) << "seed " << seed;
        EXPECT_NE(op.group, op.group2) << "seed " << seed;
      }
    }
  }
}

TEST(Scenario, ParseTolerlatesCommentsAndRejectsGarbage) {
  const Scenario s = Scenario::from_seed(7);
  // Written traces carry "# violation: ..." comment lines before the body.
  const std::string annotated =
      "# minimized reproducing trace\n# violation: monotone @t=3 — detail\n" +
      s.to_text();
  EXPECT_EQ(Scenario::parse_text(annotated).to_text(), s.to_text());
  EXPECT_THROW(Scenario::parse_text("pages banana\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse_text(s.to_text() + "op 1.0 frobnicate\n"),
               std::runtime_error);
}

// The acceptance gate: every corpus scenario — crashes, pauses, loss bursts,
// checkpoint round-trips, graph updates — runs with zero invariant
// violations and a converged loss-free tail.
TEST(SmokeCorpus, AllScenariosInvariantClean) {
  const auto seeds = corpus_seeds();
  ASSERT_GE(seeds.size(), 8u);
  ScenarioRunner runner(pool(), RunnerOptions{});
  for (const std::uint64_t seed : seeds) {
    const ScenarioResult result = runner.run(Scenario::from_seed(seed));
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": " << result.summary();
    EXPECT_TRUE(result.converged) << "seed " << seed << ": " << result.summary();
    EXPECT_GT(result.samples_checked, 0u);
  }
}

// Checker self-test: an engine where one group silently skips its afferent-X
// refresh must be caught (its ranks can never pick up remote contributions,
// so the loss-free tail cannot reach the centralized ranks), and the failing
// schedule must minimize to at most 8 ops while still reproducing.
TEST(SmokeCorpus, BrokenEngineIsCaughtAndMinimizes) {
  RunnerOptions opts;
  opts.break_skip_refresh = true;
  ScenarioRunner runner(pool(), opts);
  const Scenario scenario = Scenario::from_seed(2);
  const ScenarioResult result = runner.run(scenario);
  ASSERT_FALSE(result.ok()) << result.summary();

  const MinimizeResult shrunk = minimize_schedule(
      scenario, [&](const Scenario& cand) { return !runner.run(cand).ok(); });
  EXPECT_LE(shrunk.scenario.ops.size(), 8u);
  // Replaying the minimized trace (through the text format, like the CLI
  // does) still reproduces on the broken engine and is clean on the real one.
  const Scenario replay = Scenario::parse_text(shrunk.scenario.to_text());
  EXPECT_FALSE(runner.run(replay).ok());
  ScenarioRunner healthy(pool(), RunnerOptions{});
  EXPECT_TRUE(healthy.run(replay).ok());
}

TEST(Minimizer, ReducesToTheOneCulpritOp) {
  Scenario s = Scenario::from_seed(11);
  s.ops.clear();
  for (std::uint32_t i = 0; i < 9; ++i) {
    s.ops.push_back({2.0 * (i + 1), i == 5 ? OpKind::kCrash : OpKind::kPause,
                     i == 5 ? 2u : i, 0, 0.0, 0});
  }
  const auto fails = [](const Scenario& cand) {
    for (const ScheduleOp& op : cand.ops) {
      if (op.kind == OpKind::kCrash && op.group == 2) return true;
    }
    return false;
  };
  const MinimizeResult result = minimize_schedule(s, fails);
  ASSERT_EQ(result.scenario.ops.size(), 1u);
  EXPECT_EQ(result.scenario.ops[0].kind, OpKind::kCrash);
  EXPECT_EQ(result.scenario.ops[0].group, 2u);
  EXPECT_TRUE(result.minimal);
}

TEST(Minimizer, KeepsAPairThatMustCoOccur) {
  Scenario s = Scenario::from_seed(11);
  s.ops.clear();
  for (std::uint32_t i = 0; i < 12; ++i) {
    s.ops.push_back({1.0 * (i + 1), OpKind::kPause, i, 0, 0.0, 0});
  }
  const auto fails = [](const Scenario& cand) {
    bool a = false, b = false;
    for (const ScheduleOp& op : cand.ops) {
      a |= op.group == 3;
      b |= op.group == 9;
    }
    return a && b;
  };
  const MinimizeResult result = minimize_schedule(s, fails);
  ASSERT_EQ(result.scenario.ops.size(), 2u);
  EXPECT_EQ(result.scenario.ops[0].group, 3u);
  EXPECT_EQ(result.scenario.ops[1].group, 9u);
}

// A doctored reference (half the true fixed point) must trip the bound
// invariant — proves the checker actually compares against R*.
TEST(InvariantChecker, DoctoredReferenceTripsBound) {
  const graph::WebGraph g = test::two_cycle();
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, 2);
  engine::EngineOptions eo;
  eo.stability_epsilon = 0.0;
  engine::DistributedRanking sim(g, assignment, 2, eo, pool());
  std::vector<double> doctored =
      engine::open_system_reference(g, eo.alpha, pool());
  sim.set_reference(doctored);  // run() samples relative error against this
  for (double& r : doctored) r *= 0.5;
  InvariantChecker checker(sim, doctored, /*check_monotone=*/true,
                           /*check_bound=*/true,
                           /*expect_status_per_step=*/false);
  (void)sim.run(60.0, 60.0);
  std::vector<Violation> violations;
  checker.check_sample(violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "bound");
}

// Monotonicity dis-arms on a crash (a rebooted ranker's lowered Y sends
// legitimately drag peers down) and re-arms only on a restore from a
// checkpoint saved in a consistent phase.
TEST(InvariantChecker, CrashDisarmsMonotoneRestoreRearms) {
  const graph::WebGraph g = test::two_cycle();
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, 2);
  engine::EngineOptions eo;
  eo.stability_epsilon = 0.0;
  engine::DistributedRanking sim(g, assignment, 2, eo, pool());
  const auto reference = engine::open_system_reference(g, eo.alpha, pool());
  InvariantChecker checker(sim, reference, /*check_monotone=*/true,
                           /*check_bound=*/true,
                           /*expect_status_per_step=*/false);
  EXPECT_TRUE(checker.monotone_armed());
  checker.on_crash(0);
  EXPECT_FALSE(checker.monotone_armed());
  const std::vector<double> restored(g.num_pages(), 0.0);
  checker.on_restore(restored, /*consistent=*/false);
  EXPECT_FALSE(checker.monotone_armed());
  checker.on_restore(restored, /*consistent=*/true);
  EXPECT_TRUE(checker.monotone_armed());
}

}  // namespace
}  // namespace p2prank::check
