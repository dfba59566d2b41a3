// ScenarioRunner: drive DistributedRanking through a chaos Scenario and
// check invariants at every sample.
//
// The run has two phases. During the *active window* ([0, active_time]) the
// schedule's faults are injected at their virtual times while the
// InvariantChecker audits every sample. Then the runner lifts every fault —
// delivery probability back to 1, every paused group resumed — and demands
// *eventual convergence*: the relative error against the centralized fixed
// point must drop below tail_error_threshold within tail_max_time further
// virtual time units (the asynchronous-iteration convergence guarantee for
// loss-free tails). A run is clean iff no invariant fired and the tail
// converged.
//
// A mid-run kGraphUpdate rebuilds the engine on the mutated graph
// (warm-started via carry_ranks) and recomputes the reference; from that
// point the monotone/bound theorems no longer apply (the paper's Section
// 4.3 caveat) and only finiteness, counters, and tail convergence — against
// the *new* reference — are checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::obs {
class MetricsRegistry;
class Tracer;
}  // namespace p2prank::obs

namespace p2prank::check {

struct RunnerOptions {
  /// Virtual time between invariant samples.
  double sample_interval = 2.0;
  /// Relative error the loss-free tail must reach...
  double tail_error_threshold = 2e-6;
  /// ...within this much virtual time past the active window.
  double tail_max_time = 4000.0;
  /// Stop a run after this many violations (each sample adds at most one
  /// violation per invariant kind, so a broken run terminates quickly).
  std::size_t max_violations = 4;
  /// Chaos-harness self-test: deliberately break the engine (the largest
  /// group never refreshes X) — the checker MUST flag the run.
  bool break_skip_refresh = false;
  /// Recovery-harness self-test: the supervisor "forgets" its ledger update
  /// on rejoin — the ledger cross-check MUST flag the run (recovery
  /// scenarios only; a no-op otherwise).
  bool break_supervisor_ledger = false;
  /// Force every kGraphUpdate through the cold rebuild-then-warm-start path
  /// even when the delta qualifies for the incremental frontier carry
  /// (link-only, assignment unchanged). The determinism gates diff runs
  /// with this on and off: the two paths must produce bitwise-identical
  /// results.
  bool full_graph_rebuild = false;
  double alpha = 0.85;
  /// Optional observability sinks (DESIGN.md §11). Pure observation: a run
  /// with and without them produces bitwise-identical results. The runner
  /// forwards both into the engine it builds and additionally records the
  /// chaos schedule itself (fault ops as trace instants, op/sample counts).
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct ScenarioResult {
  std::vector<Violation> violations;
  bool converged = false;
  double final_error = 0.0;
  double end_time = 0.0;  ///< total virtual time simulated (across rebuilds)
  std::uint64_t samples_checked = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t retransmissions = 0;      ///< reliable mode only
  std::uint64_t duplicates_rejected = 0;  ///< stale slices the epoch filter ate
  std::uint64_t churn_events = 0;         ///< completed leave/join handoffs
  std::uint64_t partition_drops = 0;      ///< messages eaten by an active cut
  std::uint64_t frames_quarantined = 0;   ///< corrupt frames rejected at decode
  std::uint64_t evictions = 0;            ///< supervisor-driven (recovery mode)
  std::uint64_t rejoins = 0;              ///< supervisor-driven (recovery mode)

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// One log line: "ok ..." or "FAIL <invariant> ...".
  [[nodiscard]] std::string summary() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(util::ThreadPool& pool, RunnerOptions opts = {});

  /// Run one scenario start to finish. Deterministic: same scenario, same
  /// result. Throws std::invalid_argument on nonsensical scenarios (k = 0,
  /// t2 < t1, ...).
  [[nodiscard]] ScenarioResult run(const Scenario& s);

  [[nodiscard]] const RunnerOptions& options() const noexcept { return opts_; }

 private:
  util::ThreadPool& pool_;
  RunnerOptions opts_;
};

}  // namespace p2prank::check
