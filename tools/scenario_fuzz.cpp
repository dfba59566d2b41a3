// scenario_fuzz — run seeded chaos scenarios against the distributed engine.
//
//   scenario_fuzz --seeds 200            # seeds 1..200, stop-on-violation off
//   scenario_fuzz --seed 17              # one seed, verbose
//   scenario_fuzz --seeds-file tests/corpus/scenario_seeds.txt
//   scenario_fuzz --replay trace.txt     # re-run a written trace
//   scenario_fuzz --seeds 50 --broken    # self-test: every run must FAIL
//   scenario_fuzz --seeds 100 --reliable # force the reliable exchange layer
//   scenario_fuzz --seeds 100 --full-rebuild # cold path for graph updates
//   scenario_fuzz --seeds 100 --serve    # attach the serving layer + probes
//   scenario_fuzz --seeds 100 --partition# recovery mode + guaranteed cut
//   scenario_fuzz --seeds 50 --partition --broken  # supervisor self-test:
//                                        # the rejoin ledger fault must be
//                                        # caught on every seed
//
// Each scenario expands a 64-bit seed into a fault schedule (crash / pause /
// resume / loss bursts / checkpoint save+restore / graph update / ranker
// churn / reorder + ack-loss bursts), drives
// DistributedRanking through it, and checks the paper's theorems as runtime
// invariants (see src/check/). On a violation the trace is minimized to a
// minimal reproducing op list and written to --trace-dir as a replayable
// file. Exit code: 0 all clean, 1 violations found, 2 usage error.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/minimize.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using p2prank::check::MinimizeResult;
using p2prank::check::Scenario;
using p2prank::check::ScenarioResult;
using p2prank::check::ScenarioRunner;

int usage(std::ostream& err) {
  err << "usage: scenario_fuzz [--seeds N] [--start S] [--seed X]\n"
         "                     [--seeds-file PATH] [--replay PATH]\n"
         "                     [--trace-dir DIR] [--broken] [--no-minimize]\n"
         "                     [--threads T] [--tail-time T] [--quiet]\n"
         "                     [--reliable] [--serve]\n"
         "                     [--partition] [--full-rebuild]\n"
         "  --reliable  force every scenario onto the reliable exchange\n"
         "              layer (epochs + retransmission + failure detection)\n"
         "  --full-rebuild\n"
         "              force every kGraphUpdate through the cold rebuild\n"
         "              path even when it qualifies for the incremental\n"
         "              frontier carry; the A/B twin of the default run\n"
         "              for the determinism gate (DESIGN.md §14)\n"
         "  --serve     attach a rank-serving snapshot store to every\n"
         "              scenario and probe the serving contract (snapshot\n"
         "              availability, epoch consistency/monotonicity,\n"
         "              top-K vs brute force, restore invalidation)\n"
         "  --partition force recovery mode (eviction/rejoin supervisor +\n"
         "              ledger cross-check) and guarantee every scenario a\n"
         "              partition episode and a corruption burst. With\n"
         "              --broken the supervisor's rejoin ledger update is\n"
         "              deliberately skipped and every run must FAIL.\n";
  return 2;
}

std::string scenario_label(const Scenario& s) {
  std::ostringstream out;
  out << (s.algorithm == p2prank::engine::Algorithm::kDPR1 ? "DPR1" : "DPR2")
      << " pages=" << s.pages << " k=" << s.k << " p=" << s.delivery_p
      << " ops=" << s.ops.size()
      << (s.warm_start_scale > 0.0 ? " warm" : "")
      << (s.reliable ? " reliable" : "")
      << (s.serve ? " serve" : "")
      << (s.recovery ? " recovery" : "")
      << (s.latency_jitter > 0.0 ? " jitter" : "");
  return out.str();
}

void write_trace(const std::string& dir, const Scenario& minimized,
                 const ScenarioResult& result, const Scenario& original,
                 std::ostream& log) {
  const std::string path =
      dir + "/scenario_" + std::to_string(original.origin_seed) + ".trace";
  std::ofstream out(path);
  if (!out) {
    log << "  (cannot write trace to " << path << ")\n";
    return;
  }
  out << "# minimized reproducing trace (original had " << original.ops.size()
      << " ops)\n";
  for (const auto& v : result.violations) {
    out << "# violation: " << v.invariant << " @t=" << v.time << " — "
        << v.detail << '\n';
  }
  minimized.serialize(out);
  log << "  trace written to " << path << '\n';
}

// --partition: force the scenario into recovery mode with a guaranteed
// partition episode (and a corruption burst) when its own schedule lacks
// them. In the --broken self-test the schedule is replaced outright by one
// hard cut + heal, sized so the supervisor must evict during the cut and
// rejoin after the heal on every seed — the skipped rejoin ledger update
// then trips the runner's cross-check. Everything derives from the
// scenario's own origin seed, so the forced episodes replay exactly.
void force_partition_episode(Scenario& s, bool broken) {
  using p2prank::check::OpKind;
  using p2prank::check::ScheduleOp;
  s.recovery = true;
  s.reliable = true;
  if (broken) {
    // A clean stage for the guaranteed evict→rejoin arc: scripted churn
    // could re-populate the evicted ranker (readmitting it without a
    // rejoin), and a graph update would replace the supervisor mid-arc.
    s.ops.clear();
    if (s.active_time < 80.0) s.active_time = 80.0;
  }
  bool has_cut = false;
  bool has_corrupt = false;
  for (const ScheduleOp& op : s.ops) {
    has_cut |= op.kind == OpKind::kPartition;
    has_corrupt |= op.kind == OpKind::kCorrupt;
  }
  if (!has_cut) {
    ScheduleOp cut;
    cut.kind = OpKind::kPartition;
    cut.time = broken ? 4.0 : s.active_time * 0.15;
    // Isolate one group behind a hard outbound-ack wall; odd seeds keep a
    // trickle inbound so the asymmetric-drop path is exercised too. The
    // self-test needs its evict→rejoin arc on EVERY seed, so there the cut
    // targets the busiest group (a seed-derived mask can land on a group no
    // traffic crosses — no suspicion, no eviction, no fault to catch).
    cut.seed = broken ? p2prank::check::kCutBusiestGroup
                      : std::uint64_t{1} << (s.origin_seed % s.k);
    cut.value = 0.0;
    cut.value2 = (s.origin_seed % 2 == 1 && !broken) ? 0.15 : 0.0;
    s.ops.push_back(cut);
    ScheduleOp heal;
    heal.kind = OpKind::kHeal;
    heal.time = s.active_time * (broken ? 0.6 : 0.65);
    s.ops.push_back(heal);
  }
  if (!has_corrupt && !broken) {
    ScheduleOp on;
    on.kind = OpKind::kCorrupt;
    on.time = s.active_time * 0.3;
    on.value = 0.25;
    s.ops.push_back(on);
    ScheduleOp off = on;
    off.time = s.active_time * 0.5;
    off.value = 0.0;
    s.ops.push_back(off);
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const ScheduleOp& a, const ScheduleOp& b) {
                     return a.time < b.time;
                   });
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::uint64_t num_seeds = 20;
  std::uint64_t start_seed = 1;
  std::optional<std::uint64_t> single_seed;
  std::string seeds_file;
  std::string replay_path;
  std::string trace_dir = ".";
  bool broken = false;
  bool minimize = true;
  bool quiet = false;
  bool force_reliable = false;
  bool force_serve = false;
  bool force_partition = false;
  std::size_t threads = 2;
  p2prank::check::RunnerOptions ropts;

  const auto need_value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) {
      std::cerr << "missing value for " << args[i] << '\n';
      std::exit(usage(std::cerr));
    }
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    try {
      if (a == "--seeds") {
        num_seeds = std::stoull(need_value(i));
      } else if (a == "--start") {
        start_seed = std::stoull(need_value(i));
      } else if (a == "--seed") {
        single_seed = std::stoull(need_value(i));
      } else if (a == "--seeds-file") {
        seeds_file = need_value(i);
      } else if (a == "--replay") {
        replay_path = need_value(i);
      } else if (a == "--trace-dir") {
        trace_dir = need_value(i);
      } else if (a == "--threads") {
        threads = std::stoul(need_value(i));
      } else if (a == "--tail-time") {
        ropts.tail_max_time = std::stod(need_value(i));
      } else if (a == "--broken") {
        broken = true;
      } else if (a == "--no-minimize") {
        minimize = false;
      } else if (a == "--reliable") {
        force_reliable = true;
      } else if (a == "--full-rebuild") {
        ropts.full_graph_rebuild = true;
      } else if (a == "--serve") {
        force_serve = true;
      } else if (a == "--partition") {
        force_partition = true;
      } else if (a == "--quiet") {
        quiet = true;
      } else {
        std::cerr << "unknown argument: " << a << '\n';
        return usage(std::cerr);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << a << '\n';
      return usage(std::cerr);
    }
  }
  // --broken alone breaks the engine (skip-refresh); with --partition it
  // breaks the *supervisor* instead (rejoin ledger fault) — each self-test
  // proves its own checker has teeth.
  ropts.break_skip_refresh = broken && !force_partition;
  ropts.break_supervisor_ledger = broken && force_partition;

  // Assemble the scenario list.
  std::vector<Scenario> scenarios;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::cerr << "cannot open trace " << replay_path << '\n';
      return 2;
    }
    try {
      scenarios.push_back(Scenario::parse(in));
    } catch (const std::exception& e) {
      std::cerr << "bad trace: " << e.what() << '\n';
      return 2;
    }
  } else if (!seeds_file.empty()) {
    std::ifstream in(seeds_file);
    if (!in) {
      std::cerr << "cannot open seeds file " << seeds_file << '\n';
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      scenarios.push_back(Scenario::from_seed(std::stoull(line)));
    }
  } else if (single_seed) {
    scenarios.push_back(Scenario::from_seed(*single_seed));
  } else {
    scenarios.reserve(num_seeds);
    for (std::uint64_t s = start_seed; s < start_seed + num_seeds; ++s) {
      scenarios.push_back(Scenario::from_seed(s));
    }
  }

  if (force_reliable) {
    for (Scenario& s : scenarios) s.reliable = true;
  }
  if (force_serve) {
    for (Scenario& s : scenarios) s.serve = true;
  }
  if (force_partition) {
    for (Scenario& s : scenarios) force_partition_episode(s, broken);
  }

  p2prank::util::ThreadPool pool(threads);
  ScenarioRunner runner(pool, ropts);
  p2prank::util::Stopwatch timer;
  std::size_t failures = 0;
  for (const Scenario& scenario : scenarios) {
    const ScenarioResult result = runner.run(scenario);
    const bool failed = !result.ok();
    if (failed) ++failures;
    if (!quiet || failed) {
      std::cout << "seed " << scenario.origin_seed << ": " << result.summary()
                << "  [" << scenario_label(scenario) << "]\n";
    }
    if (failed) {
      for (const auto& v : result.violations) {
        std::cout << "  violation: " << v.invariant << " @t=" << v.time
                  << " — " << v.detail << '\n';
      }
      Scenario to_write = scenario;
      if (minimize) {
        const MinimizeResult shrunk = p2prank::check::minimize_schedule(
            scenario,
            [&](const Scenario& cand) { return !runner.run(cand).ok(); });
        std::cout << "  minimized: " << scenario.ops.size() << " -> "
                  << shrunk.scenario.ops.size() << " ops ("
                  << shrunk.attempts << " replays"
                  << (shrunk.minimal ? ", 1-minimal" : "") << ")\n";
        to_write = shrunk.scenario;
      }
      write_trace(trace_dir, to_write, result, scenario, std::cout);
    }
  }
  std::cout << (broken ? "[self-test mode] " : "") << scenarios.size()
            << " scenario(s), " << failures << " violation(s), "
            << timer.elapsed_seconds() << " s\n";
  if (broken) {
    // Self-test: the deliberately broken engine must be caught every time.
    return failures == scenarios.size() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
