// Google-benchmark microbenchmarks for the hot paths: the SpMV rank sweep,
// whole-graph open-system solves, overlay routing, partitioning, and the
// indirect-transmission pack/unpack loop.
//
// Custom flags (stripped before google-benchmark sees argv):
//   --threads 1,2,8,16     register every pooled variant once per pool size
//                          (each run records a "pool_threads" counter)
//   --determinism-check [--pages N]
//                          no benchmarks: solve the N-page graph dense and
//                          with the worklist kernel on 1- and 2-thread
//                          pools and exit 0 iff all four rank vectors are
//                          bitwise identical (the tier-bench-smoke gate)
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/chord.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "rank/link_matrix.hpp"
#include "rank/open_system.hpp"
#include "transport/exchange.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace p2prank;

const graph::WebGraph& bench_graph() {
  static const graph::WebGraph g =
      graph::generate_synthetic_web(graph::google2002_config(50000, 42));
  return g;
}

// Hot-loop traffic per sweep (see DESIGN.md "Kernel layout" for the
// accounting): the contribution sweep streams 12 bytes/edge plus per-row
// vector traffic.
std::int64_t contribution_bytes(const rank::LinkMatrix& m) {
  return static_cast<std::int64_t>(m.num_entries()) * 12 +
         static_cast<std::int64_t>(m.dimension()) * 32;
}
std::int64_t fused_bytes(const rank::LinkMatrix& m) {
  return contribution_bytes(m) + static_cast<std::int64_t>(m.dimension()) * 16;
}

// The pooled sweep kernels are registered from main() — once per entry of
// the --threads list — so one binary invocation produces the whole thread
// scaling curve. Each takes its pool explicitly and records its size.
void BM_SpmvSweepFused(benchmark::State& state, util::ThreadPool& pool) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  std::vector<double> x(m.dimension(), 1.0);
  std::vector<double> y(m.dimension());
  const std::vector<double> forcing(m.dimension(), 0.15);
  rank::SweepScratch scratch;
  state.counters["pool_threads"] = static_cast<double>(pool.size());
  for (auto _ : state) {
    auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
    benchmark::DoNotOptimize(stats.l1_delta);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_entries()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fused_bytes(m));
}

// Worklist kernel, forced dense every sweep by reset(): the frontier
// machinery's overhead ceiling relative to BM_SpmvSweepFused.
void BM_WorklistDenseFull(benchmark::State& state, util::ThreadPool& pool) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  std::vector<double> x(m.dimension(), 1.0);
  std::vector<double> y(m.dimension());
  const std::vector<double> forcing(m.dimension(), 0.15);
  rank::SweepScratch scratch;
  rank::WorklistState wstate;
  state.counters["pool_threads"] = static_cast<double>(pool.size());
  for (auto _ : state) {
    wstate.reset();
    auto stats = m.sweep_and_residual_worklist(x, y, forcing, scratch, wstate, pool);
    benchmark::DoNotOptimize(stats.l1_delta);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_entries()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fused_bytes(m));
}

void BM_OpenSystemSolve(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  auto& pool = util::ThreadPool::shared();
  rank::SolveOptions opts;
  opts.epsilon = 1e-10;
  for (auto _ : state) {
    auto r = rank::solve_open_system_uniform(m, 1.0, opts, pool);
    benchmark::DoNotOptimize(r.ranks.data());
  }
}
BENCHMARK(BM_OpenSystemSolve)->Unit(benchmark::kMillisecond);

void BM_GraphGeneration(benchmark::State& state) {
  const auto pages = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto g = graph::generate_synthetic_web(graph::google2002_config(pages, 7));
    benchmark::DoNotOptimize(g.num_links());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * pages);
}
BENCHMARK(BM_GraphGeneration)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_PastryRoute(benchmark::State& state) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const overlay::PastryOverlay o(cfg);
  util::Rng rng(5);
  for (auto _ : state) {
    const auto from = static_cast<overlay::NodeIndex>(rng.below(cfg.num_nodes));
    auto path = o.route(from, overlay::node_id_from_u64(rng.next()));
    benchmark::DoNotOptimize(path.data());
  }
}
BENCHMARK(BM_PastryRoute)->Arg(1000)->Arg(10000);

void BM_ChordRoute(benchmark::State& state) {
  overlay::ChordConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const overlay::ChordOverlay o(cfg);
  util::Rng rng(5);
  for (auto _ : state) {
    const auto from = static_cast<overlay::NodeIndex>(rng.below(cfg.num_nodes));
    auto path = o.route(from, overlay::node_id_from_u64(rng.next()));
    benchmark::DoNotOptimize(path.data());
  }
}
BENCHMARK(BM_ChordRoute)->Arg(1000)->Arg(10000);

void BM_PastryBuild(benchmark::State& state) {
  for (auto _ : state) {
    overlay::PastryConfig cfg;
    cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
    cfg.seed = 9;
    const overlay::PastryOverlay o(cfg);
    benchmark::DoNotOptimize(o.num_nodes());
  }
}
BENCHMARK(BM_PastryBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_HashSitePartition(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto p = partition::make_hash_site_partitioner();
  for (auto _ : state) {
    auto assignment = p->partition(g, 64);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_pages()));
}
BENCHMARK(BM_HashSitePartition);

void BM_HashUrlPartition(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto p = partition::make_hash_url_partitioner();
  for (auto _ : state) {
    auto assignment = p->partition(g, 64);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_pages()));
}
BENCHMARK(BM_HashUrlPartition);

void BM_IndirectExchangeRound(benchmark::State& state) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 13;
  const overlay::PastryOverlay o(cfg);
  const auto demand = transport::ExchangeDemand::all_pairs(cfg.num_nodes, 2);
  for (auto _ : state) {
    auto report = transport::run_indirect_exchange(o, demand, {});
    benchmark::DoNotOptimize(report.records_delivered);
  }
}
BENCHMARK(BM_IndirectExchangeRound)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_CentralizedReference(benchmark::State& state) {
  const auto& g = bench_graph();
  auto& pool = util::ThreadPool::shared();
  for (auto _ : state) {
    auto r = engine::open_system_reference(g, 0.85, pool, 1e-10);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_CentralizedReference)->Unit(benchmark::kMillisecond);

// --- custom main: --threads sweep, --determinism-check ----------------------

/// Pools for the registered pooled benchmarks; they must outlive
/// RunSpecifiedBenchmarks. Size 0 means the shared hardware-sized pool.
util::ThreadPool& pool_for(unsigned threads) {
  if (threads == 0) return util::ThreadPool::shared();
  static std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(std::make_unique<util::ThreadPool>(threads));
  return *pools.back();
}

void register_pooled_benchmarks(const std::vector<unsigned>& thread_list) {
  for (const unsigned t : thread_list) {
    auto& pool = pool_for(t);
    const std::string suffix = "/threads:" + std::to_string(pool.size());
    const auto reg = [&](const char* name,
                         void (*fn)(benchmark::State&, util::ThreadPool&)) {
      benchmark::RegisterBenchmark(
          (name + suffix).c_str(),
          [fn, &pool](benchmark::State& state) { fn(state, pool); });
    };
    reg("BM_SpmvSweepFused", BM_SpmvSweepFused);
    reg("BM_WorklistDenseFull", BM_WorklistDenseFull);
  }
}

/// solve_open_system's loop, sweeping a ping-pong pair with the worklist
/// kernel; returns the final rank vector.
std::vector<double> worklist_solve(const rank::LinkMatrix& m,
                                   std::span<const double> forcing,
                                   const rank::SolveOptions& opts,
                                   util::ThreadPool& pool) {
  std::vector<double> cur(m.dimension(), 0.0);
  std::vector<double> nxt(m.dimension(), 0.0);
  rank::SweepScratch scratch;
  rank::WorklistState state;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    const double delta =
        m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool).l1_delta;
    std::swap(cur, nxt);
    if (delta <= opts.epsilon) break;
  }
  return cur;
}

/// Solve a small graph dense and with the worklist kernel on 1- and
/// 2-thread pools; exit 0 iff all rank vectors are bitwise identical.
/// This is the tier-bench-smoke CI gate — cheap enough for every PR.
int run_determinism_check(std::uint32_t pages) {
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(pages, 42));
  const auto m = rank::LinkMatrix::from_graph(g, 0.85);
  const std::vector<double> forcing(m.dimension(), (1.0 - 0.85) * 1.0);
  rank::SolveOptions sopts;
  sopts.epsilon = 1e-10;

  std::vector<std::vector<double>> solutions;
  std::vector<std::string> names;
  for (const unsigned threads : {1u, 2u}) {
    util::ThreadPool pool(threads);
    auto dense = rank::solve_open_system(m, forcing, {}, sopts, pool);
    solutions.push_back(std::move(dense.ranks));
    names.push_back("dense/t" + std::to_string(threads));
    solutions.push_back(worklist_solve(m, forcing, sopts, pool));
    names.push_back("worklist/t" + std::to_string(threads));
  }

  bool ok = true;
  for (std::size_t v = 1; v < solutions.size(); ++v) {
    if (std::memcmp(solutions[0].data(), solutions[v].data(),
                    solutions[0].size() * sizeof(double)) != 0) {
      std::cerr << "determinism-check: " << names[v]
                << " differs bitwise from " << names[0] << "\n";
      ok = false;
    }
  }
  std::cout << "determinism-check: " << pages << " pages, "
            << m.num_entries() << " edges, " << solutions.size()
            << " solves " << (ok ? "bitwise identical" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}

std::vector<unsigned> parse_thread_list(const std::string& spec) {
  std::vector<unsigned> out;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<unsigned>(std::stoul(item)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> thread_list;
  bool determinism_check = false;
  std::uint32_t det_pages = 2000;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      thread_list = parse_thread_list(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_list = parse_thread_list(arg.substr(std::strlen("--threads=")));
    } else if (arg == "--determinism-check") {
      determinism_check = true;
    } else if (arg == "--pages" && i + 1 < argc) {
      det_pages = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (determinism_check) return run_determinism_check(det_pages);

  if (thread_list.empty()) thread_list = {0};  // shared hardware-sized pool
  register_pooled_benchmarks(thread_list);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
