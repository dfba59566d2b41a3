// Determinism contract of the contribution-vector sweep kernels: the fused
// sweep+residual (with and without forcing) and the worklist kernel must
// produce bitwise-identical y — and identical residuals — to the serial
// edge-by-edge product (test::multiply_oracle), for any pool size, on
// adversarial shapes (empty rows, dangling-heavy graphs, 1-row and 0-row
// matrices).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "rank/link_matrix.hpp"
#include "rank/open_system.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

constexpr double kAlpha = 0.85;

std::vector<double> varied_x(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.25 + static_cast<double>(i % 11) * 0.37;
  }
  return x;
}

/// Many pages with no out-links at all (dangling) and a few heavy hubs:
/// most rows are empty, most sources are dangling.
graph::WebGraph dangling_heavy(int pages) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < pages; ++i) {
    ids.push_back(b.add_page("s.edu/p" + std::to_string(i), "s.edu"));
  }
  // Only pages 0 and 1 have out-links; everything else dangles.
  for (int i = 2; i < pages; ++i) {
    b.add_link(ids[0], ids[i]);
    if (i % 3 == 0) b.add_link(ids[1], ids[i]);
  }
  return std::move(b).build();
}

void expect_bitwise_equal(std::span<const double> got, std::span<const double> want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " index " << i;  // exact, not near
  }
}

void check_all_variants(const LinkMatrix& m) {
  const std::size_t n = m.dimension();
  const auto x = varied_x(n);
  std::vector<double> forcing(n);
  for (std::size_t i = 0; i < n; ++i) forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);

  // Reference: serial per-edge multiply, then the unfused forcing add.
  std::vector<double> y_ref(n, -1.0);
  test::multiply_oracle(m, x, y_ref);
  std::vector<double> y_forced_ref = y_ref;
  for (std::size_t i = 0; i < n; ++i) y_forced_ref[i] += forcing[i];
  const double l1_ref = util::l1_distance(y_forced_ref, x);

  SweepScratch scratch;
  std::vector<double> y(n, -2.0);
  SweepStats first_stats;
  bool have_stats = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "pool size " + std::to_string(threads);

    std::fill(y.begin(), y.end(), -5.0);
    const SweepStats stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
    expect_bitwise_equal(y, y_forced_ref, "fused sweep, " + label);
    if (!have_stats) {
      first_stats = stats;
      have_stats = true;
      // The grain-ordered combine is a different summation order than the
      // linear l1_distance pass, so compare with a tolerance once...
      EXPECT_NEAR(stats.l1_delta, l1_ref, 1e-9 * (1.0 + l1_ref));
    } else {
      // ...but across pool sizes the residual must be bitwise identical.
      EXPECT_EQ(stats.l1_delta, first_stats.l1_delta) << label;
      EXPECT_EQ(stats.linf_delta, first_stats.linf_delta) << label;
    }

    std::fill(y.begin(), y.end(), -6.0);
    const SweepStats no_forcing = m.sweep_and_residual(x, y, {}, scratch, pool);
    expect_bitwise_equal(y, y_ref, "fused sweep no forcing, " + label);
    (void)no_forcing;
  }

  // Same pool, repeated runs: identical results (no run-to-run drift).
  util::ThreadPool pool(4);
  std::vector<double> y2(n);
  const SweepStats a = m.sweep_and_residual(x, y, forcing, scratch, pool);
  const SweepStats b = m.sweep_and_residual(x, y2, forcing, scratch, pool);
  expect_bitwise_equal(y, y2, "repeated fused run");
  EXPECT_EQ(a.l1_delta, b.l1_delta);
  EXPECT_EQ(a.linf_delta, b.linf_delta);
}

TEST(RankSweep, SyntheticWebAllVariantsBitwiseIdentical) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  check_all_variants(LinkMatrix::from_graph(g, kAlpha));
}

TEST(RankSweep, EmptyRowsStarGraph) {
  // Star: every leaf row is empty (leaves have no in-links).
  check_all_variants(LinkMatrix::from_graph(test::star(50), kAlpha));
}

TEST(RankSweep, DanglingHeavyGraph) {
  check_all_variants(LinkMatrix::from_graph(dangling_heavy(500), kAlpha));
}

TEST(RankSweep, ChainGraph) {
  check_all_variants(LinkMatrix::from_graph(test::chain(97), kAlpha));
}

TEST(RankSweep, OneRowMatrix) {
  // Subset of a single page: dimension 1, zero entries.
  const auto g = test::chain(4);
  const std::vector<graph::PageId> subset{1};
  const auto m = LinkMatrix::from_subset(g, subset, kAlpha);
  ASSERT_EQ(m.dimension(), 1u);
  ASSERT_EQ(m.num_entries(), 0u);
  check_all_variants(m);

  // With forcing, y is exactly the forcing; the residual is |f - x|.
  SweepScratch scratch;
  util::ThreadPool pool(2);
  const std::vector<double> x{2.0};
  const std::vector<double> forcing{0.5};
  std::vector<double> y{-1.0};
  const auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
  EXPECT_EQ(y[0], 0.5);
  EXPECT_EQ(stats.l1_delta, 1.5);
  EXPECT_EQ(stats.linf_delta, 1.5);
}

TEST(RankSweep, EmptyMatrix) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_subset(g, {}, kAlpha);
  SweepScratch scratch;
  util::ThreadPool pool(2);
  const auto stats = m.sweep_and_residual({}, {}, {}, scratch, pool);
  EXPECT_EQ(stats.l1_delta, 0.0);
  EXPECT_EQ(stats.linf_delta, 0.0);
  std::vector<double> none;
  test::multiply_oracle(m, {}, none);
  WorklistState state;
  const auto wl = m.sweep_and_residual_worklist({}, none, {}, scratch, state, pool);
  EXPECT_EQ(wl.l1_delta, 0.0);
}

TEST(RankSweep, SubsetMatrixAllVariants) {
  // Exercise the from_subset layout (local indices) under every kernel.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  std::vector<graph::PageId> members;
  for (graph::PageId p = 0; p < g.num_pages(); p += 3) members.push_back(p);
  check_all_variants(LinkMatrix::from_subset(g, members, kAlpha));
}

TEST(RankSweep, SweepGrainIsMatrixDerived) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  EXPECT_GE(m.sweep_grain(), 1u);
  EXPECT_LE(m.sweep_grain(), m.dimension());
  // Grain count covers the dimension exactly.
  const std::size_t grains = util::ThreadPool::num_grains(m.dimension(), m.sweep_grain());
  EXPECT_GE(grains * m.sweep_grain(), m.dimension());
  EXPECT_LT((grains - 1) * m.sweep_grain(), m.dimension());
}

// --- Worklist / frontier kernel (DESIGN.md §6) -----------------------------

graph::WebGraph chain_graph(int pages, bool close_cycle) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < pages; ++i) {
    ids.push_back(b.add_page("c.edu/p" + std::to_string(i), "c.edu"));
  }
  for (int i = 0; i + 1 < pages; ++i) b.add_link(ids[i], ids[i + 1]);
  if (close_cycle) b.add_link(ids[pages - 1], ids[0]);
  return std::move(b).build();
}

/// Drive the dense and worklist kernels through the same ping-pong
/// iteration — including a mid-run forcing change — and require bitwise
/// identical values *and* residuals at every sweep, for pool sizes 1/2/8.
void check_worklist_matches_dense(const LinkMatrix& m, std::size_t sweeps) {
  const std::size_t n = m.dimension();
  std::vector<double> base_forcing(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
  }

  // Dense reference trajectory (serial — pool size is already covered by
  // check_all_variants for the dense kernel).
  std::vector<std::vector<double>> ref_y;
  std::vector<SweepStats> ref_stats;
  {
    util::ThreadPool ref_pool(1);
    SweepScratch ref_scratch;
    std::vector<double> cur = varied_x(n);
    std::vector<double> nxt(n, 0.0);
    std::vector<double> f = base_forcing;
    for (std::size_t s = 0; s < sweeps; ++s) {
      if (s == sweeps / 2 && n > 0) f[n / 2] += 0.25;
      ref_stats.push_back(m.sweep_and_residual(cur, nxt, f, ref_scratch, ref_pool));
      std::swap(cur, nxt);
      ref_y.push_back(cur);
    }
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "worklist pool size " + std::to_string(threads);
    WorklistState state;
    SweepScratch scratch;
    std::vector<double> cur = varied_x(n);
    std::vector<double> nxt(n, 0.0);
    std::vector<double> f = base_forcing;
    for (std::size_t s = 0; s < sweeps; ++s) {
      if (s == sweeps / 2 && n > 0) {
        f[n / 2] += 0.25;
        state.mark_forcing_dirty(n / 2);
      }
      const SweepStats stats =
          m.sweep_and_residual_worklist(cur, nxt, f, scratch, state, pool);
      std::swap(cur, nxt);
      expect_bitwise_equal(cur, ref_y[s], label + " sweep " + std::to_string(s));
      ASSERT_EQ(stats.l1_delta, ref_stats[s].l1_delta) << label << " sweep " << s;
      ASSERT_EQ(stats.linf_delta, ref_stats[s].linf_delta) << label << " sweep " << s;
    }
    EXPECT_EQ(state.sweeps, sweeps);
  }
}

TEST(RankSweep, WorklistMatchesDenseSyntheticWeb) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  check_worklist_matches_dense(LinkMatrix::from_graph(g, kAlpha), 20);
}

TEST(RankSweep, WorklistMatchesDenseDanglingHeavy) {
  // Most sources are dangling, so the frontier collapses within a few
  // sweeps and stays collapsed (pure sparse path).
  check_worklist_matches_dense(LinkMatrix::from_graph(dangling_heavy(500), kAlpha),
                               80);
}

TEST(RankSweep, WorklistMatchesDenseChain) {
  check_worklist_matches_dense(LinkMatrix::from_graph(test::chain(97), kAlpha), 150);
}

TEST(RankSweep, WorklistMatchesDenseStar) {
  check_worklist_matches_dense(LinkMatrix::from_graph(test::star(50), kAlpha), 30);
}

TEST(RankSweep, WorklistMatchesDenseSubset) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  std::vector<graph::PageId> members;
  for (graph::PageId p = 0; p < g.num_pages(); p += 3) members.push_back(p);
  check_worklist_matches_dense(LinkMatrix::from_subset(g, members, kAlpha), 30);
}

TEST(RankSweep, WorklistSinglePageFrontier) {
  const auto m = LinkMatrix::from_graph(dangling_heavy(400), kAlpha);
  const std::size_t n = m.dimension();
  std::vector<double> forcing(n, 0.15);
  WorklistState state;
  SweepScratch scratch;
  util::ThreadPool pool(2);
  std::vector<double> cur = varied_x(n);
  std::vector<double> nxt(n, 0.0);

  // Iterate to the exact (bitwise) fixed point; the frontier dies with it.
  std::size_t s = 0;
  for (; s < 2000; ++s) {
    const auto stats =
        m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
    std::swap(cur, nxt);
    if (stats.l1_delta == 0.0) break;
  }
  ASSERT_LT(s, 2000u) << "no exact fixed point reached";

  // At the fixed point a sweep computes no rows at all.
  const std::uint64_t settled = state.rows_computed;
  (void)m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
  std::swap(cur, nxt);
  EXPECT_EQ(state.rows_computed, settled);

  // Perturb a single page's forcing: exactly that one row recomputes.
  forcing[n - 1] += 0.5;
  state.mark_forcing_dirty(n - 1);
  const auto stats =
      m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
  std::swap(cur, nxt);
  EXPECT_EQ(state.rows_computed, settled + 1);
  EXPECT_NEAR(stats.l1_delta, 0.5, 1e-12);

  // From here the frontier regrows along out-edges only; values and
  // residuals must stay bitwise equal to a dense iteration.
  std::vector<double> dcur = cur;
  std::vector<double> dnxt(n, 0.0);
  SweepScratch dscratch;
  for (int k = 0; k < 10; ++k) {
    const auto ws =
        m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
    const auto ds = m.sweep_and_residual(dcur, dnxt, forcing, dscratch, pool);
    std::swap(cur, nxt);
    std::swap(dcur, dnxt);
    expect_bitwise_equal(cur, dcur, "post-perturb sweep " + std::to_string(k));
    ASSERT_EQ(ws.l1_delta, ds.l1_delta) << "post-perturb sweep " << k;
  }
}

TEST(RankSweep, WorklistFrontierRegrowsAfterGraphUpdate) {
  // Converge on a chain, then swap in a mutated graph (extra closing edge),
  // carrying the rank vector over — the engine's graph-update path. After
  // reset() the first sweep is dense and the trajectory on the new matrix
  // stays bitwise-identical to the dense kernel while the frontier regrows.
  const auto m1 = LinkMatrix::from_graph(chain_graph(60, false), kAlpha);
  const auto m2 = LinkMatrix::from_graph(chain_graph(60, true), kAlpha);
  const std::size_t n = m1.dimension();
  const std::vector<double> forcing(n, 0.15);
  WorklistState state;
  SweepScratch scratch;
  util::ThreadPool pool(2);
  std::vector<double> cur = varied_x(n);
  std::vector<double> nxt(n, 0.0);
  std::size_t s = 0;
  for (; s < 2000; ++s) {
    const auto stats =
        m1.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
    std::swap(cur, nxt);
    if (stats.l1_delta == 0.0) break;
  }
  ASSERT_LT(s, 2000u);

  state.reset();  // the graph changed under the frontier
  std::vector<double> dcur = cur;
  std::vector<double> dnxt(n, 0.0);
  SweepScratch dscratch;
  const std::uint64_t dense_before = state.dense_sweeps;
  for (int k = 0; k < 40; ++k) {
    const auto ws =
        m2.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool);
    const auto ds = m2.sweep_and_residual(dcur, dnxt, forcing, dscratch, pool);
    if (k == 0) {
      EXPECT_EQ(state.dense_sweeps, dense_before + 1);  // reset forces a dense re-prime
    }
    std::swap(cur, nxt);
    std::swap(dcur, dnxt);
    expect_bitwise_equal(cur, dcur, "post-update sweep " + std::to_string(k));
    ASSERT_EQ(ws.l1_delta, ds.l1_delta) << "post-update sweep " << k;
  }
}

TEST(RankSweep, WorklistSolveMatchesDenseSolve) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const std::size_t n = m.dimension();
  std::vector<double> forcing(n);
  for (std::size_t i = 0; i < n; ++i) {
    forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
  }
  SolveOptions opts;
  opts.alpha = kAlpha;
  opts.epsilon = 1e-10;

  util::ThreadPool ref_pool(1);
  const SolveResult dense = solve_open_system(m, forcing, {}, opts, ref_pool);
  ASSERT_TRUE(dense.converged);

  // solve_open_system's loop on a ping-pong pair, sweeping with the worklist
  // kernel: the iterate sequence, and so the solve, must match bit for bit.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    WorklistState state;
    SweepScratch scratch;
    std::vector<double> cur(n, 0.0);
    std::vector<double> nxt(n, 0.0);
    std::size_t iterations = 0;
    double delta = 0.0;
    while (iterations < opts.max_iterations) {
      delta = m.sweep_and_residual_worklist(cur, nxt, forcing, scratch, state, pool)
                  .l1_delta;
      std::swap(cur, nxt);
      ++iterations;
      if (delta <= opts.epsilon) break;
    }
    EXPECT_LE(delta, opts.epsilon) << threads;
    EXPECT_EQ(iterations, dense.iterations) << threads;
    EXPECT_EQ(delta, dense.final_delta) << threads;
    expect_bitwise_equal(cur, dense.ranks,
                         "worklist solve, pool " + std::to_string(threads));
  }
}

TEST(RankSweep, PushCsrMirrorsPullEdges) {
  // The push CSR (out_targets) must be the exact transpose of the pull CSR:
  // the scatter phase reaches a row iff some pull edge feeds it.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 9));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  std::vector<std::vector<std::uint32_t>> expect_targets(m.dimension());
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    for (const std::uint32_t u : m.row_sources(v)) {
      expect_targets[u].push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::size_t total = 0;
  for (std::size_t u = 0; u < m.dimension(); ++u) {
    const auto got = m.out_targets(u);
    ASSERT_EQ(got.size(), expect_targets[u].size()) << "source " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect_targets[u][i]) << "source " << u;
    }
    total += got.size();
  }
  EXPECT_EQ(total, m.num_entries());
}

TEST(RankSweep, SweepGrainIsWordAligned) {
  // Worklist bitmaps pack 64 rows per word; grains must own whole words.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  EXPECT_EQ(LinkMatrix::from_graph(g, kAlpha).sweep_grain() % 64, 0u);
  EXPECT_EQ(LinkMatrix::from_graph(test::chain(10), kAlpha).sweep_grain() % 64, 0u);
}

TEST(RankSweep, SourceWeightsMatchRowWeights) {
  // No per-edge weight is stored: row v's sources are exactly v's crawled
  // in-links, in order, and the weight of edge u -> v, source_weights()[u],
  // must be the same double as alpha / d_global(u).
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 9));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto sw = m.source_weights();
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    const auto src = m.row_sources(v);
    const auto in = g.in_links(static_cast<graph::PageId>(v));
    ASSERT_EQ(src.size(), in.size()) << "row " << v;
    for (std::size_t e = 0; e < src.size(); ++e) {
      ASSERT_EQ(src[e], in[e]) << "row " << v;
      ASSERT_EQ(sw[src[e]], kAlpha / static_cast<double>(g.out_degree(in[e])));
    }
  }
}

}  // namespace
}  // namespace p2prank::rank
