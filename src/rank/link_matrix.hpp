// The sparse iteration matrix A of the open-system model (Section 3):
// A(u,v) = α / d(u) for a link u -> v, 0 otherwise, restricted to a page
// subset. Stored pull-style (per destination, list of weighted sources) so a
// Jacobi sweep parallelizes over destinations with no write conflicts.
//
// d(u) is always the page's *global* out-degree (crawled + external
// targets): a link to an uncrawled page still divides u's rank, and the
// share it carries leaves the open system. Likewise, links from u to pages
// *outside the subset* are not rows of this matrix — their rank share exits
// the group and is the business of the efferent matrix (engine/).
//
// Every edge weight is just α/d(source), so no per-edge weight is stored: a
// sweep first forms the *contribution* vector contrib[u] = x[u]·(α/d(u)),
// then each row gathers contrib over its sources — 12 bytes/edge (4B source
// index + 8B gather). sweep_and_residual is the dense kernel and the
// bitwise reference; sweep_and_residual_worklist recomputes only the rows
// whose inputs moved and matches it bit for bit. See DESIGN.md
// "Kernel layout".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/web_graph.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {

/// Residual of one fused sweep: norms of (out − in), accumulated per grain
/// during the sweep and combined in grain order (deterministic).
struct SweepStats {
  double l1_delta = 0.0;
  double linf_delta = 0.0;
};

/// Reusable scratch for contribution sweeps; pass the same instance to
/// successive sweeps to amortize the allocations across iterations.
struct SweepScratch {
  std::vector<double> contrib;       // x[u]·α/d(u) per local source
  std::vector<double> partial_l1;    // per-grain residual partials
  std::vector<double> partial_linf;
};

/// Persistent frontier state for sweep_and_residual_worklist. Owned by the
/// caller (one per ping-pong buffer pair); reset() forces the next sweep
/// dense, which re-primes every derived bitmap. All bitmaps are 64 rows per
/// word, and sweep grains are 64-aligned so parallel grains own whole words.
struct WorklistState {
  /// Contribution x[u]·α/d(u) per source as of its last change: a source
  /// whose value changed bitwise refreshes it, and rows recompute by
  /// gathering these.
  std::vector<double> contrib;
  std::vector<std::uint64_t> differ;         // out-buffer != in-buffer, per row
  std::vector<std::uint64_t> dirty;          // rows to recompute (per-sweep scratch)
  std::vector<std::uint64_t> src_active;     // sources that propagated (scratch)
  std::vector<std::uint64_t> forcing_dirty;  // forcing[v] changed since last sweep
  std::vector<std::uint32_t> active_grains;  // frontier grain ids (scratch)
  std::vector<std::uint64_t> grain_edges;    // per-grain active out-edge tallies
  bool primed = false;
  // The buffer pair the differ bitmap talks about; a sweep on any other
  // pair auto-unprimes. std::swap of the vectors keeps the pointers valid.
  const void* pair_a = nullptr;
  const void* pair_b = nullptr;
  // Cumulative tallies, deterministic across pool sizes (derived from the
  // bitmaps, which depend only on the values swept).
  std::uint64_t sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t rows_computed = 0;
  std::uint64_t rows_copied = 0;

  /// Drop all frontier knowledge: the next sweep runs dense. Required after
  /// any out-of-band change to the rank buffers (warm start, checkpoint
  /// restore, group rebuild).
  void reset() noexcept {
    primed = false;
    pair_a = nullptr;
    pair_b = nullptr;
  }

  /// Record that forcing[row] changed, so the row must recompute next sweep
  /// even if no source moved. No-op while unprimed (a dense sweep is coming
  /// anyway, and the bitmaps may not be sized yet).
  void mark_forcing_dirty(std::size_t row) noexcept {
    if (!primed || (row >> 6) >= forcing_dirty.size()) return;
    forcing_dirty[row >> 6] |= std::uint64_t{1} << (row & 63);
  }
};

class LinkMatrix {
 public:
  /// Matrix over the whole crawl.
  [[nodiscard]] static LinkMatrix from_graph(const graph::WebGraph& g, double alpha);

  /// Matrix over a subset of pages (ascending global PageIds). Only edges
  /// with both endpoints in the subset are kept.
  [[nodiscard]] static LinkMatrix from_subset(const graph::WebGraph& g,
                                              std::span<const graph::PageId> pages,
                                              double alpha);

  [[nodiscard]] std::size_t dimension() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_entries() const noexcept { return sources_.size(); }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Fused Jacobi sweep: out = A·in + forcing (forcing may be empty = zero),
  /// returning the L1/L∞ norms of (out − in) accumulated during the sweep —
  /// no second pass over the vectors. in/out must not alias. The residual is
  /// combined from per-grain partials in grain order, and grains depend only
  /// on the matrix, so the result (y *and* stats) is bitwise-deterministic
  /// across runs and pool sizes.
  SweepStats sweep_and_residual(std::span<const double> in, std::span<double> out,
                                std::span<const double> forcing,
                                SweepScratch& scratch, util::ThreadPool& pool) const;

  /// Residual-driven worklist sweep: like sweep_and_residual, but rows whose
  /// inputs are bitwise unchanged since they last recomputed are skipped
  /// (their value is carried over), and the dirty set is built by *pushing*
  /// along out-edges of the sources that changed instead of scanning all
  /// rows. Every sweep — values and residual — is bitwise-identical to
  /// sweep_and_residual for any pool size. It runs dense only while `state`
  /// is unprimed, or when the changed sources' out-edges exceed an eighth
  /// of all edges (then a pull sweep is cheaper than the scatter). `state`
  /// must persist alongside the in/out ping-pong pair; the kernel unprimes
  /// itself (one dense sweep) whenever it sees an unfamiliar pair.
  SweepStats sweep_and_residual_worklist(std::span<const double> in,
                                         std::span<double> out,
                                         std::span<const double> forcing,
                                         SweepScratch& scratch, WorklistState& state,
                                         util::ThreadPool& pool) const;

  /// Rows per parallel grain of sweep kernels (~64KB of row data each,
  /// rounded up to a multiple of 64 so each grain owns whole bitmap words);
  /// a function of the matrix shape only. Exposed for tests and sizing.
  [[nodiscard]] std::size_t sweep_grain() const noexcept { return sweep_grain_; }

  /// Out-edges of local source u (push CSR: the transpose adjacency used to
  /// scatter frontier bits). Exposed for tests.
  [[nodiscard]] std::span<const std::uint32_t> out_targets(std::size_t u) const noexcept {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// In-edges of local row v: the local source of each, in storage order.
  /// Edge u → v weighs source_weights()[u].
  [[nodiscard]] std::span<const std::uint32_t> row_sources(std::size_t v) const noexcept {
    return {sources_.data() + offsets_[v], sources_.data() + offsets_[v + 1]};
  }

  /// α/d_global(u) per local source u (0 for pages with no out-links): the
  /// weight of every in-matrix edge out of u, which the sweep kernels scale
  /// x by.
  [[nodiscard]] std::span<const double> source_weights() const noexcept {
    return source_weight_;
  }

  /// The paper's ||A||_∞ (source-major row sums): the maximum, over source
  /// pages, of the total weight that source contributes inside the matrix.
  /// This is the contraction bound of Theorems 3.1–3.3; it is ≤ α always,
  /// and < α for sources with links leaving the subset or the crawl.
  [[nodiscard]] double contraction_norm() const noexcept;

 private:
  LinkMatrix() = default;

  void finish_layout();

  std::vector<std::uint64_t> offsets_;       // size dim+1
  std::vector<std::uint32_t> sources_;       // local source index per entry
  std::vector<double> source_weight_;        // alpha / d_global(u), per local source
  std::vector<std::uint64_t> out_offsets_;   // push CSR: size dim+1
  std::vector<std::uint32_t> out_targets_;   // push CSR: destination per out-edge
  double alpha_ = 0.0;
  std::size_t sweep_grain_ = 1;              // rows per grain (fixed per matrix)
};

}  // namespace p2prank::rank
