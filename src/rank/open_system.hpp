// GroupPageRank — Algorithm 2 of the paper: solve the open-system fixed
// point R = A·R + βE + X for one page group, where X is rank flowing in over
// afferent links and βE is the virtual-link rank source.
//
// Convergence is unconditional: the paper's Theorems 3.1–3.3 apply because
// ||A||_∞ ≤ α < 1 (see LinkMatrix::contraction_norm), and Theorem 3.3 makes
// ||R_{i+1} − R_i||_1 a sound termination test with a computable error bound.
#pragma once

#include <span>

#include "rank/link_matrix.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {

/// One Jacobi sweep: out = A·in + forcing. `forcing` is βE + X (the caller
/// composes it). in/out must not alias. Runs the fused contribution kernel
/// and returns the sweep's L1/L∞ residual for free; `scratch` carries the
/// contribution vector across calls (no per-sweep allocation).
SweepStats open_system_sweep(const LinkMatrix& A, std::span<const double> in,
                             std::span<double> out, std::span<const double> forcing,
                             SweepScratch& scratch, util::ThreadPool& pool);

/// Solve R = A·R + forcing from the given initial vector, iterating until
/// the L1 delta is <= opts.epsilon or max_iterations is hit. `initial` may
/// be empty (treated as the zero vector).
[[nodiscard]] SolveResult solve_open_system(const LinkMatrix& A,
                                            std::span<const double> forcing,
                                            std::span<const double> initial,
                                            const SolveOptions& opts,
                                            util::ThreadPool& pool);

/// Worklist variant of solve_open_system: iterates with the residual-driven
/// frontier kernel, carrying `state` across sweeps (and across calls, when
/// the caller reuses the same buffers). With wl.epsilon == 0 the iterate
/// sequence is bitwise-identical to solve_open_system; with wl.epsilon > 0
/// convergence is only accepted at a dense sweep (a confirmation sweep is
/// forced when a sparse residual first dips under opts.epsilon), so the
/// reported final_delta is always an exact residual.
[[nodiscard]] SolveResult solve_open_system_worklist(
    const LinkMatrix& A, std::span<const double> forcing,
    std::span<const double> initial, const SolveOptions& opts,
    const WorklistOptions& wl, WorklistState& state, util::ThreadPool& pool);

/// Convenience: uniform forcing βE with E(v) = e_value for all v, X = 0 —
/// the whole-crawl "centralized open-system" reference of Section 5 (what
/// distributed ranking must converge to).
[[nodiscard]] SolveResult solve_open_system_uniform(const LinkMatrix& A,
                                                    double e_value,
                                                    const SolveOptions& opts,
                                                    util::ThreadPool& pool);

/// A-priori error bound from Theorem 3.3: ||x* − x_m|| ≤ q/(1−q)·||x_m −
/// x_{m−1}|| with q = contraction norm. Returns that bound for a given
/// last delta.
[[nodiscard]] double theorem33_error_bound(double contraction_norm,
                                           double last_delta) noexcept;

}  // namespace p2prank::rank
