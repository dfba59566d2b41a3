#include "rank/open_system.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace p2prank::rank {

SolveResult solve_open_system(const LinkMatrix& A, std::span<const double> forcing,
                              std::span<const double> initial,
                              const SolveOptions& opts, util::ThreadPool& pool) {
  const std::size_t n = A.dimension();
  if (forcing.size() != n) {
    throw std::invalid_argument("solve_open_system: forcing size mismatch");
  }
  if (!initial.empty() && initial.size() != n) {
    throw std::invalid_argument("solve_open_system: initial size mismatch");
  }

  SolveResult result;
  result.ranks.assign(initial.begin(), initial.end());
  if (result.ranks.empty()) result.ranks.assign(n, 0.0);
  std::vector<double> next(n, 0.0);
  SweepScratch scratch;

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // Fused sweep: the L1 residual is accumulated inside the sweep, so
    // there is no second full pass over R per iteration.
    const double delta =
        A.sweep_and_residual(result.ranks, next, forcing, scratch, pool).l1_delta;
    std::swap(result.ranks, next);
    ++result.iterations;
    result.final_delta = delta;
    if (opts.record_residuals) result.residual_history.push_back(delta);
    if (delta <= opts.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

SolveResult solve_open_system_uniform(const LinkMatrix& A, double e_value,
                                      const SolveOptions& opts,
                                      util::ThreadPool& pool) {
  // β comes from the matrix's α (the authoritative value) rather than from
  // opts, so a caller cannot desynchronize the two.
  const std::vector<double> forcing(A.dimension(), beta_of(A.alpha()) * e_value);
  return solve_open_system(A, forcing, {}, opts, pool);
}

double theorem33_error_bound(double contraction_norm, double last_delta) noexcept {
  if (contraction_norm >= 1.0) return std::numeric_limits<double>::infinity();
  return contraction_norm / (1.0 - contraction_norm) * last_delta;
}

}  // namespace p2prank::rank
