#include "rank/link_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace p2prank::rank {

namespace {

void check_alpha(double alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("LinkMatrix: alpha must be in (0, 1)");
  }
}

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void LinkMatrix::finish_layout() {
  const std::size_t dim = dimension();
  out_offsets_.assign(dim + 1, 0);
  if (dim == 0) {
    sweep_grain_ = 64;
    return;
  }
  // Size grains to ~64KB of hot row data each: 12 bytes per edge (4B source
  // index + 8B contribution gather) plus the 8B y write per row. The grain
  // is a function of the matrix alone — never the pool — which fixes the FP
  // combine order of fused residual partials (determinism contract). Grains
  // are rounded up to a multiple of 64 rows so every grain owns whole words
  // of the worklist bitmaps (64 rows/word): no two grains ever write the
  // same dirty/differ word.
  constexpr std::size_t kGrainBytes = 64 * 1024;
  const std::size_t bytes = num_entries() * 12 + dim * 8;
  const std::size_t per_row = std::max<std::size_t>(1, bytes / dim);
  sweep_grain_ = std::clamp<std::size_t>(kGrainBytes / per_row, 1, dim);
  sweep_grain_ = (sweep_grain_ + 63) / 64 * 64;

  // Push CSR (the transpose: per source, its in-matrix destinations) via a
  // counting sort over the pull edges. Costs 4B/edge + 8B/row of memory and
  // one O(E) pass; the worklist kernel scatters frontier bits through it.
  for (const std::uint32_t u : sources_) ++out_offsets_[u + 1];
  for (std::size_t u = 0; u < dim; ++u) out_offsets_[u + 1] += out_offsets_[u];
  out_targets_.resize(sources_.size());
  std::vector<std::uint64_t> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (std::size_t v = 0; v < dim; ++v) {
    for (std::uint64_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      out_targets_[cursor[sources_[e]]++] = static_cast<std::uint32_t>(v);
    }
  }
}

LinkMatrix LinkMatrix::from_graph(const graph::WebGraph& g, double alpha) {
  check_alpha(alpha);
  const std::size_t n = g.num_pages();
  LinkMatrix m;
  m.alpha_ = alpha;
  m.offsets_.assign(n + 1, 0);
  // Per-source weight α/d_global(u): the weight of every edge out of u.
  m.source_weight_.resize(n);
  for (graph::PageId u = 0; u < n; ++u) {
    const auto d = g.out_degree(u);
    m.source_weight_[u] = d > 0 ? alpha / static_cast<double>(d) : 0.0;
  }
  for (graph::PageId v = 0; v < n; ++v) {
    m.offsets_[v + 1] = m.offsets_[v] + g.in_links(v).size();
  }
  m.sources_.resize(m.offsets_[n]);
  std::uint64_t pos = 0;
  for (graph::PageId v = 0; v < n; ++v) {
    for (const graph::PageId u : g.in_links(v)) m.sources_[pos++] = u;
  }
  m.finish_layout();
  return m;
}

LinkMatrix LinkMatrix::from_subset(const graph::WebGraph& g,
                                   std::span<const graph::PageId> pages,
                                   double alpha) {
  check_alpha(alpha);
  assert(std::is_sorted(pages.begin(), pages.end()));

  // Global -> local index. Pages are sorted, so membership is a binary
  // search; when the id range is tight, a dense table is cheaper still. No
  // hashing either way — this runs on every crash/rewire in the engine.
  const graph::PageId base = pages.empty() ? 0 : pages.front();
  const std::uint64_t range =
      pages.empty() ? 0
                    : static_cast<std::uint64_t>(pages.back()) - base + 1;
  const bool use_dense =
      !pages.empty() &&
      range <= std::max<std::uint64_t>(4096, 8 * static_cast<std::uint64_t>(pages.size()));
  std::vector<std::uint32_t> dense;
  if (use_dense) {
    dense.assign(range, kAbsent);
    for (std::uint32_t i = 0; i < pages.size(); ++i) dense[pages[i] - base] = i;
  }
  const auto local_of = [&](graph::PageId u) -> std::uint32_t {
    if (use_dense) {
      if (u < base || u - base >= range) return kAbsent;
      return dense[u - base];
    }
    const auto it = std::lower_bound(pages.begin(), pages.end(), u);
    if (it == pages.end() || *it != u) return kAbsent;
    return static_cast<std::uint32_t>(it - pages.begin());
  };

  LinkMatrix m;
  m.alpha_ = alpha;
  m.offsets_.assign(pages.size() + 1, 0);
  m.source_weight_.resize(pages.size());
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    const auto d = g.out_degree(pages[i]);
    m.source_weight_[i] = d > 0 ? alpha / static_cast<double>(d) : 0.0;
  }

  // Count in-subset in-edges per local destination.
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    std::uint64_t count = 0;
    for (const graph::PageId u : g.in_links(pages[i])) {
      if (local_of(u) != kAbsent) ++count;
    }
    m.offsets_[i + 1] = m.offsets_[i] + count;
  }
  m.sources_.resize(m.offsets_.back());
  std::uint64_t pos = 0;
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    for (const graph::PageId u : g.in_links(pages[i])) {
      const std::uint32_t local = local_of(u);
      if (local != kAbsent) m.sources_[pos++] = local;
    }
  }
  assert(pos == m.sources_.size());
  m.finish_layout();
  return m;
}

namespace {

// Both kernels accumulate rows with this exact two-lane pattern (even edges
// into lane 0, odd into lane 1, lanes combined once at the end). Two
// in-flight adds hide the FP-add latency that a single serial chain exposes
// on short rows, and sharing the pattern is what makes the dense and
// worklist kernels bitwise-identical.
inline double row_sum_contribution(const double* contrib, const std::uint32_t* sources,
                                   std::uint64_t begin, std::uint64_t end) noexcept {
  double acc0 = 0.0;
  double acc1 = 0.0;
  std::uint64_t e = begin;
  for (; e + 1 < end; e += 2) {
    acc0 += contrib[sources[e]];
    acc1 += contrib[sources[e + 1]];
  }
  if (e < end) acc0 += contrib[sources[e]];
  return acc0 + acc1;
}

}  // namespace

SweepStats LinkMatrix::sweep_and_residual(std::span<const double> in,
                                          std::span<double> out,
                                          std::span<const double> forcing,
                                          SweepScratch& scratch,
                                          util::ThreadPool& pool) const {
  const std::size_t dim = dimension();
  assert(in.size() == dim && out.size() == dim);
  assert(forcing.empty() || forcing.size() == dim);
  assert(in.data() != out.data());
  scratch.contrib.resize(dim);
  const std::size_t total = util::ThreadPool::num_grains(dim, sweep_grain_);
  scratch.partial_l1.assign(total, 0.0);
  scratch.partial_linf.assign(total, 0.0);

  double* const contrib = scratch.contrib.data();
  const double* const sw = source_weight_.data();
  pool.parallel_for(dim, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) contrib[u] = in[u] * sw[u];
  });

  const std::uint32_t* const sources = sources_.data();
  const double* const force = forcing.empty() ? nullptr : forcing.data();
  pool.parallel_for_grains(
      dim, sweep_grain_,
      [&](std::size_t grain, std::size_t begin, std::size_t end) {
        double l1 = 0.0;
        double linf = 0.0;
        for (std::size_t v = begin; v < end; ++v) {
          double acc =
              row_sum_contribution(contrib, sources, offsets_[v], offsets_[v + 1]);
          if (force != nullptr) acc += force[v];
          const double diff = std::fabs(acc - in[v]);
          l1 += diff;
          if (diff > linf) linf = diff;
          out[v] = acc;
        }
        scratch.partial_l1[grain] = l1;
        scratch.partial_linf[grain] = linf;
      });

  SweepStats stats;
  for (std::size_t g = 0; g < total; ++g) {
    stats.l1_delta += scratch.partial_l1[g];
    stats.linf_delta = std::max(stats.linf_delta, scratch.partial_linf[g]);
  }
  return stats;
}

namespace {

inline std::uint64_t bits_of(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

// Push–pull switch: scatter dirty bits along out-edges only while the
// changed sources' out-edges are at most this fraction of all edges; above
// it a dense pull sweep is cheaper than the scatter.
constexpr double kPushDensity = 0.125;

}  // namespace

SweepStats LinkMatrix::sweep_and_residual_worklist(std::span<const double> in,
                                                   std::span<double> out,
                                                   std::span<const double> forcing,
                                                   SweepScratch& scratch,
                                                   WorklistState& state,
                                                   util::ThreadPool& pool) const {
  const std::size_t dim = dimension();
  assert(in.size() == dim && out.size() == dim);
  assert(forcing.empty() || forcing.size() == dim);
  assert(in.data() != out.data());
  SweepStats stats;
  if (dim == 0) return stats;

  const std::size_t words = (dim + 63) / 64;
  const std::size_t total = util::ThreadPool::num_grains(dim, sweep_grain_);
  scratch.partial_l1.assign(total, 0.0);
  scratch.partial_linf.assign(total, 0.0);

  if (state.contrib.size() != dim || state.grain_edges.size() != total) {
    state.contrib.assign(dim, 0.0);
    state.differ.assign(words, 0);
    state.dirty.assign(words, 0);
    state.src_active.assign(words, 0);
    state.forcing_dirty.assign(words, 0);
    state.grain_edges.assign(total, 0);
    state.primed = false;
  }
  // The differ bitmap is a statement about one specific buffer pair; an
  // unfamiliar pair (fresh solve, reallocated vectors) forces a dense sweep.
  const bool pair_ok =
      (state.pair_a == in.data() && state.pair_b == out.data()) ||
      (state.pair_a == out.data() && state.pair_b == in.data());
  if (!pair_ok) {
    state.primed = false;
    state.pair_a = in.data();
    state.pair_b = out.data();
  }

  const double* const sw = source_weight_.data();
  const std::uint32_t* const sources = sources_.data();
  const double* const force = forcing.empty() ? nullptr : forcing.data();
  double* const contrib = state.contrib.data();
  std::uint64_t* const differ = state.differ.data();
  std::uint64_t* const dirty = state.dirty.data();
  std::uint64_t* const src_active = state.src_active.data();
  const std::uint64_t* const out_off = out_offsets_.data();

  bool dense = !state.primed;

  // A contracted frontier costs less to sweep than a fork-join wake-up, so
  // when the actual work (rows or edges, per the caller's hint) is below
  // the pool's inline cutoff, run the grain list serially in list order —
  // the same order as the pool's own inline path, hence bitwise-identical
  // results either way.
  const auto for_grains_subset = [&](std::uint64_t work_hint, auto&& fn) {
    if (work_hint <= util::ThreadPool::kInlineCutoff) {
      for (const std::uint32_t g : state.active_grains) {
        const std::size_t begin = g * sweep_grain_;
        fn(g, begin, std::min(dim, begin + sweep_grain_));
      }
      return;
    }
    pool.parallel_for_grains_subset(state.active_grains, dim, sweep_grain_, fn);
  };

  if (!dense) {
    // Phase A (frontier pull side): exactly the rows whose value changed
    // last sweep — the differ bits — can have a new contribution. Refresh
    // those lazily and tally the ones that changed bitwise. Grains are
    // 64-aligned, so each active grain owns whole bitmap words.
    std::fill(state.dirty.begin(), state.dirty.end(), 0);
    std::fill(state.src_active.begin(), state.src_active.end(), 0);
    std::fill(state.grain_edges.begin(), state.grain_edges.end(), 0);
    state.active_grains.clear();
    std::uint64_t differ_rows = 0;
    for (std::size_t g = 0; g < total; ++g) {
      const std::size_t w_begin = g * sweep_grain_ / 64;
      const std::size_t w_end =
          std::min(words, (std::min(dim, (g + 1) * sweep_grain_) + 63) / 64);
      std::uint64_t rows = 0;
      for (std::size_t w = w_begin; w < w_end; ++w) {
        rows += static_cast<std::uint64_t>(std::popcount(differ[w]));
      }
      if (rows != 0) {
        state.active_grains.push_back(static_cast<std::uint32_t>(g));
        differ_rows += rows;
      }
    }
    for_grains_subset(
        differ_rows,
        [&](std::size_t g, std::size_t begin, std::size_t end) {
          std::uint64_t edges = 0;
          const std::size_t w_begin = begin / 64;
          const std::size_t w_end = (end + 63) / 64;
          for (std::size_t w = w_begin; w < w_end; ++w) {
            std::uint64_t bits = differ[w];
            std::uint64_t active = 0;
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const std::size_t u = w * 64 + static_cast<std::size_t>(b);
              const double c = in[u] * sw[u];
              if (bits_of(c) != bits_of(contrib[u])) {
                contrib[u] = c;
                active |= std::uint64_t{1} << b;
                edges += out_off[u + 1] - out_off[u];
              }
            }
            src_active[w] = active;
          }
          state.grain_edges[g] = edges;
        });

    // Push–pull switch (beedrill hybrid_bfs idiom): integer tallies combined
    // in grain order, so the decision is pool-independent. A huge frontier
    // makes the scatter pointless — fall back to the dense pull sweep.
    std::uint64_t active_edges = 0;
    for (const std::uint32_t g : state.active_grains) {
      active_edges += state.grain_edges[g];
    }
    if (static_cast<double>(active_edges) >
        kPushDensity * static_cast<double>(num_entries())) {
      dense = true;
    } else {
      // Push phase: scatter dirty bits along out-edges of active sources.
      // fetch_or is idempotent, so racing scatters commute and the final
      // bitmap — all later phases' inputs — is deterministic.
      for_grains_subset(
          active_edges,
          [&](std::size_t /*g*/, std::size_t begin, std::size_t end) {
            const std::size_t w_begin = begin / 64;
            const std::size_t w_end = (end + 63) / 64;
            for (std::size_t w = w_begin; w < w_end; ++w) {
              std::uint64_t bits = src_active[w];
              while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const std::size_t u = w * 64 + static_cast<std::size_t>(b);
                for (std::uint64_t e = out_off[u]; e < out_off[u + 1]; ++e) {
                  const std::uint32_t t = out_targets_[e];
                  std::atomic_ref<std::uint64_t> word(dirty[t >> 6]);
                  word.fetch_or(std::uint64_t{1} << (t & 63),
                                std::memory_order_relaxed);
                }
              }
            }
          });
    }
  }

  if (!dense) {
    // Rows whose forcing changed must recompute even with a quiet frontier.
    std::uint64_t computed = 0;
    std::uint64_t copied = 0;
    for (std::size_t w = 0; w < words; ++w) {
      dirty[w] |= state.forcing_dirty[w];
      computed += static_cast<std::uint64_t>(std::popcount(dirty[w]));
      copied += static_cast<std::uint64_t>(std::popcount(differ[w] & ~dirty[w]));
    }
    state.active_grains.clear();
    for (std::size_t g = 0; g < total; ++g) {
      const std::size_t w_begin = g * sweep_grain_ / 64;
      const std::size_t w_end =
          std::min(words, (std::min(dim, (g + 1) * sweep_grain_) + 63) / 64);
      for (std::size_t w = w_begin; w < w_end; ++w) {
        if ((dirty[w] | differ[w]) != 0) {
          state.active_grains.push_back(static_cast<std::uint32_t>(g));
          break;
        }
      }
    }

    // Sparse sweep: recompute dirty rows, copy rows where the buffers still
    // disagree, skip the rest (their out already bitwise equals what a
    // recompute would produce — see DESIGN.md §6 for the induction). Skipped
    // rows have an exactly-zero residual, and partials of untouched grains
    // stay +0.0, so the grain-order combine is bitwise the dense combine.
    for_grains_subset(
        computed + copied,
        [&](std::size_t g, std::size_t begin, std::size_t end) {
          double l1 = 0.0;
          double linf = 0.0;
          const std::size_t w_begin = begin / 64;
          const std::size_t w_end = (end + 63) / 64;
          for (std::size_t w = w_begin; w < w_end; ++w) {
            const std::uint64_t recompute = dirty[w];
            const std::uint64_t carry = differ[w] & ~recompute;
            std::uint64_t changed = 0;
            std::uint64_t bits = recompute;
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const std::size_t v = w * 64 + static_cast<std::size_t>(b);
              double acc = row_sum_contribution(contrib, sources, offsets_[v],
                                                offsets_[v + 1]);
              if (force != nullptr) acc += force[v];
              const double diff = std::fabs(acc - in[v]);
              l1 += diff;
              if (diff > linf) linf = diff;
              out[v] = acc;
              if (bits_of(acc) != bits_of(in[v])) {
                changed |= std::uint64_t{1} << b;
              }
            }
            bits = carry;
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const std::size_t v = w * 64 + static_cast<std::size_t>(b);
              out[v] = in[v];
            }
            differ[w] = changed;
          }
          scratch.partial_l1[g] = l1;
          scratch.partial_linf[g] = linf;
        });

    state.rows_computed += computed;
    state.rows_copied += copied;
  } else {
    // Dense sweep: bitwise-identical row loop to sweep_and_residual, plus
    // refreshing every contribution and rebuilding the differ bitmap.
    pool.parallel_for(dim, [&](std::size_t begin, std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) contrib[u] = in[u] * sw[u];
    });
    pool.parallel_for_grains(
        dim, sweep_grain_,
        [&](std::size_t grain, std::size_t begin, std::size_t end) {
          double l1 = 0.0;
          double linf = 0.0;
          std::uint64_t changed = 0;
          for (std::size_t v = begin; v < end; ++v) {
            double acc = row_sum_contribution(contrib, sources, offsets_[v],
                                              offsets_[v + 1]);
            if (force != nullptr) acc += force[v];
            const double diff = std::fabs(acc - in[v]);
            l1 += diff;
            if (diff > linf) linf = diff;
            out[v] = acc;
            if (bits_of(acc) != bits_of(in[v])) {
              changed |= std::uint64_t{1} << (v & 63);
            }
            if ((v & 63) == 63 || v + 1 == end) {
              differ[v >> 6] = changed;
              changed = 0;
            }
          }
          scratch.partial_l1[grain] = l1;
          scratch.partial_linf[grain] = linf;
        });
    state.rows_computed += dim;
    ++state.dense_sweeps;
    state.primed = true;
  }

  ++state.sweeps;
  std::fill(state.forcing_dirty.begin(), state.forcing_dirty.end(), 0);
  for (std::size_t g = 0; g < total; ++g) {
    stats.l1_delta += scratch.partial_l1[g];
    stats.linf_delta = std::max(stats.linf_delta, scratch.partial_linf[g]);
  }
  return stats;
}

double LinkMatrix::contraction_norm() const noexcept {
  std::vector<double> out_weight(dimension(), 0.0);
  for (std::size_t e = 0; e < sources_.size(); ++e) {
    out_weight[sources_[e]] += source_weight_[sources_[e]];
  }
  double max_w = 0.0;
  for (const double w : out_weight) max_w = std::max(max_w, w);
  return max_w;
}

}  // namespace p2prank::rank
