// Shared fixtures for the p2prank test suite: tiny graphs with known
// closed-form ranks, helpers for building crawls inline, and the edge-by-edge
// matrix product the sweep kernels are checked against.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/web_graph.hpp"
#include "rank/link_matrix.hpp"

namespace p2prank::test {

/// Two pages linking to each other, same site.
///   a <-> b
/// Open-system fixed point (E = 1): R = β + α·R  =>  R(a) = R(b) = 1.
inline graph::WebGraph two_cycle() {
  graph::GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_link(c, a);
  return std::move(b).build();
}

/// Star: n leaves all pointing at one hub; hub dangling.
/// R(leaf) = β;  R(hub) = β + n·α·β.
inline graph::WebGraph star(int leaves) {
  graph::GraphBuilder b;
  const auto hub = b.add_page("s.edu/hub", "s.edu");
  for (int i = 0; i < leaves; ++i) {
    const auto leaf = b.add_page("s.edu/leaf" + std::to_string(i), "s.edu");
    b.add_link(leaf, hub);
  }
  return std::move(b).build();
}

/// Chain a0 -> a1 -> ... -> a_{n-1} across two sites (split at the middle).
inline graph::WebGraph chain(int n) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < n; ++i) {
    const std::string site = i < n / 2 ? "left.edu" : "right.edu";
    ids.push_back(b.add_page(site + "/p" + std::to_string(i), site));
  }
  for (int i = 0; i + 1 < n; ++i) b.add_link(ids[i], ids[i + 1]);
  return std::move(b).build();
}

/// A page with one internal and one external link: rank leaks.
///   a -> b (internal), a -> (uncrawled), b dangling.
inline graph::WebGraph leaky_pair() {
  graph::GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_external_link(a);
  return std::move(b).build();
}

/// y = A·x, edge by edge: in-edge u → v of row v adds x[u]·w(u), with w =
/// source_weights(). Even edges of a row go to one accumulator and odd edges
/// to another, summed once at the end — the sweep kernels' order, so they
/// must match this bit for bit. Single-threaded; the reference, not a kernel.
inline void multiply_oracle(const rank::LinkMatrix& m, std::span<const double> x,
                            std::span<double> y) {
  assert(x.size() == m.dimension() && y.size() == m.dimension());
  const auto w = m.source_weights();
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    const auto src = m.row_sources(v);
    double acc0 = 0.0;
    double acc1 = 0.0;
    std::size_t e = 0;
    for (; e + 1 < src.size(); e += 2) {
      acc0 += x[src[e]] * w[src[e]];
      acc1 += x[src[e + 1]] * w[src[e + 1]];
    }
    if (e < src.size()) acc0 += x[src[e]] * w[src[e]];
    y[v] = acc0 + acc1;
  }
}

}  // namespace p2prank::test
