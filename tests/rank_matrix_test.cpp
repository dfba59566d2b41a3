#include "rank/link_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

constexpr double kAlpha = 0.85;

TEST(LinkMatrix, RejectsBadAlpha) {
  const auto g = test::two_cycle();
  EXPECT_THROW((void)LinkMatrix::from_graph(g, 0.0), std::invalid_argument);
  EXPECT_THROW((void)LinkMatrix::from_graph(g, 1.0), std::invalid_argument);
  EXPECT_THROW((void)LinkMatrix::from_graph(g, -0.5), std::invalid_argument);
}

TEST(LinkMatrix, TwoCycleWeights) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  ASSERT_EQ(m.dimension(), 2u);
  ASSERT_EQ(m.num_entries(), 2u);
  // Each page has exactly one in-edge of weight alpha / 1.
  for (std::size_t v = 0; v < 2; ++v) {
    ASSERT_EQ(m.row_sources(v).size(), 1u);
    EXPECT_DOUBLE_EQ(m.source_weights()[m.row_sources(v)[0]], kAlpha);
  }
}

TEST(LinkMatrix, WeightsUseGlobalOutDegreeIncludingExternal) {
  // a -> b plus one external link: weight must be alpha/2, not alpha/1.
  const auto g = test::leaky_pair();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto b = *g.find("s.edu/b");
  ASSERT_EQ(m.row_sources(b).size(), 1u);
  EXPECT_DOUBLE_EQ(m.source_weights()[m.row_sources(b)[0]], kAlpha / 2.0);
}

TEST(LinkMatrix, MultiplyMatchesManualComputation) {
  const auto g = test::star(3);
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  std::vector<double> x(m.dimension(), 1.0);
  std::vector<double> y(m.dimension(), -1.0);
  test::multiply_oracle(m, x, y);
  // Hub receives alpha from each of the 3 leaves; leaves receive nothing.
  const auto hub = *g.find("s.edu/hub");
  EXPECT_DOUBLE_EQ(y[hub], 3.0 * kAlpha);
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    if (v != hub) {
      EXPECT_DOUBLE_EQ(y[v], 0.0);
    }
  }
}

TEST(LinkMatrix, ParallelMultiplyMatchesSerial) {
  // The pooled sweep with no forcing is A·x: bitwise the serial product.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  util::ThreadPool pool(4);
  std::vector<double> x(m.dimension());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.1 + static_cast<double>(i % 7);
  std::vector<double> serial(m.dimension());
  std::vector<double> parallel(m.dimension());
  test::multiply_oracle(m, x, serial);
  SweepScratch scratch;
  (void)m.sweep_and_residual(x, parallel, {}, scratch, pool);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(LinkMatrix, ContractionNormBoundedByAlpha) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(5000, 3));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  EXPECT_LE(m.contraction_norm(), kAlpha + 1e-12);
  EXPECT_GT(m.contraction_norm(), 0.0);
}

TEST(LinkMatrix, ContractionNormStrictlyBelowAlphaWhenLeaky) {
  const auto g = test::leaky_pair();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  // Page a sends half its rank out of the crawl.
  EXPECT_DOUBLE_EQ(m.contraction_norm(), kAlpha / 2.0);
}

TEST(LinkMatrix, SubsetKeepsOnlyInternalEdges) {
  const auto g = test::chain(6);  // 0->1->2->3->4->5
  const std::vector<graph::PageId> left{0, 1, 2};
  const auto m = LinkMatrix::from_subset(g, left, kAlpha);
  ASSERT_EQ(m.dimension(), 3u);
  // Edges 0->1 and 1->2 are inside; 2->3 crosses out.
  EXPECT_EQ(m.num_entries(), 2u);
}

TEST(LinkMatrix, SubsetUsesGlobalDegrees) {
  const auto g = test::chain(4);  // every non-terminal page has out-degree 1
  const std::vector<graph::PageId> subset{1, 2};
  const auto m = LinkMatrix::from_subset(g, subset, kAlpha);
  // Edge 1->2: local row of page 2 is index 1, local source 0.
  ASSERT_EQ(m.row_sources(1).size(), 1u);
  EXPECT_DOUBLE_EQ(m.source_weights()[m.row_sources(1)[0]], kAlpha);
}

TEST(LinkMatrix, SubsetOfWholeGraphEqualsFromGraph) {
  const auto g = test::star(4);
  std::vector<graph::PageId> all(g.num_pages());
  for (graph::PageId p = 0; p < g.num_pages(); ++p) all[p] = p;
  const auto whole = LinkMatrix::from_graph(g, kAlpha);
  const auto sub = LinkMatrix::from_subset(g, all, kAlpha);
  ASSERT_EQ(whole.num_entries(), sub.num_entries());
  std::vector<double> x(g.num_pages(), 1.0);
  std::vector<double> y1(g.num_pages());
  std::vector<double> y2(g.num_pages());
  test::multiply_oracle(whole, x, y1);
  test::multiply_oracle(sub, x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(LinkMatrix, EmptySubset) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_subset(g, {}, kAlpha);
  EXPECT_EQ(m.dimension(), 0u);
  EXPECT_EQ(m.num_entries(), 0u);
}

}  // namespace
}  // namespace p2prank::rank
