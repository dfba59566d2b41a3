#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

EngineOptions engine_options() {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR1;
  o.alpha = kAlpha;
  o.seed = 4242;
  return o;
}

/// A deterministic link-only batch: one new link, one removal of an
/// existing link, one external bump. Always incremental-eligible.
std::vector<graph::LinkUpdate> link_only_batch(const graph::WebGraph& g) {
  std::vector<graph::LinkUpdate> ups;
  ups.push_back(graph::LinkUpdate::add_link(g.url(1), g.url(2)));
  for (graph::PageId u = 0; u < g.num_pages(); ++u) {
    const auto row = g.out_links(u);
    if (!row.empty()) {
      ups.push_back(graph::LinkUpdate::remove_link(g.url(u), g.url(row[0])));
      break;
    }
  }
  ups.push_back(graph::LinkUpdate::add_external(g.url(0)));
  return ups;
}

/// Run the incremental-vs-rebuild experiment on one thread pool and demand
/// bitwise-identical rank vectors (DESIGN.md §14's determinism contract).
void expect_incremental_matches_rebuild(std::size_t pool_threads) {
  util::ThreadPool pool(pool_threads);
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(2000, 77));
  const auto assignment =
      partition::make_hash_url_partitioner()->partition(g, 4);

  // Predecessor engine: run long enough for the worklist kernel to prime
  // and partially converge, then retire it.
  DistributedRanking sim0(g, assignment, 4, engine_options(), pool);
  sim0.set_reference(open_system_reference(g, kAlpha, pool));
  (void)sim0.run(30.0, 30.0);
  const auto ranks = sim0.global_ranks();
  auto carry = sim0.export_worklist_carry();
  // The test is vacuous if every group fell back to the dense path: demand
  // that the predecessor actually exported live frontiers.
  std::size_t valid_carries = 0;
  for (const auto& c : carry.groups) valid_carries += c.valid ? 1 : 0;
  ASSERT_GT(valid_carries, 0u);

  const auto delta = graph::apply_updates_delta(g, link_only_batch(g));
  ASSERT_TRUE(delta.incremental);
  const auto reference = open_system_reference(delta.graph, kAlpha, pool);

  DistributedRanking incremental(delta.graph, assignment, 4, engine_options(),
                                 pool);
  incremental.set_reference(reference);
  incremental.warm_start_incremental(ranks, std::move(carry), delta.in_changed,
                                     delta.degree_changed);
  (void)incremental.run(40.0, 40.0);

  DistributedRanking rebuild(delta.graph, assignment, 4, engine_options(),
                             pool);
  rebuild.set_reference(reference);
  rebuild.warm_start(ranks);
  (void)rebuild.run(40.0, 40.0);

  const auto ri = incremental.global_ranks();
  const auto rr = rebuild.global_ranks();
  ASSERT_EQ(ri.size(), rr.size());
  for (std::size_t p = 0; p < ri.size(); ++p) {
    ASSERT_EQ(ri[p], rr[p]) << "page " << p << " diverged (pool="
                            << pool_threads << ")";
  }
}

TEST(EngineIncremental, BitwiseIdenticalToRebuildPool1) {
  expect_incremental_matches_rebuild(1);
}

TEST(EngineIncremental, BitwiseIdenticalToRebuildPool2) {
  expect_incremental_matches_rebuild(2);
}

TEST(EngineIncremental, BitwiseIdenticalToRebuildPool8) {
  expect_incremental_matches_rebuild(8);
}

TEST(EngineIncremental, InvalidCarryFallsBackToDenseWarmStart) {
  util::ThreadPool pool(2);
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(1500, 13));
  const auto assignment =
      partition::make_hash_url_partitioner()->partition(g, 4);

  DistributedRanking sim0(g, assignment, 4, engine_options(), pool);
  sim0.set_reference(open_system_reference(g, kAlpha, pool));
  (void)sim0.run(20.0, 20.0);
  const auto ranks = sim0.global_ranks();

  const auto delta = graph::apply_updates_delta(g, link_only_batch(g));
  ASSERT_TRUE(delta.incremental);
  const auto reference = open_system_reference(delta.graph, kAlpha, pool);

  // An empty carry set must degrade to exactly the dense warm_start path.
  DistributedRanking degraded(delta.graph, assignment, 4, engine_options(),
                              pool);
  degraded.set_reference(reference);
  degraded.warm_start_incremental(ranks, DistributedRanking::WorklistCarrySet{},
                                  delta.in_changed, delta.degree_changed);
  (void)degraded.run(30.0, 30.0);

  DistributedRanking dense(delta.graph, assignment, 4, engine_options(),
                           pool);
  dense.set_reference(reference);
  dense.warm_start(ranks);
  (void)dense.run(30.0, 30.0);

  const auto ra = degraded.global_ranks();
  const auto rb = dense.global_ranks();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t p = 0; p < ra.size(); ++p) {
    ASSERT_EQ(ra[p], rb[p]) << "page " << p;
  }
}

TEST(EngineIncremental, SizeMismatchThrows) {
  util::ThreadPool pool(2);
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(500, 3));
  const auto assignment =
      partition::make_hash_url_partitioner()->partition(g, 2);
  DistributedRanking sim(g, assignment, 2, engine_options(), pool);
  std::vector<double> wrong(g.num_pages() + 1, 0.0);
  EXPECT_THROW(sim.warm_start_incremental(
                   wrong, DistributedRanking::WorklistCarrySet{}, {}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace p2prank::engine
