// Timing decorator for the serving sink. Every RankSnapshotSink method is
// forwarded to a serve::SnapshotStore, so the engine keeps its zero-copy
// publish_groups path; the decorator only adds a stopwatch around each
// publish and, after it, a fixed seeded batch of rank() / top_k() lookups on
// the freshly acquired snapshot (run on the simulation thread, inside the
// solve). This is the one file that follows the RankSnapshotSink interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/engine_types.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace e2ebench {

class TimedSink final : public p2prank::engine::RankSnapshotSink {
 public:
  /// The lookups' page ids are drawn from `seed`.
  TimedSink(p2prank::serve::SnapshotStore& store, std::uint64_t seed)
      : store_(store), rng_(seed) {}

  void publish(double time, std::span<const double> ranks,
               std::span<const std::uint32_t> assignment,
               std::uint32_t num_shards) override {
    const auto t0 = Clock::now();
    store_.publish(time, ranks, assignment, num_shards);
    publish_ns.push_back(ns_since(t0));
    run_queries();
  }

  void publish_groups(double time, std::span<const p2prank::engine::GroupCut> groups,
                      std::uint32_t num_pages, std::uint64_t ownership_version) override {
    const auto t0 = Clock::now();
    store_.publish_groups(time, groups, num_pages, ownership_version);
    publish_ns.push_back(ns_since(t0));
    run_queries();
  }

  void invalidate(double time) override { store_.invalidate(time); }

  std::vector<double> publish_ns;  ///< wall ns per forwarded publish
  std::vector<double> query_ns;    ///< wall ns per lookup (clock read included)
  double checksum = 0.0;           ///< keeps the lookups observable

 private:
  using Clock = std::chrono::steady_clock;
  /// rank() lookups, then top_k(10) lookups, after every publish.
  static constexpr std::uint32_t kPointLookups = 28;
  static constexpr std::uint32_t kTopkLookups = 4;

  static double ns_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  void run_queries() {
    const auto snap = store_.acquire();
    if (!snap || snap->num_pages() == 0) return;
    const auto n = static_cast<std::uint64_t>(snap->num_pages());
    for (std::uint32_t i = 0; i < kPointLookups + kTopkLookups; ++i) {
      const auto page = static_cast<std::uint32_t>(rng_.below(n));
      const auto t0 = Clock::now();
      if (i < kPointLookups) {
        checksum += snap->rank(page);
      } else {
        const auto top = snap->top_k(10);
        if (!top.empty()) checksum += top.front().rank;
      }
      query_ns.push_back(ns_since(t0));
    }
  }

  p2prank::serve::SnapshotStore& store_;
  p2prank::util::Rng rng_;
};

/// Publishes the engine's current state through `sink` `times` times, as the
/// engine's own publish path would (one cut per group, unchanged ownership).
/// Measures the serving layer on workloads whose solve has no sink.
inline void publish_probe(TimedSink& sink, const p2prank::engine::DistributedRanking& e,
                          int times) {
  std::vector<p2prank::engine::GroupCut> cuts;
  std::uint32_t pages = 0;
  for (std::uint32_t g = 0; g < e.num_groups(); ++g) {
    cuts.push_back({e.group(g).members(), e.group(g).ranks()});
    pages += static_cast<std::uint32_t>(e.group(g).size());
  }
  for (int i = 0; i < times; ++i) sink.publish_groups(e.now(), cuts, pages, 1);
}

}  // namespace e2ebench
