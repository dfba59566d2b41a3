// Allocation regression test for the event-driven exchange path: once a
// reliable engine has reached steady state, scheduling and firing its
// events (loop steps, delayed deliveries, acks, retransmit timers) and the
// frame round-trip behind them must not touch the heap. The binary replaces
// global operator new with a counting one, so it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Every form is replaced, so a sanitizer's own allocator never sees one
// half of a pair.
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

/// Run `o` (plus corruption) on a 3000-page crawl over K=32 Pastry nodes
/// and assert that, after a warm-up, allocations stay at most 1% of the
/// events executed.
void expect_steady_state_allocation_free(EngineOptions o) {
  constexpr std::uint32_t kK = 32;
  const graph::WebGraph g =
      graph::generate_synthetic_web(graph::google2002_config(3000, 17));
  util::ThreadPool pool(1);
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, kK);
  overlay::PastryConfig cfg;
  cfg.num_nodes = kK;
  cfg.bits_per_digit = 4;
  cfg.seed = 5;
  const overlay::PastryOverlay pastry(cfg);
  o.overlay = &pastry;
  DistributedRanking sim(g, assignment, kK, o, pool);
  sim.set_corruption(0.01);
  sim.set_reference(open_system_reference(g, kAlpha, pool));

  // A negative threshold is never reached: each call runs to its max_time
  // with one error check per check interval. The warm-up grows the queue,
  // the slice pool, the inboxes and the scratch buffers to their working
  // sizes.
  constexpr double kWarmUp = 20.0;
  constexpr double kWindow = 40.0;
  (void)sim.run_until_error(-1.0, kWarmUp, kWarmUp);

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t allocations_before = g_allocations.load();
  (void)sim.run_until_error(-1.0, kWarmUp + kWindow, kWindow);
  const std::uint64_t allocations = g_allocations.load() - allocations_before;
  const std::uint64_t events = sim.events_executed() - events_before;

  // The window really exercised the lossy reliable path.
  EXPECT_GT(events, 20'000u);
  EXPECT_GT(sim.retransmissions(), 0u);
  EXPECT_GT(sim.acks_delivered(), 0u);
  EXPECT_GT(sim.frames_corrupted(), 0u);
  EXPECT_LE(allocations * 100, events)
      << allocations << " allocations over " << events << " events";
}

/// Every feature that puts events on the queue or bytes through the frame
/// codec: lossy data and acks, retransmit timers, jittered Pastry routes,
/// corruption, and delta slices committed on ack.
EngineOptions lossy_reliable(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.alpha = kAlpha;
  o.seed = 21;
  o.t1 = 0.5;
  o.t2 = 1.5;
  o.delivery_probability = 0.8;
  o.latency_jitter = 0.5;
  o.per_hop_latency = 0.5;
  // Small enough that slices keep flowing through the window.
  o.send_threshold = 1e-14;
  o.reliability.retransmit = true;
  return o;
}

TEST(EngineAllocations, SteadyStateEventsDoNotAllocate) {
  expect_steady_state_allocation_free(lossy_reliable(Algorithm::kDPR2));
}

TEST(EngineAllocations, Dpr1LoopStepsDoNotAllocate) {
  // DPR1's dense local solve iterates in place on the group's own pair.
  expect_steady_state_allocation_free(lossy_reliable(Algorithm::kDPR1));
}

}  // namespace
}  // namespace p2prank::engine
