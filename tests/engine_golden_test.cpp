// Golden lock on the engine's observable results. Every scenario below pins
// the FNV-1a checksum of global_ranks() plus the traffic counters
// (messages_sent, records_sent, retransmit_records, acks_sent) to values
// recorded before the exchange path was flattened into the link table
// (DESIGN.md §15). Any change to the order in which X is updated, to the
// slot order of a link, or to the RNG draw sequence of the transport shows
// up here as a checksum or counter mismatch — on every pool size, because
// the results are pool-independent by contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr std::uint32_t kK = 12;

struct Observed {
  std::uint64_t checksum = 0;
  std::uint64_t messages = 0;
  std::uint64_t records = 0;
  std::uint64_t retransmit_records = 0;
  std::uint64_t acks = 0;
};

bool operator==(const Observed& a, const Observed& b) {
  return a.checksum == b.checksum && a.messages == b.messages &&
         a.records == b.records && a.retransmit_records == b.retransmit_records &&
         a.acks == b.acks;
}

std::ostream& operator<<(std::ostream& os, const Observed& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{0x%016llxULL, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(o.checksum),
                static_cast<unsigned long long>(o.messages),
                static_cast<unsigned long long>(o.records),
                static_cast<unsigned long long>(o.retransmit_records),
                static_cast<unsigned long long>(o.acks));
  return os << buf;
}

const graph::WebGraph& crawl() {
  static const auto g =
      graph::generate_synthetic_web(graph::google2002_config(1500, 31));
  return g;
}

const std::vector<std::uint32_t>& assignment() {
  static const auto a = partition::make_hash_url_partitioner()->partition(crawl(), kK);
  return a;
}

const std::vector<double>& reference() {
  static util::ThreadPool pool(1);
  static const auto r = open_system_reference(crawl(), kAlpha, pool);
  return r;
}

Observed observe(const DistributedRanking& sim) {
  const auto ranks = sim.global_ranks();
  const std::string_view bytes(reinterpret_cast<const char*>(ranks.data()),
                               ranks.size() * sizeof(double));
  return {util::fnv1a(bytes), sim.messages_sent(), sim.records_sent(),
          sim.retransmit_records(), sim.acks_sent()};
}

EngineOptions base(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.alpha = kAlpha;
  o.t1 = 0.5;
  o.t2 = 3.0;
  o.seed = 2024;
  return o;
}

/// Construct, run to t_end, observe. `during` runs between two halves of
/// the run (fault injection, churn).
template <typename During>
Observed run_engine(const EngineOptions& o, std::size_t threads, double t_end,
                    During during) {
  util::ThreadPool pool(threads);
  DistributedRanking sim(crawl(), assignment(), kK, o, pool);
  sim.set_reference(reference());
  (void)sim.run(t_end / 2, t_end / 2);
  during(sim);
  (void)sim.run(t_end, t_end / 2);
  return observe(sim);
}

Observed run_engine(const EngineOptions& o, std::size_t threads, double t_end) {
  return run_engine(o, threads, t_end, [](DistributedRanking&) {});
}

Observed dpr1_fire(std::size_t threads) {
  return run_engine(base(Algorithm::kDPR1), threads, 20.0);
}

Observed dpr2_fire(std::size_t threads) {
  return run_engine(base(Algorithm::kDPR2), threads, 20.0);
}

Observed dpr1_lossy(std::size_t threads) {
  auto o = base(Algorithm::kDPR1);
  o.delivery_probability = 0.8;
  o.delivery_latency = 0.4;
  return run_engine(o, threads, 20.0);
}

Observed dpr2_reliable_retransmit(std::size_t threads) {
  auto o = base(Algorithm::kDPR2);
  o.delivery_probability = 0.8;
  o.delivery_latency = 0.3;
  o.reliability.retransmit = true;
  return run_engine(o, threads, 20.0);
}

Observed dpr2_threshold_fire(std::size_t threads) {
  auto o = base(Algorithm::kDPR2);
  o.delivery_probability = 0.8;
  o.send_threshold = 1e-6;
  return run_engine(o, threads, 20.0);
}

Observed dpr1_threshold_reliable(std::size_t threads) {
  auto o = base(Algorithm::kDPR1);
  o.delivery_probability = 0.8;
  o.delivery_latency = 0.2;
  o.reliability.retransmit = true;
  o.send_threshold = 1e-7;
  return run_engine(o, threads, 20.0);
}

Observed dpr1_pastry_jitter(std::size_t threads) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = kK;
  cfg.leaf_set_size = 4;
  cfg.seed = 9;
  const overlay::PastryOverlay pastry(cfg);
  auto o = base(Algorithm::kDPR1);
  o.overlay = &pastry;
  o.per_hop_latency = 0.3;
  o.latency_jitter = 0.5;
  o.delivery_probability = 0.9;
  return run_engine(o, threads, 20.0);
}

Observed dpr1_corruption(std::size_t threads) {
  auto o = base(Algorithm::kDPR1);
  o.delivery_probability = 0.9;
  o.delivery_latency = 0.2;
  o.reliability.retransmit = true;
  return run_engine(o, threads, 20.0, [](DistributedRanking& sim) {
    sim.set_corruption(0.05);
  });
}

Observed dpr2_suspect_decay(std::size_t threads) {
  auto o = base(Algorithm::kDPR2);
  o.delivery_latency = 0.2;
  o.reliability.retransmit = true;
  o.reliability.rto_initial = 0.5;
  o.reliability.rto_max = 1.0;
  o.reliability.suspicion_after = 2;
  o.reliability.suspect_decay = 0.5;
  util::ThreadPool pool(threads);
  DistributedRanking sim(crawl(), assignment(), kK, o, pool);
  sim.set_reference(reference());
  (void)sim.run(8.0, 8.0);
  sim.set_partition(/*side_a_mask=*/0b11, 0.0, 0.0);  // groups 0,1 cut off
  (void)sim.run(16.0, 8.0);
  EXPECT_GT(sim.suspicion_events(), 0u) << "scenario must exercise decay";
  sim.heal_partition();
  (void)sim.run(24.0, 8.0);
  return observe(sim);
}

Observed dpr1_churn(std::size_t threads) {
  auto o = base(Algorithm::kDPR1);
  o.delivery_latency = 0.3;
  o.reliability.retransmit = true;
  o.delivery_probability = 0.9;
  util::ThreadPool pool(threads);
  DistributedRanking sim(crawl(), assignment(), kK, o, pool);
  sim.set_reference(reference());
  (void)sim.run(6.0, 6.0);
  sim.leave_group(3, 5);
  (void)sim.run(12.0, 6.0);
  sim.join_group(3, 7);
  (void)sim.run(18.0, 6.0);
  return observe(sim);
}

/// Crash, then leave and rejoin, between run segments: pins the frontier
/// reset rules (reset_state, group rebuilds) of the engine's sweep path.
Observed crash_churn(Algorithm algorithm, std::size_t threads) {
  util::ThreadPool pool(threads);
  DistributedRanking sim(crawl(), assignment(), kK, base(algorithm), pool);
  sim.set_reference(reference());
  (void)sim.run(25.0, 25.0);
  sim.crash_group(2);
  (void)sim.run(50.0, 25.0);
  sim.leave_group(3, 4);
  sim.join_group(3, 4);
  (void)sim.run(80.0, 30.0);
  return observe(sim);
}

Observed dpr1_crash_churn(std::size_t threads) {
  return crash_churn(Algorithm::kDPR1, threads);
}

Observed dpr2_crash_churn(std::size_t threads) {
  return crash_churn(Algorithm::kDPR2, threads);
}

Observed dpr1_warm_start_incremental(std::size_t threads) {
  const auto o = base(Algorithm::kDPR1);
  util::ThreadPool pool(threads);
  DistributedRanking sim0(crawl(), assignment(), kK, o, pool);
  sim0.set_reference(reference());
  (void)sim0.run(10.0, 10.0);
  std::vector<graph::LinkUpdate> ups;
  ups.push_back(graph::LinkUpdate::add_link(crawl().url(1), crawl().url(2)));
  ups.push_back(graph::LinkUpdate::add_external(crawl().url(0)));
  const auto delta = graph::apply_updates_delta(crawl(), ups);
  EXPECT_TRUE(delta.incremental);
  DistributedRanking sim(delta.graph, assignment(), kK, o, pool);
  sim.set_reference(open_system_reference(delta.graph, kAlpha, pool));
  sim.warm_start_incremental(sim0.global_ranks(), sim0.export_worklist_carry(),
                             delta.in_changed, delta.degree_changed);
  (void)sim.run(10.0, 10.0);
  return observe(sim);
}

/// Epochs without retransmission: the reliable path's eager commit (delta
/// sending commits on the loss draw, as fire-and-forget does), acks with no
/// pending buffer, and jitter-reordered slices that the epoch filter drops.
Observed dpr2_epochs_threshold_jitter(std::size_t threads) {
  auto o = base(Algorithm::kDPR2);
  o.delivery_probability = 0.8;
  o.delivery_latency = 0.3;
  o.latency_jitter = 0.4;
  o.reliability.epochs = true;
  o.send_threshold = 1e-6;
  return run_engine(o, threads, 20.0);
}

/// Corruption on the fire-and-forget channel: every delivered frame takes
/// the encode/corrupt/decode round-trip at epoch 0.
Observed dpr1_corruption_fire(std::size_t threads) {
  auto o = base(Algorithm::kDPR1);
  o.delivery_probability = 0.9;
  o.delivery_latency = 0.2;
  return run_engine(o, threads, 20.0, [](DistributedRanking& sim) {
    sim.set_corruption(0.05);
  });
}

struct Scenario {
  const char* name;
  Observed (*run)(std::size_t threads);
  Observed golden;
};

// Recorded on the pre-link-table engine (hash-URL partition of a 1500-page
// synthetic crawl into 12 groups). Do not re-record to make a change pass:
// a mismatch means the change altered results.
const Scenario kScenarios[] = {
    {"dpr1_fire", dpr1_fire,
     {0x9ac7572228ae3fceULL, 1617, 103972, 0, 0}},
    {"dpr2_fire", dpr2_fire,
     {0x6f15afcec833d479ULL, 1617, 103972, 0, 0}},
    {"dpr1_lossy", dpr1_lossy,
     {0x534e7e4001e99199ULL, 1617, 103972, 0, 0}},
    {"dpr2_reliable_retransmit", dpr2_reliable_retransmit,
     {0xd8f3edbab703c649ULL, 1880, 103972, 17301, 1487}},
    {"dpr2_threshold_fire", dpr2_threshold_fire,
     {0x4382d28e141ef89eULL, 1498, 47368, 0, 0}},
    {"dpr1_threshold_reliable", dpr1_threshold_reliable,
     {0xd44885e9d814cc3bULL, 1735, 49815, 9650, 1378}},
    {"dpr1_pastry_jitter", dpr1_pastry_jitter,
     {0xb33a45e723631300ULL, 1617, 103972, 0, 0}},
    {"dpr1_corruption", dpr1_corruption,
     {0x7e1bc593b875b2d0ULL, 1772, 103972, 10661, 1536}},
    {"dpr2_suspect_decay", dpr2_suspect_decay,
     {0x9db8224862d89be2ULL, 1983, 124721, 1954, 1722}},
    {"dpr1_churn", dpr1_churn,
     {0x0382b4020c428541ULL, 1476, 92093, 6482, 1239}},
    {"dpr1_warm_start_incremental", dpr1_warm_start_incremental,
     {0xca35f962e075dc45ULL, 814, 52644, 0, 0}},
    // Recorded on the dense sweep path, before the worklist kernel became
    // the engine's only one.
    {"dpr1_crash_churn", dpr1_crash_churn,
     {0xd71aa2e417b8667bULL, 6325, 401846, 0, 0}},
    {"dpr2_crash_churn", dpr2_crash_churn,
     {0x03926e3cbf09c43bULL, 6325, 401846, 0, 0}},
    // Recorded before fire-and-forget and reliable sends shared one
    // transmit path.
    {"dpr2_epochs_threshold_jitter", dpr2_epochs_threshold_jitter,
     {0x01abdaa17416e06bULL, 1511, 49575, 0, 1186}},
    {"dpr1_corruption_fire", dpr1_corruption_fire,
     {0x9c6c74d88ab756c8ULL, 1617, 103972, 0, 0}},
};

class EngineGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineGolden, ChecksumsAndCountersMatchRecordedValues) {
  for (const Scenario& s : kScenarios) {
    EXPECT_EQ(s.run(GetParam()), s.golden) << s.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, EngineGolden, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace p2prank::engine
