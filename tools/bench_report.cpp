// bench_report — machine-readable kernel throughput snapshots.
//
// Times every rank-sweep kernel variant on the standard 50k-page synthetic
// graph and appends one labelled run to BENCH_kernels.json, so the perf
// trajectory of the hot path is recorded PR over PR. The JSON layout (see
// DESIGN.md "Kernel layout") is:
//
//   { "schema": "p2prank-kernel-bench-v1",
//     "runs": [ { "label", "pages", "edges", "pool_threads",
//                 "variants": [ {"name", "ns_per_sweep", "items_per_sec",
//                                "bytes_per_sec"} ... ] } ... ] }
//
// items = CSR entries processed; bytes = hot-loop traffic per the
// accounting in DESIGN.md. Appending to an existing file preserves earlier
// runs (notably the "seed" baseline measured before the contribution
// kernel landed), which is what makes deltas auditable.
//
// --reliability switches to the reliable-exchange benchmark (Fig. 7
// analogue, EXPERIMENTS.md "p sweep with retransmission"): it sweeps the
// delivery probability p and, at each level, runs the SAME graph + seed to
// the convergence threshold under both channel schemes — the paper's
// fire-and-forget and the reliable exchange layer (epochs + retransmit) —
// and appends virtual convergence time plus the full message accounting
// (retransmissions, acks, duplicate rejections, retransmit overhead) to
// BENCH_reliability.json with schema "p2prank-reliability-bench-v1".
//
// --obs measures the observability tax (DESIGN.md §11): the same engine run
// — DPR2 on the standard 50k-page graph, advanced span by span of virtual
// time — once bare and once with a MetricsRegistry + Tracer attached, and
// appends both wall-clock timings plus the overhead ratio to BENCH_obs.json
// with schema "p2prank-obs-bench-v1". The contract is overhead < 5%.
//
// --serve measures the rank-serving layer (DESIGN.md §12): snapshot-publish
// overhead on the sweep (bare vs sink-attached engine — contract < 5%), then
// a closed-loop run of N simulated clients (default 10000) querying the live
// SnapshotStore in virtual time while the engine sweeps underneath, appending
// QPS, p50/p99 latency, and the torn/stale/availability accounting to
// BENCH_serve.json with schema "p2prank-serve-bench-v1". Any torn-epoch read
// fails the run. --serve --determinism-check instead byte-compares the query
// stream, final snapshot, and result checksum across a repeated run and pool
// sizes {1,2}, exiting nonzero on any difference.
//
// --recovery measures the partition-tolerance layer (DESIGN.md §13): a
// reliable-transport engine with a RecoverySupervisor and a SnapshotStore
// attached runs a fixed schedule of hard-cut episodes (cut → evict → degraded
// serving → heal → rejoin), with frame corruption live during each outage.
// Per episode it records the eviction latency (cut → quorum eviction) and
// rejoin latency (heal → readmission), and throughout it runs the
// bounded-staleness EXTERNAL audit: every query recomputes the snapshot age
// from publish_time and cross-checks the server's beyond_bound flag — any
// mismatch is a stale-bound violation, and the contract (plus the exit code)
// requires exactly zero. Appends to BENCH_recovery.json with schema
// "p2prank-recovery-bench-v1"; torn reads, checksum-collision applications,
// or a missed eviction/rejoin also fail the run.
//
// --scale is the DESIGN.md §14 scale sweep: for each requested row (default
// 1M and 10M pages) it streams a synthetic web into the chunked two-pass
// builder, round-trips it through the binary edge-list format, runs a fixed
// number of bounded rank sweeps, and then measures the update path — a
// 1k-edge link-only delta applied via the incremental splice vs the full
// rebuild oracle. Appends rows to BENCH_scale.json with schema
// "p2prank-scale-bench-v1". Contract (enforced by exit code): on rows of
// >= 1M pages the incremental splice must beat the rebuild by >= 10x.
// --scale --determinism-check instead runs the small bitwise gates wired
// into tier-bench-smoke: streamed == builder CSR, binary round-trip
// identity, splice == rebuild CSR, and incremental warm-start ==
// rebuild-then-warm-start rank vectors.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/metric_names.hpp"
#include "rank/link_matrix.hpp"
#include "recover/supervisor.hpp"
#include "serve/loadgen.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace p2prank;
using Clock = std::chrono::steady_clock;

struct VariantResult {
  std::string name;
  double ns_per_sweep = 0.0;
  double items_per_sec = 0.0;
  double bytes_per_sec = 0.0;
};

struct Options {
  std::uint32_t pages = 50000;
  std::uint64_t seed = 42;
  double alpha = 0.85;
  int repetitions = 5;
  double min_rep_seconds = 0.4;
  std::string label = "run";
  std::string out;  // default depends on mode
  /// Kernel mode: pool sizes to sweep, one JSON run per size. Empty keeps
  /// the historical behavior (the shared hardware-sized pool).
  std::vector<unsigned> threads;
  // --reliability mode.
  bool reliability = false;
  std::uint32_t k = 16;
  double error_threshold = 1e-8;
  double max_time = 20000.0;
  // --obs mode.
  bool obs = false;
  // --serve mode.
  bool serve = false;
  bool determinism_check = false;
  std::uint32_t clients = 10000;
  double serve_duration = 200.0;  // virtual time of the closed-loop phase
  // --recovery mode.
  bool recovery = false;
  std::uint32_t episodes = 4;
  // --scale mode.
  bool scale = false;
  std::vector<std::uint64_t> scale_rows;  // default {1M, 10M}
  int scale_sweeps = 8;
  std::size_t delta_edges = 1000;
};

/// Best-of-`repetitions` timing of one sweep variant: each repetition runs
/// the body until `min_rep_seconds` elapse and reports ns/sweep; the
/// minimum over repetitions filters scheduler noise.
template <typename Body>
double time_variant(const Options& opts, const Body& body) {
  for (int i = 0; i < 3; ++i) body();  // warm caches and scratch
  double best_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < opts.repetitions; ++rep) {
    std::size_t sweeps = 0;
    const auto start = Clock::now();
    Clock::time_point now;
    do {
      body();
      ++sweeps;
      now = Clock::now();
    } while (std::chrono::duration<double>(now - start).count() < opts.min_rep_seconds);
    const double ns =
        std::chrono::duration<double, std::nano>(now - start).count() /
        static_cast<double>(sweeps);
    best_ns = std::min(best_ns, ns);
  }
  return best_ns;
}

VariantResult make_result(const std::string& name, double ns_per_sweep,
                          std::size_t items, std::int64_t bytes) {
  VariantResult r;
  r.name = name;
  r.ns_per_sweep = ns_per_sweep;
  r.items_per_sec = static_cast<double>(items) / (ns_per_sweep * 1e-9);
  r.bytes_per_sec = static_cast<double>(bytes) / (ns_per_sweep * 1e-9);
  return r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Fixed-notation JSON number. Default ostream formatting flips between
/// integer-looking and 9.47164e+08-style scientific output depending on the
/// measured magnitude, so consecutive runs of the same tool did not diff
/// cleanly. Magnitude-banded precision keeps throughputs fixed-point and
/// tiny thresholds exact, and the same value always renders the same way.
std::string json_number(double v) {
  std::ostringstream t;
  const double a = std::abs(v);
  if (a != 0.0 && (a >= 1e15 || a < 1e-6)) {
    t << std::scientific << std::setprecision(6) << v;
  } else {
    t << std::fixed << std::setprecision(3) << v;
  }
  return t.str();
}

std::string render_run(const Options& opts, std::size_t edges,
                       std::size_t pool_threads,
                       const std::vector<VariantResult>& variants) {
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"pages\": " << opts.pages << ",\n";
  os << "      \"edges\": " << edges << ",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"alpha\": " << json_number(opts.alpha) << ",\n";
  os << "      \"pool_threads\": " << pool_threads << ",\n";
  os << "      \"variants\": [\n";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& v = variants[i];
    os << "        {\"name\": \"" << json_escape(v.name) << "\", "
       << "\"ns_per_sweep\": " << json_number(v.ns_per_sweep) << ", "
       << "\"items_per_sec\": " << json_number(v.items_per_sec) << ", "
       << "\"bytes_per_sec\": " << json_number(v.bytes_per_sec) << "}"
       << (i + 1 < variants.size() ? "," : "") << "\n";
  }
  os << "      ]\n";
  os << "    }";
  return os.str();
}

/// Append `run` to the "runs" array of `path`, or create the file with the
/// given schema tag. Only files written by this tool are understood;
/// anything else is replaced.
void write_report(const std::string& path, const std::string& schema,
                  const std::string& run) {
  static constexpr const char* kTail = "\n  ]\n}\n";
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("bench_report: cannot write " + path);
  const std::size_t tail_at = existing.rfind(kTail);
  if (!existing.empty() && tail_at != std::string::npos &&
      tail_at + std::strlen(kTail) == existing.size()) {
    out << existing.substr(0, tail_at) << ",\n" << run << kTail;
  } else {
    out << "{\n  \"schema\": \"" << schema << "\",\n  \"runs\": [\n"
        << run << kTail;
  }
}

// --- Reliability benchmark ---------------------------------------------------

struct ReliabilityPoint {
  double delivery_p = 1.0;
  bool reliable = false;
  engine::ConvergenceResult res;
};

/// One run to the error threshold on the standard synthetic graph, modulo
/// the channel scheme. Same graph, same partition, same engine seed across
/// every point: the only varying inputs are p and the scheme.
ReliabilityPoint run_reliability_point(const graph::WebGraph& g,
                                       const std::vector<std::uint32_t>& assignment,
                                       const std::vector<double>& reference,
                                       const Options& opts, double p,
                                       bool reliable, util::ThreadPool& pool) {
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = opts.alpha;
  eo.delivery_probability = p;
  // A fixed mean wait makes the schemes comparable per loss: a dropped
  // slice costs fire-and-forget a whole loop period (the next full resend),
  // while retransmission recovers it after one RTO. The default [t1, t2] =
  // [0, 6] spread would blur that signal across groups.
  eo.t1 = 4.0;
  eo.t2 = 4.0;
  eo.seed = opts.seed ^ 0xabcdef12345ULL;
  eo.reliability.retransmit = reliable;  // implies epochs + failure detection
  engine::DistributedRanking sim(g, assignment, opts.k, eo, pool);
  sim.set_reference(reference);
  ReliabilityPoint point;
  point.delivery_p = p;
  point.reliable = reliable;
  point.res = sim.run_until_error(opts.error_threshold, opts.max_time, 1.0);
  return point;
}

std::string render_reliability_run(const Options& opts, std::size_t edges,
                                   const std::vector<ReliabilityPoint>& points) {
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"pages\": " << opts.pages << ",\n";
  os << "      \"edges\": " << edges << ",\n";
  os << "      \"k\": " << opts.k << ",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"alpha\": " << json_number(opts.alpha) << ",\n";
  os << "      \"error_threshold\": " << json_number(opts.error_threshold) << ",\n";
  os << "      \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    const auto& r = pt.res;
    const double overhead =
        r.messages_sent == 0
            ? 0.0
            : static_cast<double>(r.retransmissions) /
                  static_cast<double>(r.messages_sent);
    os << "        {\"delivery_p\": " << json_number(pt.delivery_p)
       << ", \"scheme\": \""
       << (pt.reliable ? "reliable" : "fire_and_forget") << "\", "
       << "\"reached\": " << (r.reached ? "true" : "false") << ", "
       << "\"time\": " << json_number(r.time) << ", "
       << "\"mean_outer_steps\": " << json_number(r.mean_outer_steps) << ", "
       << "\"messages_sent\": " << r.messages_sent << ", "
       << "\"messages_lost\": " << r.messages_lost << ", "
       << "\"retransmissions\": " << r.retransmissions << ", "
       << "\"acks_sent\": " << r.acks_sent << ", "
       << "\"duplicates_rejected\": " << r.duplicates_rejected << ", "
       << "\"retransmit_overhead\": " << json_number(overhead) << ", "
       << "\"final_relative_error\": " << json_number(r.final_relative_error)
       << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "      ]\n";
  os << "    }";
  return os.str();
}

int run_reliability_bench(const Options& opts) {
  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  auto& pool = util::ThreadPool::shared();
  // Round-robin partition: deterministic, balanced, independent of the
  // partition library (this benchmark compares channels, not partitions).
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % opts.k;
  const std::vector<double> reference =
      engine::open_system_reference(g, opts.alpha, pool);

  static constexpr double kLevels[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  std::vector<ReliabilityPoint> points;
  for (const double p : kLevels) {
    for (const bool reliable : {false, true}) {
      points.push_back(run_reliability_point(g, assignment, reference, opts, p,
                                             reliable, pool));
      const auto& pt = points.back();
      std::cout << "  p=" << p << ' '
                << (reliable ? "reliable       " : "fire-and-forget")
                << "  t=" << pt.res.time
                << (pt.res.reached ? "" : " (NOT converged)")
                << "  msgs=" << pt.res.messages_sent
                << " rexmit=" << pt.res.retransmissions
                << " dups=" << pt.res.duplicates_rejected << "\n";
    }
  }

  std::size_t edges = 0;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) edges += g.out_degree(u);
  write_report(opts.out, "p2prank-reliability-bench-v1",
               render_reliability_run(opts, edges, points));
  std::cout << "appended run \"" << opts.label << "\" to " << opts.out << "\n";
  return 0;
}

// --- Observability overhead benchmark ----------------------------------------

std::string render_obs_run(const Options& opts, std::size_t edges,
                           std::size_t pool_threads, double span,
                           double baseline_ns, double instrumented_ns,
                           const p2prank::obs::Tracer& tracer) {
  const double overhead = instrumented_ns / baseline_ns - 1.0;
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"pages\": " << opts.pages << ",\n";
  os << "      \"edges\": " << edges << ",\n";
  os << "      \"k\": " << opts.k << ",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"alpha\": " << json_number(opts.alpha) << ",\n";
  os << "      \"pool_threads\": " << pool_threads << ",\n";
  os << "      \"span_virtual_time\": " << json_number(span) << ",\n";
  os << "      \"baseline_ns_per_span\": " << json_number(baseline_ns) << ",\n";
  os << "      \"instrumented_ns_per_span\": " << json_number(instrumented_ns)
     << ",\n";
  os << "      \"overhead\": " << json_number(overhead) << ",\n";
  os << "      \"trace_events\": " << tracer.size() << ",\n";
  os << "      \"trace_dropped\": " << tracer.dropped() << "\n";
  os << "    }";
  return os.str();
}

int run_obs_bench(const Options& opts) {
  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  auto& pool = util::ThreadPool::shared();
  // Round-robin partition, as in the reliability bench: this measures the
  // observability tax, not partition quality.
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % opts.k;
  const std::vector<double> reference =
      engine::open_system_reference(g, opts.alpha, pool);

  const auto make_engine = [&](p2prank::obs::MetricsRegistry* m,
                               p2prank::obs::Tracer* t) {
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR2;
    eo.alpha = opts.alpha;
    eo.seed = opts.seed ^ 0x0b5e55ULL;
    eo.metrics = m;
    eo.tracer = t;
    auto sim = std::make_unique<engine::DistributedRanking>(g, assignment,
                                                            opts.k, eo, pool);
    sim->set_reference(reference);
    return sim;
  };

  // Each body call advances its engine by the same span of virtual time.
  // The sweep/exchange timers keep firing whether or not the run has
  // converged, so every span does the same simulated work — exactly the
  // steady-state hot path the <5% overhead contract covers.
  constexpr double kSpan = 10.0;
  p2prank::obs::MetricsRegistry metrics;
  p2prank::obs::Tracer tracer;
  auto baseline = make_engine(nullptr, nullptr);
  auto instrumented = make_engine(&metrics, &tracer);
  double base_t = 0.0;
  double instr_t = 0.0;
  const double baseline_ns = time_variant(opts, [&] {
    base_t += kSpan;
    (void)baseline->run(base_t, kSpan);
  });
  const double instrumented_ns = time_variant(opts, [&] {
    instr_t += kSpan;
    (void)instrumented->run(instr_t, kSpan);
  });
  p2prank::obs::export_pool_metrics(pool, metrics);

  std::size_t edges = 0;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) edges += g.out_degree(u);
  const double overhead = instrumented_ns / baseline_ns - 1.0;
  std::cout << "graph: " << opts.pages << " pages, " << edges << " edges; k="
            << opts.k << "; pool " << pool.size() << " thread(s)\n"
            << "  bare:         " << baseline_ns / 1e6 << " ms per " << kSpan
            << " virtual time units\n"
            << "  instrumented: " << instrumented_ns / 1e6 << " ms per " << kSpan
            << " virtual time units\n"
            << "  overhead:     " << overhead * 100.0 << "% ("
            << tracer.size() << " trace events, " << tracer.dropped()
            << " dropped)\n";
  write_report(opts.out, "p2prank-obs-bench-v1",
               render_obs_run(opts, edges, pool.size(), kSpan, baseline_ns,
                              instrumented_ns, tracer));
  std::cout << "appended run \"" << opts.label << "\" to " << opts.out << "\n";
  return 0;
}

// --- Rank-serving benchmark --------------------------------------------------

constexpr std::uint32_t kServeServers = 64;
constexpr double kServeSlice = 1.0;  // engine <-> loadgen interleave step

/// One complete co-simulated serving run: a DPR2 engine with a SnapshotStore
/// attached, advanced slice by slice of virtual time, with the closed-loop
/// load generator querying the store in between. Returns everything the
/// determinism check byte-compares.
struct ServeRunOut {
  serve::LoadGenReport report;
  std::string stream;    // per-query log (record_stream only)
  std::string snapshot;  // final snapshot, serialized
  std::uint64_t snapshots_published = 0;
  std::uint64_t buffer_reuses = 0;
};

ServeRunOut one_serve_run(const graph::WebGraph& g,
                          const std::vector<std::uint32_t>& assignment,
                          const std::vector<double>& reference,
                          const Options& opts, util::ThreadPool& pool,
                          std::uint32_t clients, double duration,
                          bool record_stream,
                          p2prank::obs::MetricsRegistry* metrics = nullptr) {
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = opts.alpha;
  eo.seed = opts.seed ^ 0x5e57e0ULL;
  serve::SnapshotStore store(/*top_k_capacity=*/16);
  eo.snapshot_sink = &store;
  engine::DistributedRanking sim(g, assignment, opts.k, eo, pool);
  sim.set_reference(reference);

  serve::LoadGenOptions lg;
  lg.clients = clients;
  lg.servers = kServeServers;
  lg.seed = opts.seed ^ 0x10adULL;
  lg.record_stream = record_stream;
  serve::LoadGenerator gen(store, g.num_pages(), lg, metrics);

  for (double t = kServeSlice; t <= duration + 1e-9; t += kServeSlice) {
    (void)sim.run(t, kServeSlice);
    gen.run_until(t);
  }

  ServeRunOut out;
  out.report = gen.report();
  out.stream = gen.stream_log();
  std::ostringstream snap;
  if (const auto s = store.acquire()) s->serialize(snap);
  out.snapshot = snap.str();
  out.snapshots_published = store.published();
  out.buffer_reuses = store.buffer_reuses();
  if (metrics != nullptr) {
    serve::export_serve_metrics(store, gen.server(), *metrics);
    metrics->gauge(p2prank::obs::names::kServeQps) = out.report.qps;
    metrics->gauge(p2prank::obs::names::kServeLatencyP50) = out.report.p50;
    metrics->gauge(p2prank::obs::names::kServeLatencyP99) = out.report.p99;
    metrics->gauge(p2prank::obs::names::kServeMaxQueueDepth) =
        static_cast<double>(out.report.max_queue_depth);
  }
  return out;
}

std::string render_serve_run(const Options& opts, std::size_t edges,
                             std::uint32_t loadgen_pages,
                             std::size_t pool_threads, double baseline_ns,
                             double serving_ns, double publish_ns,
                             double snapshot_interval, double overhead,
                             const ServeRunOut& run) {
  const auto& r = run.report;
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"pages\": " << opts.pages << ",\n";
  os << "      \"edges\": " << edges << ",\n";
  os << "      \"loadgen_pages\": " << loadgen_pages << ",\n";
  os << "      \"k\": " << opts.k << ",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"pool_threads\": " << pool_threads << ",\n";
  os << "      \"clients\": " << opts.clients << ",\n";
  os << "      \"servers\": " << kServeServers << ",\n";
  os << "      \"duration_virtual\": " << json_number(opts.serve_duration)
     << ",\n";
  os << "      \"baseline_ns_per_span\": " << json_number(baseline_ns) << ",\n";
  os << "      \"serving_ns_per_span\": " << json_number(serving_ns) << ",\n";
  os << "      \"publish_ns_per_snapshot\": " << json_number(publish_ns)
     << ",\n";
  os << "      \"snapshot_interval\": " << json_number(snapshot_interval)
     << ",\n";
  os << "      \"publish_overhead\": " << json_number(overhead) << ",\n";
  os << "      \"qps\": " << json_number(r.qps) << ",\n";
  os << "      \"p50\": " << json_number(r.p50) << ",\n";
  os << "      \"p99\": " << json_number(r.p99) << ",\n";
  os << "      \"max_latency\": " << json_number(r.max_latency) << ",\n";
  os << "      \"issued\": " << r.issued << ",\n";
  os << "      \"completed\": " << r.completed << ",\n";
  os << "      \"point_queries\": " << r.point_queries << ",\n";
  os << "      \"topk_queries\": " << r.topk_queries << ",\n";
  os << "      \"torn_reads\": " << r.torn_reads << ",\n";
  os << "      \"stale_reads\": " << r.stale_reads << ",\n";
  os << "      \"unavailable\": " << r.unavailable << ",\n";
  os << "      \"max_queue_depth\": " << r.max_queue_depth << ",\n";
  os << "      \"snapshots_published\": " << run.snapshots_published << ",\n";
  os << "      \"buffer_reuses\": " << run.buffer_reuses << ",\n";
  os << "      \"checksum\": " << r.checksum << "\n";
  os << "    }";
  return os.str();
}

/// Forwards RankSnapshotSink calls to the real store while timing each
/// publish at the call site — the measurement side of run_serve_bench's
/// direct-attribution overhead estimate.
class TimingSink final : public engine::RankSnapshotSink {
 public:
  explicit TimingSink(engine::RankSnapshotSink& inner) : inner_(inner) {}

  void publish(double time, std::span<const double> ranks,
               std::span<const std::uint32_t> assignment,
               std::uint32_t num_shards) override {
    const auto t0 = Clock::now();
    inner_.publish(time, ranks, assignment, num_shards);
    record(t0);
  }
  void publish_groups(double time, std::span<const engine::GroupCut> groups,
                      std::uint32_t num_pages,
                      std::uint64_t ownership_version) override {
    const auto t0 = Clock::now();
    inner_.publish_groups(time, groups, num_pages, ownership_version);
    record(t0);
  }
  void invalidate(double time) override { inner_.invalidate(time); }

  /// Median nanoseconds over all recorded publishes (0 if none) — robust
  /// against the occasional publish that eats a scheduler preemption.
  [[nodiscard]] double median_ns() const {
    if (samples_.empty()) return 0.0;
    std::vector<double> s = samples_;
    const auto mid = s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2);
    std::nth_element(s.begin(), mid, s.end());
    return *mid;
  }

 private:
  void record(Clock::time_point t0) {
    samples_.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }

  engine::RankSnapshotSink& inner_;
  std::vector<double> samples_;
};

int run_serve_bench(const Options& opts) {
  auto& pool = util::ThreadPool::shared();
  // Phase 1 graph at full scale (default 50k pages, like the obs bench):
  // the publish-overhead ratio only means something where sweeps carry
  // their real memory traffic. Round-robin partition, as in the
  // reliability/obs benches: this measures the serving layer, not
  // partition quality.
  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % opts.k;
  const std::vector<double> reference =
      engine::open_system_reference(g, opts.alpha, pool);

  // Phase 1 — publish overhead: a sweep span, bare vs with a SnapshotStore
  // attached, publishing once per mean outer iteration ((t1+t2)/2 of the
  // step timer — the "snapshot after each outer iteration" cadence of
  // DESIGN.md §12). The serving contract caps the slowdown at < 5%.
  //
  // The criterion is computed by DIRECT ATTRIBUTION: each publish is timed
  // at the sink and its per-virtual-time-unit cost is divided by a
  // low-quantile sweep cost. On a shared machine the span timings carry
  // ±50% scheduler bursts, so the difference of two noisy span populations
  // cannot resolve a few-percent effect; a median over ~100 individually
  // timed publishes and a 10th-percentile sweep floor can.
  const double snapshot_interval = [] {
    engine::EngineOptions defaults;
    return 0.5 * (defaults.t1 + defaults.t2);
  }();
  const auto make_engine = [&](engine::RankSnapshotSink* sink) {
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR2;
    eo.alpha = opts.alpha;
    eo.seed = opts.seed ^ 0x5e57e0ULL;
    eo.snapshot_sink = sink;
    eo.snapshot_interval = snapshot_interval;
    auto sim = std::make_unique<engine::DistributedRanking>(g, assignment,
                                                            opts.k, eo, pool);
    sim->set_reference(reference);
    return sim;
  };
  constexpr double kSpan = 10.0;
  serve::SnapshotStore overhead_store(/*top_k_capacity=*/16);
  TimingSink timed_sink(overhead_store);
  auto bare = make_engine(nullptr);
  auto serving = make_engine(&timed_sink);
  double bare_t = 0.0;
  double serving_t = 0.0;
  const auto time_span = [](engine::DistributedRanking& sim, double& t) {
    const auto start = Clock::now();
    t += kSpan;
    (void)sim.run(t, kSpan);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  // Interleave bare/serving spans so both variants sample the same machine
  // conditions with their virtual clocks in lockstep; the reported span
  // costs are 10th percentiles (burst noise is purely additive, so a low
  // quantile estimates the undisturbed cost).
  std::vector<double> bare_spans;
  std::vector<double> serving_spans;
  for (int i = 0; i < 3; ++i) {  // warm caches and scratch
    time_span(*bare, bare_t);
    time_span(*serving, serving_t);
  }
  const int reps = std::max(opts.repetitions * 4, 20);
  for (int rep = 0; rep < reps; ++rep) {
    bare_spans.push_back(time_span(*bare, bare_t));
    serving_spans.push_back(time_span(*serving, serving_t));
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  const double baseline_ns = quantile(bare_spans, 0.1);
  const double serving_ns = quantile(serving_spans, 0.1);
  const double publish_ns = timed_sink.median_ns();
  const double overhead =
      (publish_ns / snapshot_interval) / (baseline_ns / kSpan);

  // Phase 2 — the closed-loop run: `clients` simulated clients querying the
  // live store while the engine sweeps underneath, all in virtual time. A
  // smaller graph keeps the co-simulated wall time sane; the serving-side
  // numbers (QPS, latency, epoch accounting) don't need the 50k sweeps.
  const std::uint32_t loadgen_pages = std::min<std::uint32_t>(opts.pages, 2000);
  const auto g2 = graph::generate_synthetic_web(
      graph::google2002_config(loadgen_pages, opts.seed));
  std::vector<std::uint32_t> assignment2(g2.num_pages());
  for (std::uint32_t p = 0; p < g2.num_pages(); ++p) {
    assignment2[p] = p % opts.k;
  }
  const std::vector<double> reference2 =
      engine::open_system_reference(g2, opts.alpha, pool);
  p2prank::obs::MetricsRegistry metrics;
  const auto wall_start = Clock::now();
  const ServeRunOut run =
      one_serve_run(g2, assignment2, reference2, opts, pool, opts.clients,
                    opts.serve_duration, /*record_stream=*/false, &metrics);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::size_t edges = 0;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) edges += g.out_degree(u);
  const auto& r = run.report;
  std::cout << "overhead graph: " << opts.pages << " pages, " << edges
            << " edges; closed-loop graph: " << loadgen_pages << " pages; k="
            << opts.k << "; pool " << pool.size() << " thread(s)\n"
            << "  publish overhead: " << overhead * 100.0 << "% (median "
            << "publish " << publish_ns / 1e3 << " us every "
            << snapshot_interval << " virtual time units; p10 sweep spans "
            << baseline_ns / 1e6 << " -> " << serving_ns / 1e6 << " ms per "
            << kSpan << " units)\n"
            << "  closed loop: " << opts.clients << " clients, "
            << r.completed << " queries in " << r.duration
            << " virtual time units (" << wall_s << " s wall)\n"
            << "  qps=" << r.qps << " p50=" << r.p50 << " p99=" << r.p99
            << " max_queue_depth=" << r.max_queue_depth << "\n"
            << "  torn_reads=" << r.torn_reads << " stale_reads="
            << r.stale_reads << " unavailable=" << r.unavailable
            << " snapshots=" << run.snapshots_published << " (reused "
            << run.buffer_reuses << " buffers)\n";

  write_report(opts.out, "p2prank-serve-bench-v1",
               render_serve_run(opts, edges, loadgen_pages, pool.size(),
                                baseline_ns, serving_ns, publish_ns,
                                snapshot_interval, overhead, run));
  std::cout << "appended run \"" << opts.label << "\" to " << opts.out << "\n";
  if (r.torn_reads != 0) {
    std::cerr << "bench_report: FAIL — " << r.torn_reads
              << " torn-epoch read(s); the serving contract requires zero\n";
    return 1;
  }
  return 0;
}

/// --serve --determinism-check: the serving stack must be a pure function
/// of its seeds — same run twice, and again on a different pool size, must
/// produce byte-identical query streams, reports, and final snapshots.
int run_serve_determinism_check(Options opts) {
  opts.pages = std::min<std::uint32_t>(opts.pages, 2000);
  opts.clients = std::min<std::uint32_t>(opts.clients, 256);
  opts.serve_duration = std::min(opts.serve_duration, 30.0);

  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % opts.k;

  const auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    const std::vector<double> reference =
        engine::open_system_reference(g, opts.alpha, pool);
    return one_serve_run(g, assignment, reference, opts, pool, opts.clients,
                         opts.serve_duration, /*record_stream=*/true);
  };
  const ServeRunOut a = run_with_pool(1);
  const ServeRunOut b = run_with_pool(1);
  const ServeRunOut c = run_with_pool(2);

  bool ok = true;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "bench_report: serve determinism FAIL — " << what << "\n";
      ok = false;
    }
  };
  expect(!a.stream.empty(), "empty query stream");
  expect(a.stream == b.stream, "query stream differs between identical runs");
  expect(a.stream == c.stream, "query stream differs across pool sizes 1 vs 2");
  expect(a.snapshot == b.snapshot,
         "final snapshot differs between identical runs");
  expect(a.snapshot == c.snapshot,
         "final snapshot differs across pool sizes 1 vs 2");
  expect(a.report.checksum == b.report.checksum,
         "result checksum differs between identical runs");
  expect(a.report.checksum == c.report.checksum,
         "result checksum differs across pool sizes 1 vs 2");
  expect(a.report.torn_reads == 0, "torn-epoch reads in determinism run");
  if (ok) {
    std::cout << "serve determinism check passed: " << a.report.completed
              << " queries, checksum " << a.report.checksum
              << ", identical across repeat + pool sizes {1,2}\n";
  }
  return ok ? 0 : 1;
}

// --- Recovery benchmark ------------------------------------------------------

/// One hard-cut outage: the measured timestamps and whether both state
/// transitions actually happened (a miss fails the whole run).
struct RecoveryEpisode {
  std::uint32_t victim = 0;
  double cut_time = 0.0;
  double evict_time = 0.0;
  double heal_time = 0.0;
  double rejoin_time = 0.0;
  bool evicted = false;
  bool rejoined = false;
};

std::string render_recovery_run(const Options& opts, std::size_t edges,
                                double staleness_bound,
                                const std::vector<RecoveryEpisode>& episodes,
                                const engine::DistributedRanking& sim,
                                const recover::RecoverySupervisor& sup,
                                const serve::RankServer& server,
                                std::uint64_t stale_bound_violations,
                                const engine::ConvergenceResult& reconverge) {
  double evict_sum = 0.0, evict_max = 0.0, rejoin_sum = 0.0, rejoin_max = 0.0;
  for (const auto& e : episodes) {
    const double ev = e.evict_time - e.cut_time;
    const double rj = e.rejoin_time - e.heal_time;
    evict_sum += ev;
    evict_max = std::max(evict_max, ev);
    rejoin_sum += rj;
    rejoin_max = std::max(rejoin_max, rj);
  }
  const double n = episodes.empty() ? 1.0 : static_cast<double>(episodes.size());
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"pages\": " << opts.pages << ",\n";
  os << "      \"edges\": " << edges << ",\n";
  os << "      \"k\": " << opts.k << ",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"staleness_bound\": " << json_number(staleness_bound) << ",\n";
  os << "      \"episodes\": [\n";
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const auto& e = episodes[i];
    os << "        {\"victim\": " << e.victim << ", "
       << "\"cut_time\": " << json_number(e.cut_time) << ", "
       << "\"eviction_latency\": " << json_number(e.evict_time - e.cut_time)
       << ", "
       << "\"heal_time\": " << json_number(e.heal_time) << ", "
       << "\"rejoin_latency\": " << json_number(e.rejoin_time - e.heal_time)
       << "}" << (i + 1 < episodes.size() ? "," : "") << "\n";
  }
  os << "      ],\n";
  os << "      \"eviction_latency_mean\": " << json_number(evict_sum / n)
     << ",\n";
  os << "      \"eviction_latency_max\": " << json_number(evict_max) << ",\n";
  os << "      \"rejoin_latency_mean\": " << json_number(rejoin_sum / n)
     << ",\n";
  os << "      \"rejoin_latency_max\": " << json_number(rejoin_max) << ",\n";
  os << "      \"evictions\": " << sup.evictions() << ",\n";
  os << "      \"rejoins\": " << sup.rejoins() << ",\n";
  os << "      \"queries\": " << server.queries() << ",\n";
  os << "      \"degraded_reads\": " << server.degraded_reads() << ",\n";
  os << "      \"shard_down_reads\": " << server.shard_down_reads() << ",\n";
  os << "      \"stale_reads\": " << server.stale_reads() << ",\n";
  os << "      \"unavailable\": " << server.unavailable() << ",\n";
  os << "      \"torn_reads\": " << server.torn_reads() << ",\n";
  os << "      \"stale_bound_violations\": " << stale_bound_violations << ",\n";
  os << "      \"partition_drops\": " << sim.partition_drops() << ",\n";
  os << "      \"frames_corrupted\": " << sim.frames_corrupted() << ",\n";
  os << "      \"frames_quarantined\": " << sim.frames_quarantined() << ",\n";
  os << "      \"retransmissions\": " << sim.retransmissions() << ",\n";
  os << "      \"messages_sent\": " << sim.messages_sent() << ",\n";
  os << "      \"reconverged\": " << (reconverge.reached ? "true" : "false")
     << ",\n";
  os << "      \"reconverge_time\": " << json_number(reconverge.time) << ",\n";
  os << "      \"final_relative_error\": "
     << json_number(reconverge.final_relative_error) << "\n";
  os << "    }";
  return os.str();
}

int run_recovery_bench(const Options& opts) {
  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  auto& pool = util::ThreadPool::shared();
  // Round-robin partition, as in the other engine-level benches: this
  // measures the recovery machinery, not partition quality. It also makes
  // victim-owned probe pages trivial to name: page v belongs to ranker v.
  std::vector<std::uint32_t> assignment(g.num_pages());
  for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % opts.k;
  const std::vector<double> reference =
      engine::open_system_reference(g, opts.alpha, pool);

  // Fast step cadence so detection latency reflects the supervisor's
  // escalation (quorum + streak), not a leisurely exchange timer; a sparse
  // publish cadence against a tighter staleness bound so BOTH branches of
  // the external audit run constantly — queries alternate between fresh
  // (age <= bound) and degraded (age > bound, flag required).
  engine::EngineOptions eo;
  eo.algorithm = engine::Algorithm::kDPR2;
  eo.alpha = opts.alpha;
  eo.t1 = 0.5;
  eo.t2 = 1.0;
  eo.seed = opts.seed ^ 0x4ec04e4ULL;
  eo.reliability.retransmit = true;
  serve::SnapshotStore store(/*top_k_capacity=*/16);
  eo.snapshot_sink = &store;
  eo.snapshot_interval = 4.0;
  constexpr double kStaleBound = 2.0;
  constexpr double kTick = 1.0;

  engine::DistributedRanking sim(g, assignment, opts.k, eo, pool);
  sim.set_reference(reference);
  p2prank::obs::MetricsRegistry metrics;
  recover::SupervisorOptions so;
  so.metrics = &metrics;
  so.serve_store = &store;
  recover::RecoverySupervisor sup(sim, so);
  serve::RankServer server(store);
  server.set_staleness_bound(kStaleBound);

  // The external staleness audit: recompute the snapshot's age from its own
  // publish_time and demand the flag match, per query, on every query shape.
  // This is deliberately OUTSIDE the flagging path (snapshot.cpp computes
  // the same predicate from the same inputs; the audit catches either side
  // drifting — e.g. a future cache that serves a stale flag with a fresh
  // snapshot).
  std::uint64_t stale_bound_violations = 0;
  const auto check = [&](double now, bool served, bool beyond,
                         double publish_time) {
    if (!served) return;
    const bool should = now - publish_time > kStaleBound;
    if (should != beyond) ++stale_bound_violations;
  };
  const std::uint32_t probe_page = opts.k - 1;  // owned by the last ranker,
                                                // never a victim below
  const auto audit = [&](std::uint32_t victim) {
    const double now = sim.now();
    const auto pr = server.rank(probe_page, now);
    check(now, pr.served, pr.beyond_bound, pr.publish_time);
    const auto vr = server.rank(victim, now);  // page `victim` is shard-local
    check(now, vr.served, vr.beyond_bound, vr.publish_time);
    const auto tk = server.top_k(8, now);
    check(now, tk.served, tk.beyond_bound, tk.publish_time);
    const auto sk = server.shard_top_k(victim, 4, now);
    check(now, sk.served, sk.beyond_bound, sk.publish_time);
  };
  const auto drive = [&](std::uint32_t victim, double until, auto done) {
    while (sim.now() < until) {
      (void)sim.run(sim.now() + kTick, kTick);
      sup.tick(sim.now());
      audit(victim);
      if (done()) break;
    }
  };

  std::vector<RecoveryEpisode> episodes;
  bool ok = true;
  constexpr double kEpisodeTimeout = 300.0;
  constexpr double kDegradedDwell = 10.0;
  for (std::uint32_t i = 0; i < opts.episodes; ++i) {
    RecoveryEpisode e;
    e.victim = i % (opts.k - 1);  // rotate, keep probe_page's ranker healthy
    e.cut_time = sim.now();
    sim.set_partition(std::uint64_t{1} << e.victim, 0.0, 0.0);
    sim.set_corruption(0.25);  // every outage also stresses the codec
    drive(e.victim, e.cut_time + kEpisodeTimeout, [&] {
      return sup.state(e.victim) == recover::RankerState::kEvicted;
    });
    e.evicted = sup.state(e.victim) == recover::RankerState::kEvicted;
    e.evict_time = sim.now();
    // Dwell evicted: degraded serving against the down shard is the point.
    drive(e.victim, sim.now() + kDegradedDwell, [] { return false; });
    e.heal_time = sim.now();
    sim.heal_partition();
    sim.set_corruption(0.0);
    drive(e.victim, e.heal_time + kEpisodeTimeout, [&] {
      return sup.state(e.victim) == recover::RankerState::kHealthy;
    });
    e.rejoined = sup.state(e.victim) == recover::RankerState::kHealthy;
    e.rejoin_time = sim.now();
    if (!e.evicted || !e.rejoined) {
      std::cerr << "bench_report: FAIL — episode " << i << " victim "
                << e.victim << (e.evicted ? " never rejoined" : " never evicted")
                << " within " << kEpisodeTimeout << " virtual time units\n";
      ok = false;
    }
    episodes.push_back(e);
    std::cout << "  episode " << i << ": victim " << e.victim
              << "  evict latency " << e.evict_time - e.cut_time
              << "  rejoin latency " << e.rejoin_time - e.heal_time << "\n";
  }

  // All members back: the handoffs must have conserved pages, so the run
  // still reaches the reference fixed point.
  const engine::ConvergenceResult reconverge =
      sim.run_until_error(1e-6, sim.now() + 4000.0, 2.0);

  serve::export_serve_metrics(store, server, metrics);
  metrics.counter(p2prank::obs::names::kServeStaleBoundViolations) =
      stale_bound_violations;

  std::size_t edges = 0;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) edges += g.out_degree(u);
  std::cout << "graph: " << opts.pages << " pages, " << edges << " edges; k="
            << opts.k << "; " << episodes.size() << " episode(s)\n"
            << "  evictions=" << sup.evictions() << " rejoins=" << sup.rejoins()
            << " partition_drops=" << sim.partition_drops()
            << " frames_quarantined=" << sim.frames_quarantined() << "\n"
            << "  queries=" << server.queries() << " degraded="
            << server.degraded_reads() << " shard_down="
            << server.shard_down_reads() << " stale_bound_violations="
            << stale_bound_violations << "\n"
            << "  reconverged=" << (reconverge.reached ? "yes" : "NO")
            << " at t=" << reconverge.time << " (err="
            << reconverge.final_relative_error << ")\n";

  write_report(opts.out, "p2prank-recovery-bench-v1",
               render_recovery_run(opts, edges, kStaleBound, episodes, sim, sup,
                                   server, stale_bound_violations, reconverge));
  std::cout << "appended run \"" << opts.label << "\" to " << opts.out << "\n";

  if (stale_bound_violations != 0) {
    std::cerr << "bench_report: FAIL — " << stale_bound_violations
              << " stale-bound violation(s); the degraded-serving contract "
                 "requires zero\n";
    ok = false;
  }
  if (server.torn_reads() != 0) {
    std::cerr << "bench_report: FAIL — " << server.torn_reads()
              << " torn-epoch read(s)\n";
    ok = false;
  }
  if (sim.corrupt_frames_applied() != 0) {
    std::cerr << "bench_report: FAIL — " << sim.corrupt_frames_applied()
              << " corrupted frame(s) applied past the checksum\n";
    ok = false;
  }
  if (!reconverge.reached) {
    std::cerr << "bench_report: FAIL — post-recovery run did not reconverge\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

// --- Scale benchmark ---------------------------------------------------------

double timed_seconds(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A link-only update batch over existing pages: always sequentially valid
/// (adds only), always incremental-eligible.
std::vector<graph::LinkUpdate> scale_delta(const graph::WebGraph& g,
                                           std::uint64_t seed,
                                           std::size_t count) {
  util::Rng rng(seed ^ 0x5ca1ab1eULL);
  const auto n = static_cast<std::uint64_t>(g.num_pages());
  std::vector<graph::LinkUpdate> ups;
  ups.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform() < 0.7) {
      ups.push_back(graph::LinkUpdate::add_link(
          g.url(static_cast<graph::PageId>(rng.below(n))),
          g.url(static_cast<graph::PageId>(rng.below(n)))));
    } else {
      ups.push_back(graph::LinkUpdate::add_external(
          g.url(static_cast<graph::PageId>(rng.below(n)))));
    }
  }
  return ups;
}

/// Full structural comparison; on mismatch explains where in `why`.
bool same_graph(const graph::WebGraph& a, const graph::WebGraph& b,
                std::string* why) {
  const auto fail = [&](const std::string& w) {
    if (why != nullptr) *why = w;
    return false;
  };
  if (a.num_pages() != b.num_pages()) return fail("page counts differ");
  if (a.num_sites() != b.num_sites()) return fail("site counts differ");
  if (a.num_links() != b.num_links()) return fail("link counts differ");
  if (a.num_external_links() != b.num_external_links()) {
    return fail("external totals differ");
  }
  for (graph::PageId p = 0; p < a.num_pages(); ++p) {
    if (a.url(p) != b.url(p)) return fail("url differs at page " + std::to_string(p));
    if (a.site_name(a.site(p)) != b.site_name(b.site(p))) {
      return fail("site differs at page " + std::to_string(p));
    }
    if (a.external_out_degree(p) != b.external_out_degree(p)) {
      return fail("external degree differs at page " + std::to_string(p));
    }
    const auto oa = a.out_links(p);
    const auto ob = b.out_links(p);
    if (!std::equal(oa.begin(), oa.end(), ob.begin(), ob.end())) {
      return fail("out row differs at page " + std::to_string(p));
    }
    const auto ia = a.in_links(p);
    const auto ib = b.in_links(p);
    if (!std::equal(ia.begin(), ia.end(), ib.begin(), ib.end())) {
      return fail("in row differs at page " + std::to_string(p));
    }
  }
  return true;
}

struct ScaleRow {
  std::uint64_t pages_target = 0;
  std::size_t pages = 0;
  std::size_t edges = 0;
  std::size_t externals = 0;
  double generate_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  std::uint64_t binary_bytes = 0;
  int sweeps = 0;
  double rank_s = 0.0;
  std::size_t delta_edges = 0;
  double incremental_ms = 0.0;
  double rebuild_ms = 0.0;
  double speedup = 0.0;
};

std::string render_scale_run(const Options& opts,
                             const std::vector<ScaleRow>& rows,
                             std::size_t pool_threads) {
  std::ostringstream os;
  os << "    {\n";
  os << "      \"label\": \"" << json_escape(opts.label) << "\",\n";
  os << "      \"graph_seed\": " << opts.seed << ",\n";
  os << "      \"alpha\": " << json_number(opts.alpha) << ",\n";
  os << "      \"pool_threads\": " << pool_threads << ",\n";
  os << "      \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "        {\"pages_target\": " << r.pages_target << ", "
       << "\"pages\": " << r.pages << ", "
       << "\"edges\": " << r.edges << ", "
       << "\"externals\": " << r.externals << ", "
       << "\"generate_s\": " << json_number(r.generate_s) << ", "
       << "\"save_s\": " << json_number(r.save_s) << ", "
       << "\"load_s\": " << json_number(r.load_s) << ", "
       << "\"binary_bytes\": " << r.binary_bytes << ", "
       << "\"rank_sweeps\": " << r.sweeps << ", "
       << "\"rank_s\": " << json_number(r.rank_s) << ", "
       << "\"delta_edges\": " << r.delta_edges << ", "
       << "\"incremental_ms\": " << json_number(r.incremental_ms) << ", "
       << "\"rebuild_ms\": " << json_number(r.rebuild_ms) << ", "
       << "\"update_speedup\": " << json_number(r.speedup) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "      ]\n";
  os << "    }";
  return os.str();
}

int run_scale_bench(const Options& opts) {
  auto& pool = util::ThreadPool::shared();
  const std::vector<std::uint64_t> targets =
      opts.scale_rows.empty() ? std::vector<std::uint64_t>{1'000'000, 10'000'000}
                              : opts.scale_rows;
  std::vector<ScaleRow> rows;
  bool ok = true;
  for (const std::uint64_t target : targets) {
    ScaleRow row;
    row.pages_target = target;
    const auto cfg = graph::google2002_config(
        static_cast<std::uint32_t>(target), opts.seed);

    // Streamed two-pass ingest: edges are generated chunk by chunk and never
    // buffered whole, so peak memory is the CSR itself plus one chunk.
    graph::WebGraph g;
    row.generate_s = timed_seconds(
        [&] { g = graph::generate_synthetic_web_streamed(cfg); });
    row.pages = g.num_pages();
    row.edges = g.num_links();
    row.externals = g.num_external_links();

    // Binary round trip: this is the reload path that makes re-running
    // experiments on the same web cheap.
    const std::string bin = "BENCH_scale_" + std::to_string(target) + ".bin";
    row.save_s = timed_seconds([&] { graph::save_graph_binary_file(g, bin); });
    {
      std::ifstream f(bin, std::ios::binary | std::ios::ate);
      row.binary_bytes = f ? static_cast<std::uint64_t>(f.tellg()) : 0;
    }
    graph::WebGraph loaded;
    row.load_s = timed_seconds([&] { loaded = graph::load_graph_binary_file(bin); });
    std::remove(bin.c_str());
    std::string why;
    if (!same_graph(g, loaded, &why)) {
      std::cerr << "bench_report: FAIL — binary round trip at " << target
                << " pages: " << why << "\n";
      ok = false;
    }

    // Bounded rank sweeps over the loaded graph: end-to-end proof that the
    // reloaded web ranks, plus a per-sweep cost sample at this scale.
    {
      const auto m = rank::LinkMatrix::from_graph(loaded, opts.alpha);
      std::vector<double> x(m.dimension(), 0.0);
      std::vector<double> y(m.dimension());
      const std::vector<double> forcing(m.dimension(), 1.0 - opts.alpha);
      rank::SweepScratch scratch;
      row.sweeps = opts.scale_sweeps;
      row.rank_s = timed_seconds([&] {
        for (int s = 0; s < opts.scale_sweeps; ++s) {
          auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
          if (stats.l1_delta < 0.0) std::abort();  // keep the result live
          std::swap(x, y);
        }
      });
    }

    // Update latency: the same 1k-edge link-only delta through the
    // incremental splice (shared page table, per-row patch) and through the
    // rebuild oracle (re-intern every URL, re-sort every edge).
    const auto ups = scale_delta(loaded, opts.seed, opts.delta_edges);
    row.delta_edges = ups.size();
    graph::GraphUpdateResult delta;
    double best_inc = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      best_inc = std::min(best_inc, timed_seconds([&] {
                            delta = graph::apply_updates_delta(loaded, ups);
                          }));
    }
    row.incremental_ms = best_inc * 1e3;
    if (!delta.incremental) {
      std::cerr << "bench_report: FAIL — link-only delta was not incremental\n";
      ok = false;
    }
    graph::WebGraph rebuilt;
    row.rebuild_ms = timed_seconds([&] {
                       rebuilt = graph::apply_updates_rebuild(loaded, ups);
                     }) *
                     1e3;
    row.speedup = row.rebuild_ms / row.incremental_ms;
    if (!same_graph(delta.graph, rebuilt, &why)) {
      std::cerr << "bench_report: FAIL — splice != rebuild at " << target
                << " pages: " << why << "\n";
      ok = false;
    }
    if (row.pages >= 1'000'000 && row.speedup < 10.0) {
      std::cerr << "bench_report: FAIL — incremental update speedup "
                << row.speedup << "x at " << row.pages
                << " pages; the scale contract requires >= 10x\n";
      ok = false;
    }

    std::cout << "  " << row.pages << " pages, " << row.edges << " edges, "
              << row.externals << " external\n"
              << "    generate " << row.generate_s << " s, save " << row.save_s
              << " s (" << static_cast<double>(row.binary_bytes) / 1e6
              << " MB), load " << row.load_s << " s\n"
              << "    " << row.sweeps << " rank sweeps in " << row.rank_s
              << " s (" << row.rank_s / std::max(row.sweeps, 1) * 1e3
              << " ms/sweep)\n"
              << "    " << row.delta_edges << "-edge delta: incremental "
              << row.incremental_ms << " ms vs rebuild " << row.rebuild_ms
              << " ms (" << row.speedup << "x)\n";
    rows.push_back(row);
  }

  write_report(opts.out, "p2prank-scale-bench-v1",
               render_scale_run(opts, rows, pool.size()));
  std::cout << "appended run \"" << opts.label << "\" to " << opts.out << "\n";
  return ok ? 0 : 1;
}

/// --scale --determinism-check: the small bitwise gates of DESIGN.md §14,
/// wired into tier-bench-smoke. Everything here must be exact, not close.
int run_scale_determinism_check(Options opts) {
  if (opts.pages == 50000) opts.pages = 2000;  // smoke-sized by default
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "bench_report: scale determinism FAIL — " << what << "\n";
      ok = false;
    }
  };
  std::string why;
  const auto cfg = graph::google2002_config(opts.pages, opts.seed);

  // Gate 1: streamed two-pass ingest == in-memory builder, bitwise.
  const auto g = graph::generate_synthetic_web(cfg);
  const auto streamed = graph::generate_synthetic_web_streamed(cfg);
  expect(same_graph(g, streamed, &why), "streamed != builder: " + why);

  // Gate 2: binary round-trip identity.
  {
    std::stringstream buf;
    graph::save_graph_binary(g, buf);
    const auto loaded = graph::load_graph_binary(buf);
    expect(same_graph(g, loaded, &why), "binary round trip: " + why);
  }

  // Gate 3: incremental splice == rebuild oracle on a link-only delta.
  const auto ups = scale_delta(g, opts.seed, 200);
  const auto delta = graph::apply_updates_delta(g, ups);
  expect(delta.incremental, "link-only delta not incremental");
  {
    const auto rebuilt = graph::apply_updates_rebuild(g, ups);
    expect(same_graph(delta.graph, rebuilt, &why), "splice != rebuild: " + why);
  }

  // Gate 4: incremental warm start == rebuild-then-warm-start, bitwise (the
  // engine half of the §14 contract).
  {
    util::ThreadPool pool(2);
    std::vector<std::uint32_t> assignment(g.num_pages());
    for (std::uint32_t p = 0; p < g.num_pages(); ++p) assignment[p] = p % 4;
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR1;
    eo.alpha = opts.alpha;
    eo.seed = opts.seed ^ 0x5ca1edEULL;
    engine::DistributedRanking sim0(g, assignment, 4, eo, pool);
    sim0.set_reference(engine::open_system_reference(g, opts.alpha, pool));
    (void)sim0.run(30.0, 30.0);
    const auto ranks = sim0.global_ranks();
    auto carry = sim0.export_worklist_carry();
    std::size_t valid = 0;
    for (const auto& c : carry.groups) valid += c.valid ? 1 : 0;
    expect(valid > 0, "no group exported a live worklist frontier");

    const auto reference =
        engine::open_system_reference(delta.graph, opts.alpha, pool);
    engine::DistributedRanking inc(delta.graph, assignment, 4, eo, pool);
    inc.set_reference(reference);
    inc.warm_start_incremental(ranks, std::move(carry), delta.in_changed,
                               delta.degree_changed);
    (void)inc.run(40.0, 40.0);
    engine::DistributedRanking reb(delta.graph, assignment, 4, eo, pool);
    reb.set_reference(reference);
    reb.warm_start(ranks);
    (void)reb.run(40.0, 40.0);
    const auto ri = inc.global_ranks();
    const auto rr = reb.global_ranks();
    std::size_t diffs = 0;
    for (std::size_t p = 0; p < ri.size(); ++p) diffs += ri[p] != rr[p] ? 1 : 0;
    expect(diffs == 0, "incremental vs rebuild warm start: " +
                           std::to_string(diffs) + " rank(s) differ");
  }

  if (ok) {
    std::cout << "scale determinism check passed: streamed ingest, binary "
                 "round trip, splice, and incremental warm start all "
                 "bitwise-exact at "
              << opts.pages << " pages\n";
  }
  return ok ? 0 : 1;
}

// --- Kernel benchmark --------------------------------------------------------

/// Times every sweep-kernel variant on `m` with the given pool. The two
/// worklist variants bracket the frontier kernel's envelope: forced-dense
/// sweeps (its overhead ceiling vs fused_sweep_residual) and a contracted
/// steady-state frontier (its payoff once convergence has localized the
/// residual — the regime DPR1's inner iterations live in after warm-up).
std::vector<VariantResult> kernel_variants(const Options& opts,
                                           const rank::LinkMatrix& m,
                                           util::ThreadPool& pool) {
  const std::size_t n = m.dimension();
  const std::size_t edges = m.num_entries();

  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.1 + static_cast<double>(i % 7);
  std::vector<double> y(n);
  const std::vector<double> forcing(n, 0.15);
  rank::SweepScratch scratch;

  // Hot-loop bytes per sweep; accounting documented in DESIGN.md.
  const auto i64 = [](std::size_t v) { return static_cast<std::int64_t>(v); };
  const std::int64_t multiply_bytes = i64(edges) * 20 + i64(n) * 8;
  const std::int64_t contribution_bytes = i64(edges) * 12 + i64(n) * 32;
  const std::int64_t fused_bytes = contribution_bytes + i64(n) * 16;

  std::vector<VariantResult> results;
  // Frozen copy of the seed's multiply hot loop (single-chain
  // accumulation over the per-edge weight stream). Every run carries this
  // in-phase baseline so kernel speedups can be read off one run without
  // being confounded by machine phase (shared boxes drift ±30%). The matrix
  // stores no per-edge weights, so the stream is built here, untimed, from
  // the same doubles.
  std::vector<double> edge_weight;
  edge_weight.reserve(edges);
  for (std::size_t v = 0; v < n; ++v) {
    for (const std::uint32_t u : m.row_sources(v)) {
      edge_weight.push_back(m.source_weights()[u]);
    }
  }
  results.push_back(make_result(
      "seed_pooled_multiply",
      time_variant(opts,
                   [&] {
                     const double* w = edge_weight.data();
                     for (std::size_t v = 0; v < n; ++v) {
                       double acc = 0.0;
                       const auto src = m.row_sources(v);
                       for (std::size_t e = 0; e < src.size(); ++e) {
                         acc += x[src[e]] * w[e];
                       }
                       w += src.size();
                       y[v] = acc;
                     }
                   }),
      edges, multiply_bytes));
  results.push_back(make_result(
      "fused_sweep_residual",
      time_variant(opts,
                   [&] {
                     auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
                     if (stats.l1_delta < 0.0) std::abort();  // keep the result live
                   }),
      edges, fused_bytes));

  {
    // Worklist kernel, forced dense every sweep by reset(): same row loop as
    // fused_sweep_residual plus frontier bookkeeping — its overhead ceiling.
    rank::WorklistState wstate;
    rank::SweepScratch wscratch;
    results.push_back(make_result(
        "worklist_dense_full",
        time_variant(opts,
                     [&] {
                       wstate.reset();
                       auto stats = m.sweep_and_residual_worklist(x, y, forcing, wscratch,
                                                                  wstate, pool);
                       if (stats.l1_delta < 0.0) std::abort();
                     }),
        edges, fused_bytes));
  }
  return results;
}

int run_kernel_bench(const Options& opts) {
  const auto g = graph::generate_synthetic_web(
      graph::google2002_config(opts.pages, opts.seed));
  const auto m = rank::LinkMatrix::from_graph(g, opts.alpha);
  const std::size_t edges = m.num_entries();

  const auto one_pool = [&](util::ThreadPool& pool) {
    std::cout << "graph: " << opts.pages << " pages, " << edges
              << " edges; pool " << pool.size() << " thread(s)\n";
    const auto results = kernel_variants(opts, m, pool);
    for (const auto& r : results) {
      std::cout << "  " << r.name << ": " << r.ns_per_sweep / 1e3
                << " us/sweep, " << r.items_per_sec / 1e6 << " M items/s, "
                << r.bytes_per_sec / 1e9 << " GB/s\n";
    }
    write_report(opts.out, "p2prank-kernel-bench-v1",
                 render_run(opts, edges, pool.size(), results));
    std::cout << "appended run \"" << opts.label << "\" (pool " << pool.size()
              << ") to " << opts.out << "\n";
  };

  if (opts.threads.empty()) {
    one_pool(util::ThreadPool::shared());
  } else {
    for (const unsigned t : opts.threads) {
      util::ThreadPool pool(t);
      one_pool(pool);
    }
  }
  return 0;
}

/// Parse "1,2,8,16" into pool sizes.
std::vector<unsigned> parse_thread_list(const std::string& spec) {
  std::vector<unsigned> out;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const unsigned long v = std::stoul(item);
    if (v == 0) throw std::runtime_error("bench_report: --threads values must be >= 1");
    out.push_back(static_cast<unsigned>(v));
  }
  if (out.empty()) throw std::runtime_error("bench_report: --threads needs a list like 1,2,8");
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string("bench_report: ") + flag +
                                 " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--pages") {
      opts.pages = static_cast<std::uint32_t>(std::stoul(need_value("--pages")));
    } else if (arg == "--seed") {
      opts.seed = std::stoull(need_value("--seed"));
    } else if (arg == "--alpha") {
      opts.alpha = std::stod(need_value("--alpha"));
    } else if (arg == "--reps") {
      opts.repetitions = std::stoi(need_value("--reps"));
    } else if (arg == "--min-rep-seconds") {
      opts.min_rep_seconds = std::stod(need_value("--min-rep-seconds"));
    } else if (arg == "--threads") {
      opts.threads = parse_thread_list(need_value("--threads"));
    } else if (arg == "--label") {
      opts.label = need_value("--label");
    } else if (arg == "--out") {
      opts.out = need_value("--out");
    } else if (arg == "--reliability") {
      opts.reliability = true;
    } else if (arg == "--obs") {
      opts.obs = true;
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--recovery") {
      opts.recovery = true;
    } else if (arg == "--scale") {
      opts.scale = true;
    } else if (arg == "--scale-rows") {
      opts.scale_rows.clear();
      std::stringstream ss(need_value("--scale-rows"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) opts.scale_rows.push_back(std::stoull(tok));
      }
      if (opts.scale_rows.empty()) {
        throw std::runtime_error("bench_report: --scale-rows needs N[,M...]");
      }
    } else if (arg == "--sweeps") {
      opts.scale_sweeps = std::stoi(need_value("--sweeps"));
    } else if (arg == "--delta-edges") {
      opts.delta_edges = std::stoul(need_value("--delta-edges"));
    } else if (arg == "--episodes") {
      opts.episodes =
          static_cast<std::uint32_t>(std::stoul(need_value("--episodes")));
    } else if (arg == "--determinism-check") {
      opts.determinism_check = true;
    } else if (arg == "--clients") {
      opts.clients =
          static_cast<std::uint32_t>(std::stoul(need_value("--clients")));
    } else if (arg == "--duration") {
      opts.serve_duration = std::stod(need_value("--duration"));
    } else if (arg == "--k") {
      opts.k = static_cast<std::uint32_t>(std::stoul(need_value("--k")));
    } else if (arg == "--error-threshold") {
      opts.error_threshold = std::stod(need_value("--error-threshold"));
    } else if (arg == "--max-time") {
      opts.max_time = std::stod(need_value("--max-time"));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_report [--pages N] [--seed S] [--alpha A] "
                   "[--reps R] [--min-rep-seconds T] [--threads 1,2,8,16] "
                   "[--label L] [--out FILE]\n"
                   "       bench_report --reliability [--pages N] [--k K] "
                   "[--seed S] [--error-threshold E] [--max-time T] "
                   "[--label L] [--out FILE]\n"
                   "       bench_report --obs [--pages N] [--k K] [--seed S] "
                   "[--reps R] [--label L] [--out FILE]\n"
                   "       bench_report --serve [--pages N] [--k K] [--seed S] "
                   "[--clients C] [--duration T] [--label L] [--out FILE]\n"
                   "       bench_report --serve --determinism-check\n"
                   "       bench_report --recovery [--pages N] [--k K] "
                   "[--seed S] [--episodes E] [--label L] [--out FILE]\n"
                   "       bench_report --scale [--scale-rows N,M] [--sweeps S] "
                   "[--delta-edges D] [--seed S] [--label L] [--out FILE]\n"
                   "       bench_report --scale --determinism-check [--pages N]\n";
      std::exit(0);
    } else {
      throw std::runtime_error("bench_report: unknown flag " + arg);
    }
  }
  if (static_cast<int>(opts.reliability) + static_cast<int>(opts.obs) +
          static_cast<int>(opts.serve) + static_cast<int>(opts.recovery) +
          static_cast<int>(opts.scale) >
      1) {
    throw std::runtime_error(
        "bench_report: --reliability, --obs, --serve, --recovery, and "
        "--scale are exclusive");
  }
  if (opts.determinism_check && !opts.serve && !opts.scale) {
    throw std::runtime_error(
        "bench_report: --determinism-check requires --serve or --scale");
  }
  if (opts.out.empty()) {
    opts.out = opts.reliability ? "BENCH_reliability.json"
               : opts.obs      ? "BENCH_obs.json"
               : opts.serve    ? "BENCH_serve.json"
               : opts.recovery ? "BENCH_recovery.json"
               : opts.scale    ? "BENCH_scale.json"
                               : "BENCH_kernels.json";
  }
  if (opts.reliability && opts.pages == 50000) {
    opts.pages = 2000;  // convergence sweeps run a full engine: keep it small
  }
  if (opts.recovery && opts.pages == 50000) {
    opts.pages = 1000;  // many full-engine episodes: keep each one quick
  }
  if (opts.recovery && opts.k < 3) {
    throw std::runtime_error(
        "bench_report: --recovery needs k >= 3 (an eviction quorum)");
  }
  // --serve keeps the full 50k-page default: the publish-overhead phase
  // must be measured at the scale where sweeps carry their real memory
  // traffic (run_serve_bench clamps its closed-loop phase separately).
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse_args(argc, argv);
    if (opts.reliability) return run_reliability_bench(opts);
    if (opts.obs) return run_obs_bench(opts);
    if (opts.recovery) return run_recovery_bench(opts);
    if (opts.serve) {
      return opts.determinism_check ? run_serve_determinism_check(opts)
                                    : run_serve_bench(opts);
    }
    if (opts.scale) {
      return opts.determinism_check ? run_scale_determinism_check(opts)
                                    : run_scale_bench(opts);
    }
    return run_kernel_bench(opts);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
