// e2ebench: one process of the end-to-end pipeline benchmark (driven by
// run.py; README.md in this directory defines every metric and workload).
//
// The pipeline is the paper's: decode a p2pgrb1 crawl, partition it into K
// page groups, compute the centralized open-system reference R*, build K
// rankers, and run DPR1 or DPR2 until ||R - R*||_1 / ||R*||_1 <= 1e-4. Every
// layer is timed from outside, around calls into its public functions; the
// counters come from the engine's accessors and obs::MetricsRegistry.
//
// Subcommands (each prints one JSON object on stdout). For gen, --seed is
// the crawl's seed; for run and determinism it is the engine's seed (wait
// schedule, loss, jitter, corruption, overlay ids, lookups, probe inputs).
//   gen         --workload W --seed S --out FILE    write the crawl (p2pgrb1)
//   run         --workload W --seeds S1,S2,... --crawl FILE [--trace 0|1]
//   determinism --workload W --seed S --crawl FILE  pools 2, 2, 1 must agree
//   selftest    --seed S                            the gate must catch a fault
//   host                                            compiler, build type, pool
//   probe                                           host memory-speed probe
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic_web.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/pastry.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "rank/link_matrix.hpp"
#include "serve/snapshot.hpp"
#include "timed_sink.hpp"
#include "transport/frame.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace p2prank;

constexpr double kAlpha = 0.85;
constexpr double kTargetError = 1e-4;
constexpr double kCheckInterval = 1.0;
constexpr double kMaxTime = 5000.0;
constexpr std::size_t kPoolThreads = 2;

// --- workloads -------------------------------------------------------------

enum class Split { kSite, kUrl };

struct Workload {
  std::string_view name;
  std::uint32_t pages;
  Split split;
  std::uint32_t k;
  engine::Algorithm algorithm;
  /// Each group's mean wait is drawn from [t1, t2] (Section 5's Tw).
  double t1 = 3.0;
  double t2 = 6.0;
  double delivery_probability = 1.0;
  bool reliable = false;        ///< epochs + ack/retransmit
  double latency_jitter = 0.0;
  bool pastry = false;          ///< route over Pastry (b = 4)
  double corruption = 0.0;      ///< per-frame corruption probability
  double send_threshold = 0.0;
  double snapshot_interval = 0.0;  ///< 0 = no serving sink
};

constexpr Workload kWorkloads[] = {
    {.name = "crawl1m_site16_dpr1",
     .pages = 1'000'000,
     .split = Split::kSite,
     .k = 16,
     .algorithm = engine::Algorithm::kDPR1},
    {.name = "url1000_dpr2",
     .pages = 50'000,
     .split = Split::kUrl,
     .k = 1000,
     .algorithm = engine::Algorithm::kDPR2},
    {.name = "lossy_overlay_delta",
     .pages = 20'000,
     .split = Split::kUrl,
     .k = 256,
     .algorithm = engine::Algorithm::kDPR1,
     .delivery_probability = 0.8,
     .reliable = true,
     .latency_jitter = 0.5,
     .pastry = true,
     .corruption = 0.001,
     .send_threshold = 1e-7,
     .snapshot_interval = 1.0},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

// --- small helpers ---------------------------------------------------------

/// "--key value" arguments after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string_view key(argv[i]);
      if (!key.starts_with("--")) throw std::invalid_argument("bad argument " + std::string(key));
      values_[std::string(key.substr(2))] = argv[i + 1];
    }
    if (argc % 2 != 0) throw std::invalid_argument("arguments come in --key value pairs");
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Flat JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& count(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& flag(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + '"');
  }
  Json& raw(std::string_view key, const std::string& value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// istream over a byte buffer without copying it.
class ByteSource : public std::streambuf {
 public:
  explicit ByteSource(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
  return v[std::min(i, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// FNV-1a over the rank vector's bytes: the determinism fingerprint.
std::string rank_checksum(const std::vector<double>& ranks) {
  const std::string_view bytes(reinterpret_cast<const char*>(ranks.data()),
                               ranks.size() * sizeof(double));
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(bytes)));
  return buf;
}

// --- the pipeline ----------------------------------------------------------

/// What the timed set-up steps before the engine build produce (decode,
/// partition, reference), plus their wall times.
struct Setup {
  graph::WebGraph graph;
  std::vector<std::uint32_t> assignment;
  std::vector<double> reference;
  double decode_s = 0.0;
  double assign_s = 0.0;
  double reference_s = 0.0;
};

/// One engine and everything it points to. Members are declared so that the
/// engine is destroyed first.
struct Instance {
  std::unique_ptr<overlay::PastryOverlay> overlay;
  serve::SnapshotStore store;
  std::unique_ptr<e2ebench::TimedSink> sink;
  std::unique_ptr<engine::DistributedRanking> engine;
};

/// Builds the workload's rankers for one engine seed (with its Pastry overlay
/// and serving sink when the workload has them).
std::unique_ptr<Instance> build_instance(const Workload& w, const Setup& s,
                                         std::uint64_t seed, util::ThreadPool& pool,
                                         obs::MetricsRegistry* metrics = nullptr,
                                         obs::Tracer* tracer = nullptr,
                                         std::uint32_t fault_group = UINT32_MAX) {
  auto in = std::make_unique<Instance>();
  in->sink = std::make_unique<e2ebench::TimedSink>(in->store, seed);
  if (w.pastry) {
    overlay::PastryConfig cfg;
    cfg.num_nodes = w.k;
    cfg.bits_per_digit = 4;
    cfg.seed = seed;
    in->overlay = std::make_unique<overlay::PastryOverlay>(cfg);
  }
  engine::EngineOptions opts;
  opts.algorithm = w.algorithm;
  opts.alpha = kAlpha;
  opts.delivery_probability = w.delivery_probability;
  opts.t1 = w.t1;
  opts.t2 = w.t2;
  opts.latency_jitter = w.latency_jitter;
  opts.reliability.epochs = w.reliable;
  opts.reliability.retransmit = w.reliable;
  opts.overlay = in->overlay.get();
  opts.per_hop_latency = 0.5;
  opts.send_threshold = w.send_threshold;
  opts.snapshot_sink = w.snapshot_interval > 0.0 ? in->sink.get() : nullptr;
  opts.snapshot_interval = w.snapshot_interval > 0.0 ? w.snapshot_interval : 1.0;
  opts.metrics = metrics;
  opts.tracer = tracer;
  opts.fault_skip_refresh_group = fault_group;
  opts.seed = seed;
  in->engine = std::make_unique<engine::DistributedRanking>(s.graph, s.assignment, w.k,
                                                            opts, pool);
  in->engine->set_reference(s.reference);
  if (w.corruption > 0.0) in->engine->set_corruption(w.corruption);
  return in;
}

Setup run_setup(const Workload& w, std::string& crawl_bytes, util::ThreadPool& pool) {
  Setup s;
  util::Stopwatch sw;
  {
    ByteSource buf(crawl_bytes);
    std::istream in(&buf);
    s.graph = graph::load_graph_binary(in);
  }
  s.decode_s = sw.elapsed_seconds();

  sw.reset();
  const auto partitioner = w.split == Split::kSite ? partition::make_hash_site_partitioner()
                                                   : partition::make_hash_url_partitioner();
  s.assignment = partitioner->partition(s.graph, w.k);
  s.assign_s = sw.elapsed_seconds();

  sw.reset();
  s.reference = engine::open_system_reference(s.graph, kAlpha, pool);
  s.reference_s = sw.elapsed_seconds();
  return s;
}

/// Deterministic outcome of one solve plus its wall time and gate verdict.
struct Solve {
  double solve_s = 0.0;
  bool reached = false;
  double rel_err = 0.0;
  double iterations = 0.0;
  double sim_time = 0.0;
  std::uint64_t wire_records = 0;
  std::uint64_t messages = 0;
  std::string checksum;
  std::vector<std::string> failures;

  [[nodiscard]] bool same_outcome(const Solve& o) const {
    return iterations == o.iterations && sim_time == o.sim_time &&
           wire_records == o.wire_records && messages == o.messages &&
           checksum == o.checksum;
  }
};

/// Run to 1e-4 and apply the correctness gate: the final ranks must be within
/// 1e-4 relative L1 error of R* (recomputed here, independently of the
/// engine's own check), and no corrupt frame, rejected slice or zombie
/// retransmit may have occurred.
Solve solve(engine::DistributedRanking& e, const std::vector<double>& reference) {
  Solve r;
  util::Stopwatch sw;
  const engine::ConvergenceResult c = e.run_until_error(kTargetError, kMaxTime, kCheckInterval);
  r.solve_s = sw.elapsed_seconds();
  r.reached = c.reached;
  r.iterations = c.mean_outer_steps;
  r.sim_time = c.time;
  r.wire_records = e.records_sent() + e.retransmit_records();
  r.messages = e.messages_sent() + e.acks_sent() + e.status_messages();

  const std::vector<double> ranks = e.global_ranks();
  r.checksum = rank_checksum(ranks);
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    diff += std::abs(ranks[i] - reference[i]);
    norm += std::abs(reference[i]);
  }
  r.rel_err = norm > 0.0 ? diff / norm : INFINITY;

  if (!c.reached) r.failures.push_back("did not reach 1e-4 by the time limit");
  if (!(r.rel_err <= kTargetError)) r.failures.push_back("global_ranks() off reference");
  if (e.corrupt_frames_applied() != 0) r.failures.push_back("corrupt_frames_applied != 0");
  if (e.slices_rejected() != 0) r.failures.push_back("slices_rejected != 0");
  if (e.zombie_retransmits() != 0) r.failures.push_back("zombie_retransmits != 0");
  return r;
}

void put_solve(Json& j, const Solve& s) {
  j.num("solve_s", s.solve_s)
      .num("iterations", s.iterations)
      .num("sim_time", s.sim_time)
      .count("wire_records", s.wire_records)
      .count("messages", s.messages)
      .str("rank_checksum", s.checksum)
      .num("rel_err", s.rel_err);
}

std::string failure_list(const std::vector<std::string>& failures) {
  std::string out = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + failures[i] + "\"";
  }
  return out + "]";
}

// --- layer probes (traced run only) -----------------------------------------

/// Times LinkMatrix::sweep_and_residual on every group's matrix with the
/// run's pool. Returns ns per edge; fills the per-group ns per sweep.
double probe_sweeps(const engine::DistributedRanking& e, util::ThreadPool& pool,
                    std::uint64_t seed, std::vector<double>& group_sweep_ns) {
  util::Rng rng(seed);
  double total_ns = 0.0;
  double total_edges = 0.0;
  group_sweep_ns.assign(e.num_groups(), 0.0);
  for (std::uint32_t g = 0; g < e.num_groups(); ++g) {
    const rank::LinkMatrix& m = e.group(g).matrix();
    const std::size_t d = m.dimension();
    if (d == 0) continue;
    std::vector<double> in(d);
    std::vector<double> out(d);
    for (double& x : in) x = rng.uniform();
    rank::SweepScratch scratch;
    (void)m.sweep_and_residual(in, out, {}, scratch, pool);  // warm-up
    const std::size_t work = m.num_entries() + d;
    const std::size_t reps = std::clamp<std::size_t>(400'000 / work, 3, 200);
    util::Stopwatch sw;
    for (std::size_t i = 0; i < reps; ++i) {
      (void)m.sweep_and_residual(in, out, {}, scratch, pool);
    }
    const double ns = sw.elapsed_seconds() * 1e9;
    group_sweep_ns[g] = ns / static_cast<double>(reps);
    total_ns += ns;
    total_edges += static_cast<double>(reps * m.num_entries());
  }
  return total_edges > 0.0 ? total_ns / total_edges : 0.0;
}

/// encode_frame + decode_frame round trip on seeded entry lists of
/// `entries` entries; ns per record.
double probe_frames(std::size_t entries, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::uint32_t, double>> list(entries);
  std::uint32_t index = 0;
  for (auto& [i, score] : list) {
    index += 1 + static_cast<std::uint32_t>(rng.below(4));
    i = index;
    score = rng.uniform();
  }
  transport::FrameHeader header;
  header.src = 1;
  header.dst = 2;
  header.epoch = 3;
  header.record_count = entries;
  transport::DecodedFrame decoded;
  const std::size_t reps = std::max<std::size_t>(64, (std::size_t{1} << 20) / entries);
  util::Stopwatch sw;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto bytes = transport::encode_frame(header, list);
    if (transport::decode_frame(bytes, decoded) != transport::FrameVerdict::kOk) {
      throw std::runtime_error("frame probe: round trip rejected");
    }
  }
  return sw.elapsed_seconds() * 1e9 / static_cast<double>(reps * entries);
}

/// Scans the tracer's Chrome JSON as it is written (never holding it all):
/// sums engine.msg_flight durations and tracks the last event time.
class FlightScan final : public std::streambuf {
 public:
  double flight_time = 0.0;  ///< Σ msg_flight durations, virtual time units
  double last_time = 0.0;    ///< latest recorded event start
  void finish() { scan(); }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) put(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c == '\n') {
      scan();
    } else {
      line_ += c;
    }
  }
  static double field(const std::string& line, std::string_view key) {
    const auto at = line.find(key);
    return at == std::string::npos ? -1.0 : std::strtod(line.c_str() + at + key.size(), nullptr);
  }
  void scan() {
    const double ts = field(line_, "\"ts\": ");
    if (ts >= 0.0) last_time = std::max(last_time, ts * 1e-6);
    if (line_.find("\"name\": \"" + std::string(obs::names::kTraceMsgFlight) + "\"") !=
        std::string::npos) {
      const double dur = field(line_, "\"dur\": ");
      if (dur > 0.0) flight_time += dur * 1e-6;
    }
    line_.clear();
  }
  std::string line_;
};

// --- subcommands ------------------------------------------------------------

int cmd_gen(const Args& a) {
  const Workload& w = find_workload(a.str("workload"));
  const auto g = graph::generate_synthetic_web_streamed(
      graph::google2002_config(w.pages, a.u64("seed", 1)));
  const std::string out = a.str("out");
  const std::string tmp = out + ".tmp";
  graph::save_graph_binary_file(g, tmp);
  if (std::rename(tmp.c_str(), out.c_str()) != 0) throw std::runtime_error("rename failed");
  std::cout << Json().count("pages", g.num_pages()).count("links", g.num_links()).text()
            << '\n';
  return 0;
}

std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    seeds.push_back(std::stoull(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return seeds;
}

/// Per-layer numbers for one engine seed. `plain` is the untraced instance
/// after its solve; a second, traced solve of the same seed must reproduce
/// it bit for bit. Returns the number of failed solves (0..2).
std::uint64_t trace_layers(const Workload& w, const Setup& s, std::uint64_t seed,
                           util::ThreadPool& pool, Instance& plain_in,
                           const Solve& plain, Json& out,
                           std::vector<std::string>& failures) {
  plain_in.engine.reset();
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  const auto traced_in = build_instance(w, s, seed, pool, &metrics, &tracer);
  engine::DistributedRanking& te = *traced_in->engine;
  const Solve traced = solve(te, s.reference);
  std::uint64_t failed = traced.failures.empty() ? 0 : 1;
  for (const auto& f : traced.failures) failures.push_back("traced: " + f);
  if (!traced.same_outcome(plain)) {
    ++failed;
    failures.push_back("traced solve differs from the plain solve");
  }

  const auto stats = partition::compute_partition_stats(s.graph, s.assignment, w.k);

  // Sweep share: probe ns per sweep per group × the group's outer steps ×
  // inner sweeps per outer step — an estimate, not a measurement.
  std::vector<double> group_sweep_ns;
  const double ns_per_edge = probe_sweeps(te, pool, seed, group_sweep_ns);
  const auto steps = te.outer_steps_per_group();
  const std::uint64_t outer = metrics.counter_value(obs::names::kEngineOuterSteps);
  const std::uint64_t inner = metrics.counter_value(obs::names::kEngineInnerSweeps);
  const double sweeps_per_step =
      outer == 0 ? 0.0 : static_cast<double>(inner) / static_cast<double>(outer);
  double sweep_ns = 0.0;
  for (std::size_t g = 0; g < steps.size(); ++g) {
    sweep_ns += group_sweep_ns[g] * static_cast<double>(steps[g]) * sweeps_per_step;
  }

  const double records = static_cast<double>(te.records_sent());
  const std::uint64_t fresh = te.messages_sent() - te.retransmissions();
  const std::size_t slice =
      fresh == 0 ? 1
                 : std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                                records / static_cast<double>(fresh))));
  const double frame_ns = probe_frames(slice, seed);

  FlightScan scan;
  {
    std::ostream stream(&scan);
    tracer.write_chrome_json(stream);
  }
  scan.finish();
  const double window = tracer.dropped() == 0 ? traced.sim_time : scan.last_time;

  // Serving: with a sink in the workload, the plain solve's publishes and
  // lookups; without one, 100 post-solve publishes of the converged state.
  e2ebench::TimedSink& sink = *plain_in.sink;
  const auto in_solve_publishes = static_cast<std::uint64_t>(sink.publish_ns.size());
  if (w.snapshot_interval <= 0.0) e2ebench::publish_probe(sink, te, 100);
  const double publish_share =
      w.snapshot_interval > 0.0 ? sum(sink.publish_ns) * 1e-9 / plain.solve_s : 0.0;
  const double sweep_share = sweep_ns * 1e-9 / plain.solve_s;
  const double messages = static_cast<double>(plain.messages);

  out.num("partition.cut_edge_fraction", stats.cut_fraction())
      .num("rank.sweep_ns_per_edge", ns_per_edge)
      .count("engine.outer_steps", outer)
      .count("engine.inner_sweeps", inner)
      .num("engine.ns_per_message", plain.solve_s * 1e9 / std::max(messages, 1.0))
      .num("engine.sweep_share_est", sweep_share)
      .num("engine.nonsweep_share", 1.0 - sweep_share - publish_share)
      .count("engine.messages_lost", te.messages_lost())
      .count("transport.retransmissions", te.retransmissions())
      .count("transport.acks_sent", te.acks_sent())
      .count("transport.duplicates_rejected", te.duplicates_rejected())
      .count("transport.frames_quarantined", te.frames_quarantined())
      .count("transport.records_sent", te.records_sent())
      .num("transport.retransmit_ratio",
           records == 0.0 ? 0.0 : static_cast<double>(te.retransmit_records()) / records)
      .num("transport.frame_roundtrip_ns_per_record", frame_ns)
      .count("transport.mean_slice_records", slice)
      .num("sim.mean_in_flight", window > 0.0 ? scan.flight_time / window : 0.0)
      .count("sim.trace_dropped", tracer.dropped())
      .num("overlay.mean_hops",
           records == 0.0 ? 0.0 : static_cast<double>(te.record_hops()) / records)
      .num("serve.publish_ns_p50", percentile(sink.publish_ns, 0.5))
      .num("serve.publish_ns_p90", percentile(sink.publish_ns, 0.9))
      .count("serve.publishes", in_solve_publishes)
      .num("serve.publish_share", publish_share)
      .num("serve.query_ns_p50", percentile(sink.query_ns, 0.5))
      .num("serve.query_ns_p99", percentile(sink.query_ns, 0.99))
      .num("serve.query_checksum", sink.checksum)
      .num("obs.trace_overhead", traced.solve_s / plain.solve_s - 1.0)
      .num("cost.rounds_x_messages", plain.iterations * messages);
  return failed;
}

/// One timed set-up, then one untraced solve per engine seed (each on a
/// fresh engine; the previous one is destroyed first). With --trace 1 (one
/// seed only), the per-layer numbers of trace_layers follow.
int cmd_run(const Args& a) {
  const Workload& w = find_workload(a.str("workload"));
  const std::vector<std::uint64_t> seeds = parse_seeds(a.str("seeds"));
  const bool trace = a.u64("trace", 0) != 0;
  if (trace && seeds.size() != 1) throw std::invalid_argument("--trace 1 takes one seed");
  util::ThreadPool pool(kPoolThreads);
  std::string bytes = read_file(a.str("crawl"));
  const Setup s = run_setup(w, bytes, pool);

  std::unique_ptr<Instance> in;
  Solve plain;
  double first_build_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string solves = "[";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    in.reset();
    util::Stopwatch sw;
    in = build_instance(w, s, seeds[i], pool);
    const double build_s = sw.elapsed_seconds();
    if (i == 0) first_build_s = build_s;
    plain = solve(*in->engine, s.reference);
    ++attempted;
    if (!plain.failures.empty()) ++failed;
    for (const auto& f : plain.failures) failures.push_back(f);
    Json j;
    j.count("seed", seeds[i]).num("engine.build_s", build_s).flag("ok", plain.failures.empty());
    put_solve(j, plain);
    solves += (i == 0 ? "" : ", ") + j.text();
  }

  Json out;
  out.str("workload", w.name)
      .count("trace", trace ? 1 : 0)
      .count("pool", pool.size())
      .num("setup_s", s.decode_s + s.assign_s + s.reference_s + first_build_s)
      .num("graph.decode_s", s.decode_s)
      .num("graph.decode_mb_per_s",
           static_cast<double>(bytes.size()) / 1e6 / std::max(s.decode_s, 1e-12))
      .num("partition.assign_s", s.assign_s)
      .num("rank.reference_s", s.reference_s)
      .num("engine.build_s", first_build_s);
  if (trace) {
    attempted += 1;
    failed += trace_layers(w, s, seeds.front(), pool, *in, plain, out, failures);
  }
  out.raw("solves", solves + "]")
      .count("attempted", attempted)
      .count("failed", failed)
      .raw("failures", failure_list(failures))
      .num("peak_rss_mb", peak_rss_mb());
  std::cout << out.text() << '\n';
  return 0;
}

int cmd_determinism(const Args& a) {
  const Workload& w = find_workload(a.str("workload"));
  const std::uint64_t seed = a.u64("seed", 1);
  std::string bytes = read_file(a.str("crawl"));
  util::ThreadPool pool2(kPoolThreads);
  util::ThreadPool pool1(1);
  const Setup s = run_setup(w, bytes, pool2);
  std::vector<Solve> runs;
  for (util::ThreadPool* pool : {&pool2, &pool2, &pool1}) {
    runs.push_back(solve(*build_instance(w, s, seed, *pool)->engine, s.reference));
  }
  bool identical = true;
  bool gates = true;
  std::string list = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    identical = identical && runs[i].same_outcome(runs[0]);
    gates = gates && runs[i].failures.empty();
    Json j;
    j.count("pool", i < 2 ? kPoolThreads : 1);
    put_solve(j, runs[i]);
    list += (i == 0 ? "" : ", ") + j.text();
  }
  std::cout << Json()
                   .str("workload", w.name)
                   .count("seed", seed)
                   .flag("identical", identical)
                   .flag("gates_passed", gates)
                   .raw("runs", list + "]")
                   .text()
            << '\n';
  return identical && gates ? 0 : 1;
}

/// The gate must pass a healthy small run and fail the same run with one
/// group's afferent path disabled (EngineOptions::fault_skip_refresh_group).
int cmd_selftest(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  const Workload w{.name = "selftest",
                   .pages = 3000,
                   .split = Split::kUrl,
                   .k = 16,
                   .algorithm = engine::Algorithm::kDPR1};
  util::ThreadPool pool(kPoolThreads);
  std::ostringstream encoded;
  graph::save_graph_binary(
      graph::generate_synthetic_web(graph::google2002_config(w.pages, seed)), encoded);
  std::string bytes = encoded.str();
  const Setup s = run_setup(w, bytes, pool);
  const Solve healthy = solve(*build_instance(w, s, seed, pool)->engine, s.reference);
  const Solve faulty =
      solve(*build_instance(w, s, seed, pool, nullptr, nullptr, s.assignment.front())->engine,
            s.reference);
  const bool ok = healthy.failures.empty() && !faulty.failures.empty();
  std::cout << Json()
                   .flag("healthy_passed", healthy.failures.empty())
                   .flag("fault_reported_failed", !faulty.failures.empty())
                   .raw("fault_failures", failure_list(faulty.failures))
                   .text()
            << '\n';
  return ok ? 0 : 1;
}

/// Host speed probe: seconds per pass of a sequential floating-point sum
/// over a 64 MiB buffer (one dependent chain of adds, so it slows with the
/// core's clock and its memory traffic), the median of 5 passes after one
/// warm-up pass. It calls nothing in src/, so a change to the program
/// cannot move it; only the host's speed does.
int cmd_probe() {
  std::vector<double> buf(std::size_t{1} << 23, 1.0);
  std::vector<double> passes;
  double acc = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    util::Stopwatch sw;
    for (const double x : buf) acc += x;
    if (pass > 0) passes.push_back(sw.elapsed_seconds());
  }
  std::cout << Json().num("probe_s", percentile(passes, 0.5)).num("sum", acc).text() << '\n';
  return 0;
}

int cmd_host() {
  std::cout << Json()
                   .str("compiler", E2EBENCH_COMPILER)
                   .str("compiler_version", __VERSION__)
                   .str("build_type", E2EBENCH_BUILD_TYPE)
                   .count("pool_threads", kPoolThreads)
                   .text()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string_view cmd = argc > 1 ? argv[1] : "";
    if (cmd == "host") return cmd_host();
    if (cmd == "probe") return cmd_probe();
    const Args a(argc, argv);
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "determinism") return cmd_determinism(a);
    if (cmd == "selftest") return cmd_selftest(a);
    std::cerr << "usage: e2ebench gen|run|determinism|selftest|host|probe --key value ...\n";
    return 2;
  } catch (const std::exception& ex) {
    std::cerr << "e2ebench: " << ex.what() << '\n';
    return 1;
  }
}
