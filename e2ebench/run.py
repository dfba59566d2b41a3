#!/usr/bin/env python3
"""End-to-end pipeline benchmark (see README.md in this directory).

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME --seed N --check-determinism

Builds the e2ebench binary from source into .bench_build/ and generates the
workload's crawl (a fixed dataset, like the paper's one crawl; --graph-seed
picks another). --seed picks the run's solves: solve j runs with engine seed
mix(seed, j). Solves run in batches, one child process per batch, each batch
doing one timed set-up and then its solves. The batch plan is a function of
the workload and --seconds only, so a seed always yields the same solves.
A host-speed probe runs between batches; each solve's wall time is scaled
by it into solve_norm_s. solve_norm_s is the lower quartile over solves,
set-up and memory are medians over batches, and the deterministic counts
are means over solves. Prints a host line and, as the last line of stdout,
the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
INPUTS = ROOT / ".bench_build" / "inputs"
BINARY = BUILD / "e2ebench"
DEFAULT_GRAPH_SEED = 42  # the repository's standard experiment crawl
# Wall budget of the measured part of a run (after build and crawl
# generation); a child still running at the deadline is killed and its
# solves count as failed.
RUN_DEADLINE_S = 170

# Per workload: (batches, solves per batch) for --seconds 30. Other
# --seconds scale the batch count. url1000 and lossy solve in about 1 s, so
# at --seconds 40 their 8 batches of 3 solves take about 35-40 s on a 4-core
# x86-64 host in a quiet phase and about 1.5 times that in a slow one.
# crawl1m batches several solves because its set-up costs about 2 s, and
# needs many solves because with K=16 one solve's counts vary by about 25%;
# it is not in BENCHMARK.json (see README.md).
PLAN_30S = {
    "crawl1m_site16_dpr1": (3, 4),
    "url1000_dpr2": (6, 3),
    "lossy_overlay_delta": (6, 3),
}
TRACED_BATCHES = 3  # one solve each
# Taken per batch rather than per solve.
PER_BATCH = ("setup_s", "peak_rss_mb")
# Lower quartile over solves: on a shared host, interference only ever
# adds time, and it lands on a varying share of a run's solves (on a 4-core
# VM, identical solves took 0.88-1.68 s, mostly 0.9-1.0 s). The median flips
# between the fast and the slow mode once that share nears one half; the
# lower quartile stays on the program's own speed until three quarters.
LOWER_QUARTILE = ("solve_norm_s",)
# Seconds per pass of `e2ebench probe` on the reference host, a 4-core
# x86-64 VM in a quiet phase. solve_norm_s = solve wall time * PROBE_REF_S /
# the probe time measured around its batch: seconds on the reference host.
PROBE_REF_S = 0.010
# Deterministic per engine seed: averaged over solves (no outliers to guard).
MEAN_OVER_SOLVES = ("iterations", "sim_time", "wire_records", "messages")

# name -> unit. Untraced runs report END_TO_END, traced runs PER_LAYER.
END_TO_END = {
    "solve_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "steps",
    "sim_time": "vt",
    "wire_records": "count",
    "messages": "count",
}
PER_LAYER = {
    "graph.decode_s": "s",
    "graph.decode_mb_per_s": "MB/s",
    "partition.assign_s": "s",
    "partition.cut_edge_fraction": "ratio",
    "rank.reference_s": "s",
    "rank.sweep_ns_per_edge": "ns",
    "engine.build_s": "s",
    "engine.outer_steps": "count",
    "engine.inner_sweeps": "count",
    "engine.ns_per_message": "ns",
    "engine.sweep_share_est": "ratio",
    "engine.nonsweep_share": "ratio",
    "engine.messages_lost": "count",
    "transport.retransmissions": "count",
    "transport.acks_sent": "count",
    "transport.duplicates_rejected": "count",
    "transport.frames_quarantined": "count",
    "transport.records_sent": "count",
    "transport.retransmit_ratio": "ratio",
    "transport.frame_roundtrip_ns_per_record": "ns",
    "transport.mean_slice_records": "count",
    "sim.mean_in_flight": "count",
    "overlay.mean_hops": "hops",
    "serve.publish_ns_p50": "ns",
    "serve.publish_ns_p90": "ns",
    "serve.publishes": "count",
    "serve.publish_share": "ratio",
    "serve.query_ns_p50": "ns",
    "serve.query_ns_p99": "ns",
    "obs.trace_overhead": "ratio",
    "engine.solve_wall_s": "s",
    "host.probe_ms": "ms",
    "cost.rounds_x_messages": "count",
}


def log(*args):
    print("e2ebench:", *args, file=sys.stderr, flush=True)


def fail(message):
    """Exit non-zero without printing a result."""
    log("error:", message)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def call(args, timeout=RUN_DEADLINE_S):
    """Run the binary; returns (exit code, parsed last stdout line or None)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(args))
        return 1, None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return 1, None


def probe():
    """Seconds per pass of the host-speed probe (see PROBE_REF_S)."""
    code, rep = call(["probe"])
    if code != 0 or rep is None:
        fail("host probe failed")
    return rep["probe_s"]


def crawl_for(workload, seed):
    """The workload's crawl for this graph seed, generated once and cached
    (one crawl per workload is kept)."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    path = INPUTS / f"{workload}-{seed}.p2pgrb1"
    if not path.is_file():
        for old in INPUTS.glob(f"{workload}-*"):
            old.unlink()
        code, _ = call(["gen", "--workload", workload, "--seed", str(seed),
                        "--out", str(path)])
        if code != 0:
            fail("crawl generation failed")
    return path


def solve_seed(seed, i):
    """SplitMix64 of (seed, i): the engine seed of solve i."""
    z = (seed * 0x9E3779B97F4A7C15 + i + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def batch_plan(workload, seconds, trace):
    """(batches, solves per batch)."""
    if trace:
        return TRACED_BATCHES, 1
    batches, per_batch = PLAN_30S[workload]
    return max(2, min(3 * batches, round(batches * seconds / 30))), per_batch


def host_block(args):
    code, info = call(["host"])
    info = info if code == 0 and info else {}
    sha = "unknown"
    try:
        # The ceiling keeps git from adopting a repository above the root.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, env=env).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": info.get("compiler", "unknown"),
            "compiler_version": info.get("compiler_version", "unknown"),
            "build_type": info.get("build_type", "unknown"),
            "git_sha": sha, "pool_threads": info.get("pool_threads", 0),
            "workload": args.workload, "seed": args.seed,
            "graph_seed": args.graph_seed}


def benchmark(args):
    build()
    crawl = crawl_for(args.workload, args.graph_seed)
    print(json.dumps({"host": host_block(args)}), flush=True)

    deadline = time.monotonic() + RUN_DEADLINE_S

    # The correctness gate must reject a deliberately broken engine.
    code, selftest = call(["selftest", "--seed", str(args.seed)])
    gate_ok = code == 0 and bool(selftest) and selftest["fault_reported_failed"]
    print(json.dumps({"selftest": selftest, "passed": gate_ok}), flush=True)

    attempted = failed = 0
    batches, solves = [], []
    n_batches, per_batch = batch_plan(args.workload, args.seconds, args.trace)
    probes = [probe()]
    for b in range(n_batches):
        seeds = [solve_seed(args.seed, b * per_batch + i)
                 for i in range(per_batch)]
        code, rep = call(["run", "--workload", args.workload,
                          "--seeds", ",".join(map(str, seeds)),
                          "--crawl", str(crawl), "--trace", str(args.trace)],
                         timeout=max(1.0, deadline - time.monotonic()))
        probes.append(probe())
        probe_s = statistics.fmean(probes[-2:])
        if code != 0 or rep is None:
            attempted += len(seeds)
            failed += len(seeds)
            log(f"batch {b} (engine seeds {seeds}) crashed")
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        for s in rep["solves"]:
            s["solve_norm_s"] = s["solve_s"] * PROBE_REF_S / probe_s
            log(f"batch {b} engine seed {s['seed']}: solve_s={s['solve_s']:.4f} "
                f"solve_norm_s={s['solve_norm_s']:.4f} "
                f"iterations={s['iterations']} ok={s['ok']}")
        rep["engine.solve_wall_s"] = statistics.median(
            s["solve_s"] for s in rep["solves"])
        rep["host.probe_ms"] = probe_s * 1e3
        log(f"batch {b}: probe_ms={probe_s * 1e3:.3f} setup_s={rep['setup_s']:.4f} "
            f"peak_rss_mb={rep['peak_rss_mb']:.1f} failures={rep['failures']}")
        solves += [s for s in rep["solves"] if s["ok"]]
        if rep["failed"] == 0:
            batches.append(rep)

    def value(name):
        rows = batches if args.trace or name in PER_BATCH else solves
        values = [r[name] for r in rows]
        if not values:
            return 0.0
        if name in MEAN_OVER_SOLVES:
            return statistics.fmean(values)
        if name in LOWER_QUARTILE and len(values) > 1:
            return statistics.quantiles(values, n=4)[0]
        return statistics.median(values)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value(name), "unit": unit}
               for name, unit in wanted.items()}
    correct = gate_ok and failed == 0 and bool(batches)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def check_determinism(args):
    build()
    crawl = crawl_for(args.workload, args.graph_seed)
    code, result = call(["determinism", "--workload", args.workload,
                         "--seed", str(solve_seed(args.seed, 0)),
                         "--crawl", str(crawl)],
                        timeout=600)
    print(json.dumps(result))
    sys.exit(0 if code == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLAN_30S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--graph-seed", type=int, default=DEFAULT_GRAPH_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true",
                    help="solve twice on 2 threads and once on 1; the "
                         "deterministic outcome must be identical")
    args = ap.parse_args()
    if args.seed < 0 or args.graph_seed < 0:
        fail("seeds must be >= 0")
    if args.check_determinism:
        check_determinism(args)
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
