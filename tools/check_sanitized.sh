#!/usr/bin/env bash
# Build the concurrency-sensitive targets under ThreadSanitizer and run the
# thread-pool and rank-sweep suites. The ThreadPool fork-join has no locks on
# its hot path (epoch + atomic grain counter), so TSan is the check that the
# handshake is actually race-free, not just "has not crashed yet".
#
# The scenario corpus additionally runs under AddressSanitizer: the reliable
# exchange layer hands pooled, reference-counted Y-slice buffers between
# typed delivery events, retransmit buffers and churn rebuilds (stale events
# are dropped by a wiring generation stamp), and every inbox is a packed
# word stream walked by offset arithmetic — ASan is the check that no event
# touches a released buffer or a rebuilt group and that no message read
# runs past its stream, on top of TSan's data-race certification.
#
# usage: tools/check_sanitized.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan \
  --target util_thread_pool_test rank_sweep_test serve_snapshot_test \
  scenario_fuzz -j"$(nproc)"

TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/util_thread_pool_test "$@"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/rank_sweep_test "$@"
echo "TSan: thread-pool and rank-sweep suites clean"

# The serving layer's epoch-swap path: real reader threads racing a real
# publisher over the double-buffered SnapshotStore. TSan is the proof that
# "zero torn reads" comes from the publication protocol, not from luck.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_snapshot_test "$@"
echo "TSan: serve snapshot-swap suite clean"

# The chaos-scenario smoke corpus drives the whole engine (fork-join sweeps,
# event queue, fault injection) through randomized fault schedules — run it
# under TSan too so the harness itself is certified race-free.
# Every group sweeps with the worklist kernel, which scatters dirty bits
# along push edges with relaxed atomic fetch_or while other workers read
# neighbouring words — TSan certifies that pattern here too.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet
echo "TSan: chaos-scenario smoke corpus clean"

# With a rank-serving SnapshotStore attached to every scenario the runner
# probes the store at each sample while the engine publishes underneath —
# the cross-layer version of the serve_snapshot_test race.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet \
  --serve
echo "TSan: chaos-scenario smoke corpus clean (--serve)"

# Partition & recovery (DESIGN.md §13): forced cut/heal episodes with the
# RecoverySupervisor evicting and rejoining rankers mid-run, plus frame
# corruption round-tripping every slice through the codec. The supervisor
# pokes the SnapshotStore's shard-health bitmap from the simulation thread
# while nothing else may race it — TSan certifies that claim.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-tsan --quiet \
  --partition
echo "TSan: chaos-scenario smoke corpus clean (--partition)"

# Same corpus under ASan + UBSan (heap-use-after-free / overflow, plus
# -fsanitize=float-divide-by-zero,float-cast-overflow — rank math divides
# by degree sums and casts scores to counters, so silent inf/NaN or a
# truncating cast would corrupt results without crashing), both on the
# scenarios' own channel configurations and with the reliable layer forced
# on, so every retransmit/ack/churn code path runs under the checks.
cmake --preset asan
cmake --build --preset asan --target scenario_fuzz graph_builder_test \
  graph_io_test graph_updates_test streaming_builder_test engine_group_test \
  engine_golden_test -j"$(nproc)"

# Graph-path edge cases (DESIGN.md §14): default-constructed / out-of-range
# WebGraph accessors (the old out_links(0) UB), loader reject paths, binary
# round trips, streamed two-pass ingest, and the incremental update splice
# against its rebuild oracle — the suites whose bugs ASan sees and a plain
# build might not.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_builder_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_io_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/graph_updates_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/streaming_builder_test "$@"
echo "ASan: graph edge-case suites clean"

# The exchange layout (DESIGN.md §15): link-table build and receiver slot
# ranges, the packed inbox stream with poisoned and out-of-range slices,
# and the bitwise golden lock over every channel configuration and churn.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_group_test "$@"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/engine_golden_test "$@"
echo "ASan: exchange-layout suites clean"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --reliable
# Graph updates take the incremental frontier carry by default; this run
# forces the cold rebuild path instead.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --full-rebuild
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --serve
# Eviction hands page buffers to a successor and rejoin splits them back —
# churn rebuilds driven by the supervisor instead of the script. ASan holds
# the same no-freed-payload guarantee through those handoffs.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tools/scenario_fuzz \
  --seeds-file tests/corpus/scenario_seeds.txt --trace-dir build-asan --quiet \
  --partition
echo "ASan: chaos-scenario smoke corpus clean (base + --reliable + --full-rebuild + --serve + --partition)"
