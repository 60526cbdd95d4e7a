#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline,
# with no registry (crates.io) dependencies anywhere in the tree.
#
# Run from the repository root (or anywhere inside it):
#   scripts/verify.sh
#
# Every step is counted; the script exits non-zero unless all of them
# actually ran — a silently skipped step can never read as a pass. No
# step relies on pre-existing target/ state, and all scratch files live
# in a mktemp directory cleaned up on exit.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPECTED_STEPS=15
steps_run=0
step() {
    steps_run=$((steps_run + 1))
    echo "== step $steps_run/$EXPECTED_STEPS: $1" >&2
}

scratch=$(mktemp -d /tmp/vlpp_verify.XXXXXX)
server_pid=""
cluster_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "$cluster_pid" ] && kill "$cluster_pid" 2>/dev/null || true
    rm -rf "$scratch"
}
trap cleanup EXIT

# 1. Hermeticity gate: every [*dependencies] entry in every Cargo.toml
#    must be an in-tree `path` / `workspace = true` dependency. A line
#    that names a version (`foo = "1.0"` or `version = "..."`) is a
#    registry dependency and fails the build.
step "hermeticity gate"
status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    offenders=$(awk '
        /^\[.*dependencies/ { in_deps = 1; next }
        /^\[/               { in_deps = 0 }
        in_deps && NF && $0 !~ /^[[:space:]]*#/ {
            if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/) {
                print
            }
        }
    ' "$manifest")
    if [ -n "$offenders" ]; then
        echo "error: registry dependency in $manifest:" >&2
        echo "$offenders" | sed 's/^/    /' >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "error: all dependencies must be in-tree path dependencies" >&2
    exit 1
fi
echo "ok: no registry dependencies"

# 2. Lockfile drift: perfbench/ is its own workspace with its own
#    Cargo.lock, built `--locked` in CI. A workspace change that would
#    rewrite that lock (say, a new dependency edge between the crates it
#    builds) fails here, not only in CI's perfbench job.
step "perfbench lockfile is current"
cargo metadata --locked --offline --format-version 1 \
    --manifest-path perfbench/Cargo.toml >/dev/null
echo "ok: perfbench/Cargo.lock needs no update"

# 3. Build and test with the registry disabled. `--offline` makes cargo
#    fail loudly if anything tries to reach crates.io. The build runs
#    unconditionally, so a stale or absent target/ cannot skew any later
#    step — they all use the binary this step produces.
step "offline build + tests"
cargo build --release --offline
cargo test -q --offline
echo "ok: offline build + tests passed"

VLPP="./target/release/vlpp"

# 4. Thread-count determinism: experiment output must be byte-identical
#    whatever the worker-pool size (run at the scale floor to keep this
#    fast).
step "thread-count determinism"
VLPP_THREADS=1 "$VLPP" all --json --scale 1000000 >"$scratch/t1.json" 2>/dev/null
VLPP_THREADS=8 "$VLPP" all --json --scale 1000000 >"$scratch/t8.json" 2>/dev/null
if ! cmp -s "$scratch/t1.json" "$scratch/t8.json"; then
    echo "error: vlpp all --json differs between VLPP_THREADS=1 and 8" >&2
    exit 1
fi
echo "ok: output is byte-identical at 1 and 8 worker threads"

# 5. Metrics smoke run: `--metrics` must add exactly one parseable
#    `METRICS {json}` stdout line (checked by the in-tree parser via
#    vlpp-metrics-check) and change nothing else about stdout.
step "metrics additivity"
VLPP_THREADS=8 "$VLPP" all --json --scale 1000000 --metrics \
    >"$scratch/metrics.out" 2>/dev/null
grep '^METRICS ' "$scratch/metrics.out" | ./target/release/vlpp-metrics-check
grep -v '^METRICS ' "$scratch/metrics.out" >"$scratch/metrics_stripped.json"
if ! cmp -s "$scratch/t1.json" "$scratch/metrics_stripped.json"; then
    echo "error: --metrics changed the experiment bytes on stdout" >&2
    exit 1
fi
echo "ok: --metrics is additive and its snapshot parses"

# 6. Fault injection: injected faults must degrade, never abort (the
#    full seeded matrix runs in tests/integration_faults.rs as part of
#    step 3; this re-checks the two end-to-end contracts against the
#    release binary).
#    6a. An injected panic skips exactly that experiment: exit code 2,
#        an "errors" section, and no process abort.
step "fault injection + checkpoint resume"
fault_exit=0
VLPP_THREADS=4 VLPP_FAULT=panic@2 \
    "$VLPP" all --json --scale 1000000 >"$scratch/fault.json" 2>/dev/null || fault_exit=$?
if [ "$fault_exit" -ne 2 ]; then
    echo "error: injected-fault run must exit 2 (partial), got $fault_exit" >&2
    exit 1
fi
if ! grep -q '"errors"' "$scratch/fault.json"; then
    echo "error: injected-fault run is missing its errors section" >&2
    exit 1
fi
#    6b. Crash-safe resume: kill a checkpointed run mid-way, resume it,
#        and require stdout byte-identical to the uninterrupted run.
ckpt_dir="$scratch/ckpt"
mkdir -p "$ckpt_dir"
VLPP_THREADS=1 "$VLPP" all --json --scale 1000000 --checkpoint "$ckpt_dir" \
    >/dev/null 2>&1 &
ckpt_pid=$!
sleep 1
kill -9 "$ckpt_pid" 2>/dev/null || true
wait "$ckpt_pid" 2>/dev/null || true
VLPP_THREADS=1 "$VLPP" all --json --scale 1000000 --checkpoint "$ckpt_dir" \
    >"$scratch/resume.json" 2>/dev/null
if ! cmp -s "$scratch/t1.json" "$scratch/resume.json"; then
    echo "error: resumed checkpoint run differs from an uninterrupted run" >&2
    exit 1
fi
echo "ok: faults degrade gracefully and checkpoint resume is byte-identical"

# 7. Fault, then resume: a failed experiment is never re-run in-process;
#    `--checkpoint` resume is how it is recovered. A checkpointed run
#    with an injected panic exits 2, and a fault-free rerun on the same
#    directory must print exactly what an uninterrupted run prints.
step "injected fault -> checkpoint resume"
ckpt_dir="$scratch/ckpt_fault"
mkdir -p "$ckpt_dir"
fault_exit=0
VLPP_THREADS=4 VLPP_FAULT=panic@2 "$VLPP" all --json --scale 1000000 \
    --checkpoint "$ckpt_dir" >/dev/null 2>&1 || fault_exit=$?
if [ "$fault_exit" -ne 2 ]; then
    echo "error: checkpointed injected-fault run must exit 2, got $fault_exit" >&2
    exit 1
fi
VLPP_THREADS=4 "$VLPP" all --json --scale 1000000 --checkpoint "$ckpt_dir" \
    >"$scratch/fault_resume.json" 2>/dev/null
if ! cmp -s "$scratch/t1.json" "$scratch/fault_resume.json"; then
    echo "error: resuming a faulted run differs from an uninterrupted run" >&2
    exit 1
fi
echo "ok: resume recomputes the failed experiment byte-identically"

# 8. Serving round trip: `vlpp loadgen` against a live `vlpp serve`
#    must complete with zero errors and predictions byte-identical to
#    the offline reference, at 1 and at 8 server worker threads (the
#    shard-affinity determinism contract, see SERVING.md).
step "serve/loadgen round trip at 1 and 8 threads"
for threads in 1 8; do
    : >"$scratch/serve.out"
    VLPP_THREADS="$threads" "$VLPP" serve --listen 127.0.0.1:0 --scale 1000000 \
        >"$scratch/serve.out" 2>/dev/null &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^SERVE .*"addr":"\([^"]*\)".*/\1/p' "$scratch/serve.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "error: vlpp serve (VLPP_THREADS=$threads) printed no SERVE line" >&2
        exit 1
    fi
    VLPP_THREADS=2 "$VLPP" loadgen --addr "$addr" --connections 8 --records 8000 \
        --update-every 4 --scale 1000000 --shutdown >"$scratch/loadgen.out" 2>&1
    if ! grep -q '"mismatches":0' "$scratch/loadgen.out"; then
        echo "error: loadgen vs serve (VLPP_THREADS=$threads) diverged:" >&2
        cat "$scratch/loadgen.out" >&2
        exit 1
    fi
    wait "$server_pid"
    server_pid=""
done
echo "ok: served predictions match the offline reference at 1 and 8 threads"

# 9. Snapshot warm restart: replay a prefix through a live server and
#    snapshot it, SIGKILL the server (a crash, not a drain), start a
#    fresh server from the snapshot, and replay the rest with --skip.
#    The second run's "stats_match":true proves the final counters
#    equal the offline reference over the WHOLE stream: nothing lost to
#    the crash, nothing double-counted by the restart (see SERVING.md).
step "snapshot save -> kill -9 -> warm-restart oracle"
snap="$scratch/model.vlps"
: >"$scratch/serve.out"
VLPP_THREADS=2 "$VLPP" serve --listen 127.0.0.1:0 --scale 1000000 \
    >"$scratch/serve.out" 2>/dev/null &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^SERVE .*"addr":"\([^"]*\)".*/\1/p' "$scratch/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "error: snapshot-drill server printed no SERVE line" >&2
    exit 1
fi
VLPP_THREADS=2 "$VLPP" loadgen --addr "$addr" --connections 4 --records 4000 \
    --scale 1000000 --save "$snap" >"$scratch/loadgen.out" 2>&1
if ! grep -q '"mismatches":0' "$scratch/loadgen.out"; then
    echo "error: pre-snapshot loadgen run diverged:" >&2
    cat "$scratch/loadgen.out" >&2
    exit 1
fi
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
if [ ! -s "$snap" ]; then
    echo "error: snapshot file $snap is missing or empty after the kill" >&2
    exit 1
fi
: >"$scratch/serve.out"
VLPP_THREADS=2 "$VLPP" serve --listen 127.0.0.1:0 --scale 1000000 \
    --snapshot "$snap" >"$scratch/serve.out" 2>/dev/null &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^SERVE .*"addr":"\([^"]*\)".*/\1/p' "$scratch/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "error: warm-restarted server printed no SERVE line" >&2
    exit 1
fi
VLPP_THREADS=2 "$VLPP" loadgen --addr "$addr" --no-train --skip 4000 \
    --records 8000 --connections 4 --scale 1000000 --shutdown \
    >"$scratch/loadgen.out" 2>&1
if ! grep -q '"mismatches":0' "$scratch/loadgen.out" ||
    ! grep -q '"stats_match":true' "$scratch/loadgen.out"; then
    echo "error: warm-restarted server diverged from the offline reference:" >&2
    cat "$scratch/loadgen.out" >&2
    exit 1
fi
wait "$server_pid"
server_pid=""
echo "ok: snapshot warm restart is lossless (oracle holds across kill -9)"

# 10. Cluster failover drill: 3 serve processes behind the routing
#    table, SIGKILL the primary of shard 0 mid-run, and require the
#    loadgen oracle to hold across the failover — byte-identical
#    predictions and shard-exact counters on the survivors — at 1 and
#    at 8 server worker threads.
step "cluster kill-a-node failover drill at 1 and 8 threads"
for threads in 1 8; do
    routing="$scratch/routing_$threads.json"
    VLPP_THREADS="$threads" "$VLPP" cluster --nodes 3 --shards 4 --scale 1000000 \
        --routing-out "$routing" >"$scratch/cluster.out" 2>/dev/null &
    cluster_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$routing" ] && break
        sleep 0.1
    done
    if [ ! -s "$routing" ]; then
        echo "error: vlpp cluster (VLPP_THREADS=$threads) wrote no routing table" >&2
        exit 1
    fi
    # Kill the primary of shard 0 (assignments[0][0] indexes nodes[],
    # and node ids are node{index} by construction).
    victim="node$(sed -n 's/.*"assignments":\[\[\([0-9]*\),.*/\1/p' "$routing")"
    VLPP_THREADS=2 "$VLPP" loadgen --routing "$routing" --records 6000 \
        --connections 4 --batch 32 --kill "$victim" --kill-after 10 \
        --scale 1000000 --shutdown >"$scratch/loadgen.out" 2>&1
    if ! grep -q '"mismatches":0' "$scratch/loadgen.out" ||
        ! grep -q '"stats_match":true' "$scratch/loadgen.out" ||
        ! grep -q '"killed":true' "$scratch/loadgen.out"; then
        echo "error: cluster failover (VLPP_THREADS=$threads) broke the oracle:" >&2
        cat "$scratch/loadgen.out" >&2
        exit 1
    fi
    wait "$cluster_pid"
    cluster_pid=""
done
echo "ok: the oracle holds across a SIGKILLed primary at 1 and 8 threads"

# 11. Self-healing chaos drill: kill -> respawn -> resync rounds against
#    one long-lived supervised cluster, with the loadgen oracle checked
#    after every round and cluster.respawns / cluster.resyncs /
#    serve.io_timeouts gated by vlpp-metrics-check (see ROBUSTNESS.md
#    §6 and scripts/chaos_drill.sh).
step "self-healing chaos drill (kill -> respawn -> resync)"
scripts/chaos_drill.sh 2
echo "ok: the cluster self-heals with zero oracle divergence"

# 12. Panic-hygiene gate: no `.unwrap()` in non-test code under the
#    error-spine crates (vlpp-trace, vlpp-sim). "Non-test" = lines
#    before the first `#[cfg(test)]` in each file, excluding comment
#    lines and `tests.rs` module files. New unwraps belong behind typed
#    VlppError paths instead (see ROBUSTNESS.md).
step "panic-hygiene gate"
unwrap_offenders=""
while IFS= read -r src; do
    found=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /\.unwrap\(\)/ && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
    ' "$src")
    if [ -n "$found" ]; then
        unwrap_offenders="$unwrap_offenders$found
"
    fi
done < <(find crates/trace/src crates/sim/src -name '*.rs' ! -name 'tests.rs')
if [ -n "$unwrap_offenders" ]; then
    echo "error: .unwrap() in non-test code (use a typed VlppError path):" >&2
    printf '%s' "$unwrap_offenders" | sed 's/^/    /' >&2
    exit 1
fi
echo "ok: no unwrap() in non-test vlpp-trace / vlpp-sim code"

# 13. Trace-ingestion golden replay: the checked-in 100-record sample
#    traces (ChampSim binary, CSV, JSONL — the same logical records in
#    each, see TRACES.md) must replay to byte-identical statistics,
#    matching the committed golden, both directly and after conversion
#    to the chunked compact format.
step "trace-ingestion golden replay"
golden="tests/data/golden_replay.json"
for sample in tests/data/sample.champsim tests/data/sample.csv tests/data/sample.jsonl; do
    "$VLPP" run --trace "$sample" --json >"$scratch/replay.json" 2>/dev/null
    if ! cmp -s "$golden" "$scratch/replay.json"; then
        echo "error: replay of $sample differs from $golden:" >&2
        diff "$golden" "$scratch/replay.json" >&2 || true
        exit 1
    fi
done
"$VLPP" ingest tests/data/sample.csv --out "$scratch/sample.vlpc" \
    --chunk-records 16 >/dev/null 2>&1
"$VLPP" run --trace "$scratch/sample.vlpc" --json >"$scratch/replay.json" 2>/dev/null
if ! cmp -s "$golden" "$scratch/replay.json"; then
    echo "error: compact-converted replay differs from $golden:" >&2
    diff "$golden" "$scratch/replay.json" >&2 || true
    exit 1
fi
echo "ok: all three sample formats + compact conversion match the golden replay"

# 14. Wall-clock of the full experiment suite at the default scale, as a
#    machine-readable BENCH line (same shape as the vlpp-check timer).
step "wall-clock BENCH line"
start=$(date +%s%N)
"$VLPP" all >/dev/null 2>&1
end=$(date +%s%N)
elapsed=$((end - start))
echo "BENCH {\"bench\":\"vlpp_all_default_scale\",\"iters\":1,\"median_ns\":$elapsed,\"mad_ns\":0,\"min_ns\":$elapsed,\"max_ns\":$elapsed}"

# 15. Tournament determinism + baseline gate: the predictor-zoo league
#    must be byte-identical at 1 and 8 worker threads and must hold the
#    committed accuracy baseline (every cell present, no miss rate above
#    its TOURNEY_baseline.json ceiling — the same gate CI's
#    tournament-smoke job applies).
step "predictor tournament determinism + accuracy baseline"
VLPP_THREADS=1 "$VLPP" tournament --json --scale 1000000 >"$scratch/tourney1.out" 2>/dev/null
VLPP_THREADS=8 "$VLPP" tournament --json --scale 1000000 >"$scratch/tourney8.out" 2>/dev/null
if ! cmp -s "$scratch/tourney1.out" "$scratch/tourney8.out"; then
    echo "error: vlpp tournament --json differs between VLPP_THREADS=1 and 8" >&2
    exit 1
fi
./target/release/vlpp-metrics-check --tourney --baseline TOURNEY_baseline.json \
    <"$scratch/tourney1.out"
echo "ok: the league is thread-deterministic and holds the accuracy baseline"

# The skipped-step backstop: if control flow ever bypasses a step (an
# early return, a refactor gone wrong), this fails the run even though
# nothing above errored.
if [ "$steps_run" -ne "$EXPECTED_STEPS" ]; then
    echo "error: only $steps_run of $EXPECTED_STEPS verification steps ran" >&2
    exit 1
fi
echo "ok: all $EXPECTED_STEPS verification steps ran"
