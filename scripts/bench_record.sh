#!/usr/bin/env sh
# Appends one machine-readable perf record to BENCH_history.jsonl: the
# wall-clock of a full `vlpp all --json --metrics` run plus the METRICS
# snapshot it printed (see OBSERVABILITY.md for the record schema).
# Also prints one `BENCH {json}` line on stdout (the vlpp-check timer
# shape) so CI can pipe this script into
# `vlpp-metrics-check --bench --baseline BENCH_baseline.json`.
#
# Run from the repository root (or anywhere inside it):
#   scripts/bench_record.sh [scale]
#
# `scale` is the --scale divisor (default 16, the repo default). Use
# 1000000 for a seconds-long smoke record.
#
# Set VLPP_BENCH_TRACE=<file> to time `vlpp run --trace <file>` over an
# ingested trace instead of the synthetic suite; the record's "trace"
# field then carries the file path instead of "synth", so trend tooling
# never compares synthetic and ingested-trace runs against each other.
#
# Set VLPP_SKIP_BUILD=1 when ./target/release already holds the binaries
# (CI downloads them from the shared build-release artifact).
set -eu

cd "$(dirname "$0")/.."

scale="${1:-16}"
trace="${VLPP_BENCH_TRACE:-synth}"
history="BENCH_history.jsonl"

if [ "${VLPP_SKIP_BUILD:-0}" != "1" ]; then
    cargo build --release --offline >&2
fi

start=$(date +%s%N)
if [ "$trace" = "synth" ]; then
    stdout=$(VLPP_THREADS="${VLPP_THREADS:-}" ./target/release/vlpp all --json \
        --scale "$scale" --metrics 2>/dev/null)
else
    stdout=$(VLPP_THREADS="${VLPP_THREADS:-}" ./target/release/vlpp run \
        --trace "$trace" --json --metrics 2>/dev/null)
fi
end=$(date +%s%N)
wall_ns=$((end - start))

metrics=$(printf '%s\n' "$stdout" | sed -n 's/^METRICS //p')
if [ -z "$metrics" ]; then
    echo "error: no METRICS line in vlpp output" >&2
    exit 1
fi
# The snapshot must parse with the in-tree parser before it is recorded.
printf 'METRICS %s\n' "$metrics" | ./target/release/vlpp-metrics-check >&2

# The tournament league at the same scale, recorded under "tourney" so
# the history tracks accuracy trends next to wall-clock trends. The
# synthetic suite is the only workload the league is defined over, so a
# trace-replay record carries no tourney key.
tourney=""
if [ "$trace" = "synth" ]; then
    tourney=$(VLPP_THREADS="${VLPP_THREADS:-}" ./target/release/vlpp tournament \
        --json --scale "$scale" 2>/dev/null | sed -n 's/^TOURNEY //p')
    if [ -z "$tourney" ]; then
        echo "error: no TOURNEY line in vlpp tournament output" >&2
        exit 1
    fi
fi

if [ -n "$tourney" ]; then
    record="{\"ts\":$(date +%s),\"scale\":$scale,\"trace\":\"$trace\",\"wall_ns\":$wall_ns,\"metrics\":$metrics,\"tourney\":$tourney}"
else
    record="{\"ts\":$(date +%s),\"scale\":$scale,\"trace\":\"$trace\",\"wall_ns\":$wall_ns,\"metrics\":$metrics}"
fi

# Crash-safe append: build the new history in a temp sibling and rename
# it into place. A plain `>>` cut short by a crash or full disk leaves a
# torn last line that breaks every later consumer of the .jsonl; the
# rename is atomic, so the history is always either the old file or the
# complete new one.
tmp="$history.tmp.$$"
trap 'rm -f "$tmp"' EXIT
if [ -f "$history" ]; then
    cp "$history" "$tmp"
else
    : >"$tmp"
fi
printf '%s\n' "$record" >>"$tmp"
mv "$tmp" "$history"
trap - EXIT
echo "recorded: scale=1/$scale trace=$trace wall_ns=$wall_ns -> $history" >&2

# The stdout BENCH line: a single-iteration timing in the same shape the
# in-tree bench harness emits, keyed by scale (or trace-replay mode) so
# baselines from different workloads never compare against each other.
if [ "$trace" = "synth" ]; then
    bench_name="vlpp_all_scale_$scale"
else
    bench_name="vlpp_run_trace"
fi
echo "BENCH {\"bench\":\"$bench_name\",\"iters\":1,\"median_ns\":$wall_ns,\"mad_ns\":0,\"min_ns\":$wall_ns,\"max_ns\":$wall_ns}"

# The records/sec microbench: four more BENCH lines (the conditional
# and indirect kernels, the serve codec and the §3.5 profile). Each carries a `records_per_sec` field, which
# `vlpp-metrics-check --bench` gates against the `min_records_per_sec`
# floors in BENCH_baseline.json.
./target/release/vlpp microbench --records "${VLPP_MICROBENCH_RECORDS:-200000}"
