#!/usr/bin/env bash
# Runs `cargo test -q --locked --offline` once per argument, each
# argument being one target and filter ("-p vlpp-sim --test prop_snapshot").
# A filter that matches nothing would pass silently, so every run must
# also report at least one passed test.
#
#   scripts/test_targets.sh "-p vlpp-core --test prop_kernel" "-p vlpp-sim --lib runner::"
set -euo pipefail

for target in "$@"; do
    # Word splitting of $target is intended: it holds several cargo arguments.
    # shellcheck disable=SC2086
    out=$(cargo test -q --locked --offline $target 2>&1) || { echo "$out"; exit 1; }
    echo "$out"
    if ! echo "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed'; then
        echo "error: \`cargo test $target\` ran no tests" >&2
        exit 1
    fi
done
