#!/usr/bin/env bash
# Prints the CI-scale `--json` output of every experiment that `vlpp all`
# does not run, as one JSON object keyed by experiment id. Its output is
# the golden file tests/data/golden_experiments_ci.json, which
# integration_cli compares byte for byte.
#
#   scripts/golden_experiments.sh [VLPP_BINARY] > tests/data/golden_experiments_ci.json
#
# VLPP_BINARY defaults to target/release/vlpp.
set -euo pipefail

vlpp=${1:-target/release/vlpp}
ids=(analyze lengths ras frontend related-cond related-ind
     ablate-hashes ablate-select ablate-returns ablate-candidates
     ablate-interference ablate-stack)

echo "{"
for i in "${!ids[@]}"; do
    id=${ids[$i]}
    out=$("$vlpp" "$id" --json --scale ci 2>/dev/null)
    separator=","
    [ "$i" -eq $((${#ids[@]} - 1)) ] && separator=""
    # Nest the id's pretty JSON one level deeper: indent all but its first line.
    printf '  "%s": %s%s\n' "$id" "$(printf '%s\n' "$out" | sed '2,$s/^/  /')" "$separator"
done
echo "}"
