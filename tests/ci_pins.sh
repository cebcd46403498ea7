#!/usr/bin/env bash
# Holds the repository benchmark's exact counts and hashes to
# tests/pins/ci.txt, one `<workload> <key> <value>` line each.
#
# Runs every workload the file names with `--seed 2023 --seconds 3`,
# writes the observed value of every pinned key, in file order, to
# target/tmp/pins/ci.txt (`MISSING` when no output line has the key as
# its first field), and diffs that against the pins. A key matches when
# some output line has it as its first field and the pinned value as its
# second. Exits nonzero on any difference; re-recording is
# `cp target/tmp/pins/*.txt tests/pins/`, as for the test suites' pins.
#
# Usage, from anywhere in the checkout: bash tests/ci_pins.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pins=tests/pins/ci.txt
observed=target/tmp/pins
mkdir -p "$observed"
: >"$observed/ci.txt"
for workload in $(awk '!seen[$1]++ { print $1 }' "$pins"); do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 2023 --seconds 3 | tee "$observed/$workload.out"
    awk -v workload="$workload" '
        NR == FNR { if ($1 == workload) { keys[++n] = $2; want[$2] = $3 }; next }
        ($1 in want) && (!($1 in got) || $2 == want[$1]) { got[$1] = $2 }
        END { for (i = 1; i <= n; i++) print workload, keys[i], ((keys[i] in got) ? got[keys[i]] : "MISSING") }
    ' "$pins" "$observed/$workload.out" >>"$observed/ci.txt"
done
diff -u "$pins" "$observed/ci.txt"
