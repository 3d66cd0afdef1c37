#!/bin/sh
# Non-test source size: for every crates/*/src/**/*.rs, the lines before
# the file's first `#[cfg(test)]` (the whole file when it has none).
# Prints a per-crate table and the total. With a CEILING argument, exits
# 1 when the total exceeds it; `--json FILE` also writes the table as a
# BENCH-shaped artifact for `dns-perfdb ingest` (every leaf is neutral).
set -eu
ceiling='' json=''
while [ $# -gt 0 ]; do
    case $1 in
    --json) case $2 in /*) json=$2 ;; *) json=$PWD/$2 ;; esac && shift 2 ;;
    *) ceiling=$1 && shift ;;
    esac
done
cd "$(dirname "$0")/.."
table=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ }
        END { split(f, p, "/"); print p[2], n + 0 }' "$f"
done | awk '{ c[$1] += $2; t += $2 }
    END { for (k in c) printf "%-12s %6d\n", k, c[k]; printf "%-12s %6d\n", "~total", t }' |
    sort | sed 's/^~total/total /')
echo "$table"
total=$(echo "$table" | awk '$1 == "total" { print $2 }')
if [ "$json" ]; then
    echo "$table" | awk 'BEGIN { printf "{\"bench\":\"src_loc\",\"lines\":{" }
        $1 != "total" { printf "%s\"%s\":%d", sep, $1, $2; sep = "," }
        END { printf "},\"total\":%d}\n", $2 }' >"$json"
fi
if [ "$ceiling" ] && [ "$total" -gt "$ceiling" ]; then
    echo "non-test source grew past the ceiling: $total > $ceiling" >&2
    exit 1
fi
