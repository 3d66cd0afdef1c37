#!/bin/sh
# Non-test source size: for every crates/*/src/**/*.rs, the lines before
# the file's first `#[cfg(test)]` (the whole file when it has none).
# Prints a per-crate table and the total. With a ceiling as the first
# argument, exits 1 when the total exceeds it.
set -eu
cd "$(dirname "$0")/.."
table=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ }
        END { split(f, p, "/"); print p[2], n + 0 }' "$f"
done | awk '{ c[$1] += $2; t += $2 }
    END { for (k in c) printf "%-12s %6d\n", k, c[k]; printf "%-12s %6d\n", "~total", t }' |
    sort | sed 's/^~total/total /')
echo "$table"
total=$(echo "$table" | awk '$1 == "total" { print $2 }')
if [ "${1:-}" ] && [ "$total" -gt "$1" ]; then
    echo "non-test source grew past the ceiling: $total > $1" >&2
    exit 1
fi
