#!/usr/bin/env bash
# Non-test lines per crate: for every `crates/<crate>/src/**/*.rs`, the
# lines before the file's first `#[cfg(test)]` (the whole file when it has
# none); a file under the inner form `#![cfg(test)]` is all tests and
# counts 0. This is the unit every ROADMAP line budget is stated in.
#
#   ci/nontest-lines.sh            # one row per crate, and the total
#   ci/nontest-lines.sh core       # one crate, file by file
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^[[:space:]]*#!\[cfg\(test\)\]/ { n = 0; exit }
         /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         { n++ } END { print n + 0 }' "$1"
}

total=0
for dir in crates/${1:-*}; do
    sum=0
    while IFS= read -r file; do
        n=$(count "$file")
        sum=$((sum + n))
        [ $# -eq 0 ] || printf '  %6d  %s\n' "$n" "$file"
    done < <(find "$dir/src" -name '*.rs' | sort)
    printf '%-12s %6d\n' "$(basename "$dir")" "$sum"
    total=$((total + sum))
done
[ $# -gt 0 ] || printf '%-12s %6d\n' total "$total"
