#!/usr/bin/env bash
# Functions nothing calls: every `pub fn` / `pub(crate) fn` whose name
# occurs in the `.rs` files under crates/, tests/, examples/, src/,
# benchmark/src/ and benchmark/tests/ only where a function of that name is
# defined. Names that common traits define (`new`, `fmt`, `next`,
# `default`, `len`, `is_empty`) are skipped. Lists each such definition and
# exits 1 when there is one.
#
#   ci/unused-pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=(crates tests examples src benchmark/src benchmark/tests)
tokens() { grep -rhoE --include='*.rs' "$1" "${dirs[@]}" | awk -v tag="$2" '{ print tag, $NF }'; }
unused=$({
    tokens 'pub(\(crate\))? fn [A-Za-z_][A-Za-z0-9_]*' P
    tokens '\bfn [A-Za-z_][A-Za-z0-9_]*' D
    tokens '\b[A-Za-z_][A-Za-z0-9_]*\b' W
} | awk '$1 == "P" { pub[$2] = 1 } $1 == "D" { def[$2]++ } $1 == "W" { seen[$2]++ }
         END { split("new fmt next default len is_empty", s); for (i in s) skip[s[i]] = 1
               for (n in pub) if (!(n in skip) && seen[n] == def[n]) print n }' | sort)
[ -z "$unused" ] && exit 0
for name in $unused; do
    grep -rnE --include='*.rs' "pub(\(crate\))? fn $name\b" "${dirs[@]}"
done
exit 1
