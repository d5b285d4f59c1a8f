#!/usr/bin/env bash
# Lists the functions declared under internal/ that no binary links.
#
#   scripts/unlinked.sh
#
# Builds the nine binaries (cmd/*, examples/* and the benchmark module) with
# inlining off (-gcflags=all=-l), so that a called function keeps its own
# text symbol, and reads their symbols with `go tool nm`. Then it walks the
# `func` declarations of the non-test files under internal/ and prints each
# one whose symbol is in none of the binaries, as
#
#   <symbol> <file>:<line> <lines>
#
# A method is linked when either `T.M` or `(*T).M` is. It exits 1 when a
# printed function is not on the exemption list below, and 0 otherwise; the
# exempted ones are printed too, marked "exempt".
#
# Blind spot: a function reached only from an `init` (a registration table
# nobody reads, say) counts as linked.
#
# The binaries go under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Functions no binary links that stay, each with its reason. An entry is
# the symbol without its import path's directories, as a shell pattern.
exempt=(
  'yarn.(\*Cluster).KillNode|node-failure hook that ROADMAP item 3 uses for container failover'
  'yarn.(\*Application).Restarts|restart count that ROADMAP item 3 asserts on'
  'kafka.(\*Consumer).Commit|consumer-group offsets: ROADMAP item 4 uses or deletes them'
  'kafka.(\*Broker).CommitOffset|consumer-group offsets: ROADMAP item 4 uses or deletes them'
  'kafka.(\*Consumer).Lag|consumer-group offsets: ROADMAP item 4 uses or deletes them'
  'kafka.(\*Broker).Compact|forces compaction at a chosen point for the kv and kafka model tests and FuzzChangelogReplay'
  'kafka.(\*Broker).DeleteTopic|fault injection: TestChangelogLossFailsWindowTask loses a changelog under a running job'
  'samza.(\*RunningJob).Wait|waits for a job that ends itself (task failure, Coordinator.Shutdown) in the samza and executor tests'
  'udf.RegisterScalar|library API documented in the README'
  'udf.RegisterAggregate|library API documented in the README'
  'samza.(\*coordinatorState).Commit|Samza task API documented in the README'
  'samza.(\*coordinatorState).Shutdown|Samza task API documented in the README'
  'avro.(\*Codec).ReadFields|reference decoder that FuzzAvroDecode checks ColumnDecoder against'
  'avro.(\*Codec).Schema|record schema accessor that the avro and executor tests build records and kept sets from'
  'ast.(\**).exprNode|one-line marker method that closes the ast.Expr interface'
  'ast.(\**).stmtNode|one-line marker method that closes the ast.Statement interface'
  'ast.(\**).tableRefNode|one-line marker method that closes the ast.TableRef interface'
)

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

for d in cmd/* examples/*; do
  [ -d "$d" ] || continue
  go build -gcflags=all=-l -o "$bin/$(basename "$d")" "./$d"
done
(cd benchmark && go build -gcflags=all=-l -o "$bin/benchmark" .)

# Whole symbol names: a generic instantiation has spaces inside its
# brackets, so take everything after the address and kind, then drop the
# [...] instantiations (innermost first) so `F[go.shape...]` reads as `F`.
syms="$bin/symbols"
for b in "$bin"/*; do
  [ "$b" = "$syms" ] && continue
  go tool nm "$b"
done | sed -E 's/^ *[0-9a-f]+ +[A-Za-z] +//; :a; s/\[[^][]*\]//; ta' | sort -u >"$syms"

# One line per declaration: symbol, file:line, lines up to the closing brace.
decls() {
  find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort |
    while read -r f; do
      pkg="samzasql/$(dirname "$f")"
      awk -v pkg="$pkg" -v f="$f" '
        /^func / {
          if (name != "") print sym, f ":" start, NR - start
          s = substr($0, 6); name = ""; recv = ""
          if (s ~ /^\(/) {
            recv = substr(s, 2, index(s, ")") - 2)
            s = substr(s, index(s, ")") + 2)
            n = split(recv, r, " "); recv = r[n]
            sub(/\[.*/, "", recv)
          }
          match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
          if (name == "init" && recv == "") { name = ""; next }
          if (recv ~ /^\*/) sym = pkg ".(" recv ")." name
          else if (recv != "") sym = pkg "." recv "." name
          else sym = pkg "." name
          start = NR
          if ($0 ~ /}$/) { print sym, f ":" start, 1; name = "" }
          next
        }
        /^}/ && name != "" { print sym, f ":" start, NR - start + 1; name = "" }
      ' "$f"
    done
}

fail=0
while read -r sym at lines; do
  alt="$sym"
  case "$sym" in
    *'.(*'*) alt="$(sed -E 's/\.\(\*([^)]*)\)\./.\1./' <<<"$sym")" ;;
    *) alt="$(sed -E 's/^(.*\/[^.]*)\.([^.]+)\.([^.]+)$/\1.(*\2).\3/' <<<"$sym")" ;;
  esac
  if grep -qxF -e "$sym" -e "$alt" "$syms"; then continue; fi
  short="${sym#samzasql/internal/}"
  short="${short##*/}"
  why=""
  for e in "${exempt[@]}"; do
    # shellcheck disable=SC2053 # the entry is a pattern
    if [[ $short == ${e%%|*} ]]; then why="${e#*|}"; fi
  done
  if [ -n "$why" ]; then
    echo "$sym $at $lines exempt: $why"
  else
    echo "$sym $at $lines"
    fail=1
  fi
done < <(decls)
exit $fail
