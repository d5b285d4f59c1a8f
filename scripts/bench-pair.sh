#!/usr/bin/env bash
# Paired benchmark runs of a reference commit against the working tree.
#
#   scripts/bench-pair.sh REF WORKLOAD [PAIRS] [SEED]
#
# WORKLOAD is one workload of BENCHMARK.json, or "all" for each of them in
# turn, each with its own PAIRS pairs and its own table under its name.
#
# Exports REF's committed tree into a temporary directory (once, also for
# "all") and runs the repository benchmark with its gated settings,
#
#   bash benchmark/run.sh --workload W --seed S --seconds 14 --trace 0
#
# PAIRS times (default 10) on REF and on the working tree, alternating which
# side goes first. For every gated end-to-end metric of BENCHMARK.json it then
# prints both medians, both quartile pairs, how many pairs the working tree
# won, whether its median stays inside the metric's regression bound, and
# whether the gain rule holds: the working tree wins at least nine tenths of
# the pairs (ties count for neither side) and the medians differ by more than
# the distance between the quartiles of REF's own runs.
#
# It only invokes the benchmark; nothing under benchmark/ is changed. The
# export goes under $TMPDIR (default /tmp) and is removed on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 REF WORKLOAD [PAIRS] [SEED]" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" seed="${4:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# The workloads of BENCHMARK.json.
workloads="$(awk '
  /"workloads"/  { on = 1 }
  /"end_to_end"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, ""); print $2 }
' "$root/BENCHMARK.json")"
if [ "$workload" != all ] && ! grep -qx "$workload" <<<"$workloads"; then
  echo "$0: unknown workload $workload (want one of: $(echo $workloads) or all)" >&2
  exit 2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"

# The gated metrics, their direction and their bound, from BENCHMARK.json.
gated="$(awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/  { on = 0 }
  on && /"name"/   { gsub(/[",]/, ""); name = $2 }
  on && /"better"/ { gsub(/[",]/, ""); better = $2 }
  on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
' "$root/BENCHMARK.json")"

# run W DIR OUT: one benchmark run of workload W in DIR; its last output line
# (the JSON summary) is appended to OUT.
run() {
  (cd "$2" && bash benchmark/run.sh --workload "$1" --seed "$seed" --seconds 14 --trace 0) | tail -n 1 >>"$3"
}

# values FILE METRIC: the metric of every run in FILE, one per line.
values() {
  grep -o "\"$2\":{\"value\":[^,]*" "$1" | sed 's/.*"value"://'
}

failed() { grep -o '"failed":[0-9]*' "$1" | awk -F: '{ s += $2 } END { print s + 0 }'; }

# pairs_of W: the paired runs of workload W, then its table.
pairs_of() {
  local w="$1" ref_out="$work/$1.ref.jsonl" new_out="$work/$1.new.jsonl"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run "$w" "$work/ref" "$ref_out"
      run "$w" "$root" "$new_out"
    else
      run "$w" "$root" "$new_out"
      run "$w" "$work/ref" "$ref_out"
    fi
    echo "$w: pair $i/$pairs done" >&2
  done
  table "$w" "$ref_out" "$new_out"
}

# table W REF_OUT NEW_OUT: per gated metric, the medians, quartiles, wins and
# verdicts of workload W's runs.
table() {
  echo "workload $1, seed $seed, $pairs pairs: $ref (ref) against the working tree (new)"
  echo "failed rows: ref $(failed "$2"), new $(failed "$3")"
  while read -r metric better bound; do
    paste <(values "$2" "$metric") <(values "$3" "$metric") |
      awk -v metric="$metric" -v better="$better" -v bound="$bound" '
        function quantile(v, n, p,    pos, lo, frac) {
          pos = (n - 1) * p; lo = int(pos); frac = pos - lo
          return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
        }
        function sorted(src, dst, n,    i, j, t) {
          for (i = 1; i <= n; i++) dst[i] = src[i]
          for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
        }
        { n++; ref[n] = $1; new[n] = $2
          if (better == "higher" ? $2 > $1 : $2 < $1) wins++
          else if ($2 != $1) losses++ }
        END {
          sorted(ref, r, n); sorted(new, w, n)
          rm = quantile(r, n, 0.5); wm = quantile(w, n, 0.5)
          rq1 = quantile(r, n, 0.25); rq3 = quantile(r, n, 0.75)
          gain = better == "higher" ? wm - rm : rm - wm
          worse = rm != 0 ? -gain / rm : 0
          printf "%-18s ref median %.6g [q1 %.6g, q3 %.6g]  new median %.6g [q1 %.6g, q3 %.6g]  (%+.1f%%, %s is better)\n",
            metric, rm, rq1, rq3, wm, quantile(w, n, 0.25), quantile(w, n, 0.75), rm != 0 ? 100 * (wm - rm) / rm : 0, better
          runs = "ref"; for (i = 1; i <= n; i++) runs = runs " " ref[i]
          runs = runs "; new"; for (i = 1; i <= n; i++) runs = runs " " new[i]
          printf "%-18s runs in order: %s\n", "", runs
          within = (worse > bound) ? "OUTSIDE" : "inside"
          rule = (wins >= 0.9 * n && gain > rq3 - rq1) ? "HOLDS" : "does not hold"
          printf "%-18s new wins %d, loses %d of %d pairs; %s the %.0f%% bound; gain rule %s\n", "",
            wins, losses, n, within, 100 * bound, rule
        }'
  done <<<"$gated"
}

if [ "$workload" = all ]; then
  for w in $workloads; do
    pairs_of "$w"
    echo
  done
else
  pairs_of "$workload"
fi
