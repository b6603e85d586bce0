#!/usr/bin/env bash
# Run the Detect benchmarks, the per-layer benchmarks (alphabet
# translation, n-gram extraction, H3 hashing, membership kernels) and the
# in-process serving benchmarks (BenchmarkServe/*: one request per
# endpoint through the HTTP handler) and write the results as JSON so
# the performance trajectory is tracked per PR.
# Usage:
#
#   scripts/bench.sh [OUT.json] [BENCHTIME]
#   BASE_REF=<rev> scripts/bench.sh [OUT.json] [BENCHTIME]
#
# Defaults: OUT=BENCH.json, BENCHTIME=200ms (raise for stable numbers,
# e.g. scripts/bench.sh BENCH_pr7.json 1s).
#
# Without BASE_REF the benchmarks run once on this checkout.
#
# With BASE_REF the run is a same-machine A/B: <rev> is checked out in
# a temporary git worktree, base and head test binaries are built once
# each, and the two run interleaved nine times, alternating which side
# goes first; nine pairs keep one noisy run on a small machine from
# moving a median. OUT.json records each benchmark's head median next
# to the base median, with MB/s (the paper's §5.4 unit) wherever the
# benchmark sets its byte count, and how many of the pairs head lost
# (was slower in). The run fails if a gated benchmark's head median is
# more than 20% slower than its base median. Gated are
# the single-document Detect hot path (BenchmarkDetector,
# BenchmarkDetectorBackends/*), segmentation (BenchmarkDetectSpans/*),
# the membership kernels (BenchmarkKernel/*) and the serving handler
# per endpoint (BenchmarkServe/*); Rank/Batch allocate or fan out by
# design, and the translation, extraction and hashing layers
# (BenchmarkTranslateInto, BenchmarkExtract*, BenchmarkHashAll*) are
# inputs to the gated paths, so those are tracked but not gated. A
# benchmark the base lacks is reported, not gated.
set -euo pipefail

out=${1:-BENCH.json}
benchtime=${2:-200ms}
base_ref=${BASE_REF:-}
regression_pct=20
pattern='Detect|Kernel|TranslateInto|Extract|HashAll|Serve'
if [ -n "$base_ref" ]; then count=9; else count=1; fi

out=$(cd "$(dirname "$out")" && pwd)/$(basename "$out")
root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
cleanup() {
  if [ -d "$tmp/base" ]; then git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT

# The packages that declare matching benchmarks, relative to the root.
pkgs=$(grep -rlE --include='*_test.go' "^func Benchmark[A-Za-z0-9]*($pattern)" . | grep -v '^\./perfbench/' | xargs -n1 dirname | sort -u)

# build SIDE DIR: compile one test binary per package of DIR.
build() {
  local side=$1 dir=$2 pkg
  for pkg in $pkgs; do
    [ -d "$dir/$pkg" ] || continue
    (cd "$dir/$pkg" && go test -c -o "$tmp/$side-$(echo "$pkg" | tr -c 'A-Za-z0-9\n' _).test" .) >&2
  done
}

# run SIDE DIR I: run SIDE's binaries from their package directories
# (tests read testdata relative to them), tagging each output line
# with the side and the run number I.
run() {
  local side=$1 dir=$2 i=$3 pkg bin
  for pkg in $pkgs; do
    bin="$tmp/$side-$(echo "$pkg" | tr -c 'A-Za-z0-9\n' _).test"
    [ -x "$bin" ] || continue
    (cd "$dir/$pkg" && "$bin" -test.run '^$' -test.bench "$pattern" -test.benchtime "$benchtime" -test.benchmem -test.timeout 30m) |
      tee /dev/stderr | sed "s/^/$side $i /" >> "$tmp/raw"
  done
}

build head "$root"
if [ -n "$base_ref" ]; then
  git worktree add --detach "$tmp/base" "$base_ref" >&2
  build base "$tmp/base"
fi
: > "$tmp/raw"
for i in $(seq 1 "$count"); do
  if [ -z "$base_ref" ]; then
    run head "$root" "$i"
  elif [ $((i % 2)) -eq 1 ]; then
    run head "$root" "$i"; run base "$tmp/base" "$i"
  else
    run base "$tmp/base" "$i"; run head "$root" "$i"
  fi
done

# One line per result: side name iterations ns/op B/op allocs/op
# ns/ngram MB/s run ("-" where a benchmark does not report the unit). The
# -GOMAXPROCS suffix go test appends on multi-core machines is
# stripped, so names are machine-independent and diffable.
awk '
$3 ~ /^Benchmark/ && NF >= 5 {
  name = $3; sub(/-[0-9]+$/, "", name)
  ns = "-"; bop = "-"; aop = "-"; ngram = "-"; mbs = "-"
  for (i = 5; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bop = $i
    if ($(i+1) == "allocs/op") aop = $i
    if ($(i+1) == "ns/ngram") ngram = $i
    if ($(i+1) == "MB/s") mbs = $i
  }
  if (ns != "-") print $1, name, $4, ns, bop, aop, ngram, mbs, $2
}' "$tmp/raw" > "$tmp/parsed"

# median SIDE NAME FIELD: the median of one column over a side's runs.
median() {
  awk -v s="$1" -v n="$2" -v f="$3" '$1 == s && $2 == n && $f != "-" { print $f }' "$tmp/parsed" | sort -g |
    awk '{ a[NR] = $1 } END { if (NR == 0) exit; printf "%.10g\n", (NR % 2) ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2 }'
}

# lost NAME: "L T" — of the T runs with both a head and a base result,
# the L where head's ns/op was higher.
lost() {
  awk -v n="$1" '$2 == n { if ($1 == "head") h[$9] = $4; else b[$9] = $4 }
    END { l = 0; t = 0; for (i in h) if (i in b) { t++; if (h[i] + 0 > b[i] + 0) l++ }; print l, t }' "$tmp/parsed"
}

gated() {
  case $1 in
    BenchmarkDetector | BenchmarkDetectorBackends/* | BenchmarkDetectSpans/* | BenchmarkKernel/* | BenchmarkServe/*) return 0 ;;
  esac
  return 1
}

names=$(awk '$1 == "head" && !seen[$2]++ { print $2 }' "$tmp/parsed")
[ -n "$names" ] || { echo "bench: no benchmark results parsed" >&2; exit 1; }
failed=0
lines=()
for name in $names; do
  iters=$(median head "$name" 3); ns=$(median head "$name" 4)
  line=$(printf '    {"name": "%s", "iterations": %.0f, "ns_per_op": %s' "$name" "$iters" "$ns")
  bop=$(median head "$name" 5); aop=$(median head "$name" 6); ngram=$(median head "$name" 7); mbs=$(median head "$name" 8)
  [ -n "$bop" ] && line+=", \"bytes_per_op\": $bop"
  [ -n "$aop" ] && line+=", \"allocs_per_op\": $aop"
  [ -n "$ngram" ] && line+=", \"ns_per_ngram\": $ngram"
  [ -n "$mbs" ] && line+=", \"mb_per_s\": $mbs"
  if [ -n "$base_ref" ]; then
    base=$(median base "$name" 4)
    if [ -z "$base" ]; then
      printf 'bench:   new   %-45s %12.0f ns/op (no base result)\n' "$name" "$ns" >&2
    else
      read -r nlost npairs <<< "$(lost "$name")"
      line+=$(awk -v b="$base" -v h="$ns" -v l="$nlost" -v t="$npairs" 'BEGIN { printf ", \"base_ns_per_op\": %s, \"speedup\": %.2f, \"pairs\": %d, \"pairs_head_slower\": %d", b, b / h, t, l }')
      if gated "$name"; then
        status=$(awk -v b="$base" -v h="$ns" -v p="$regression_pct" 'BEGIN { print (100 * (h - b) / b > p) ? "REGRESSED" : "ok" }')
        [ "$status" = ok ] || failed=1
        awk -v s="$status" -v n="$name" -v b="$base" -v h="$ns" -v l="$nlost" -v t="$npairs" 'BEGIN { printf "bench:   %-9s %-45s %12.0f -> %.0f ns/op (%+.1f%%), head slower in %d/%d pairs\n", s, n, b, h, 100 * (h - b) / b, l, t }' >&2
      fi
    fi
  fi
  lines+=("$line}")
done

{
  printf '{\n'
  printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
  if [ -n "$base_ref" ]; then
    printf '  "base_ref": "%s",\n' "$(git rev-parse "$base_ref")"
  fi
  printf '  "count": %d,\n' "$count"
  printf '  "benchmarks": [\n'
  for i in "${!lines[@]}"; do
    sep=,; [ "$i" -eq $((${#lines[@]} - 1)) ] && sep=
    printf '%s%s\n' "${lines[$i]}" "$sep"
  done
  printf '  ]\n}\n'
} > "$out"
echo "bench: wrote ${#lines[@]} results (median of $count) to $out" >&2

if [ "$failed" -ne 0 ]; then
  echo "bench: a gated benchmark regressed more than ${regression_pct}% against $base_ref" >&2
  exit 1
fi
