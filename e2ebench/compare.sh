#!/usr/bin/env bash
# Compares two sets of benchmark runs, metric by metric.
#
#   e2ebench/compare.sh [DIR_A [DIR_B]]
#
# For each workload in DIR_A's BENCHMARK.json, runs 10 times from checkout
# DIR_A (set A, seeds 1..10) and 10 times from DIR_B (set B, seeds
# 101..110), alternating which set goes first, each run for the file's
# run_seconds. Both directories default to the checkout holding this
# script, so with no arguments it measures the benchmark's own run-to-run
# and seed-to-seed spread. Prints every end-to-end metric's median and
# spread — (Q3 - Q1) / median, quartiles as Python's
# statistics.quantiles(values, n=4) gives them — for each set.
#
# Exits non-zero when any run fails its output checks, when a spread other
# than setup_s's exceeds the metric's bound, or when set B's median is worse
# than set A's by more than the bound (setup_s included; README "Measured
# spread" says why its spread is not gated). Runs marked invalid (open-loop
# generator late) are listed. Raw results and each run's standard error go
# to DIR_A/.bench_build/compare/.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
runs=10
dir_a="$(cd "${1:-$here/..}" && pwd)"
dir_b="$(cd "${2:-$dir_a}" && pwd)"
bench="$dir_a/BENCHMARK.json"
[[ -f "$bench" ]] || { echo "compare.sh: no $bench" >&2; exit 2; }
mapfile -t workloads < <(python3 -c \
  'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' \
  "$bench")
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")"

out="$dir_a/.bench_build/compare"
mkdir -p "$out"

run_one() {  # set dir workload seed
  local set="$1" dir="$2" workload="$3" seed="$4" line start
  start=$(date +%s%N)
  if line="$(cd "$dir" && python3 e2ebench/run.py --workload "$workload" \
               --seed "$seed" --seconds "$seconds" --trace 0 \
               2>"$out/$set-$workload-$seed.err" | tail -n 1)"; then
    :
  else
    echo "compare.sh: set $set $workload seed $seed exited non-zero" >&2
  fi
  if grep -q "INVALID" "$out/$set-$workload-$seed.err"; then
    line="INVALID $line"
  fi
  printf '%s\t%s\n' "$(( ($(date +%s%N) - start) / 1000000 ))" "$line" \
    >> "$out/$set-$workload.tsv"
  echo "  set $set $workload seed $seed done" >&2
}

for workload in "${workloads[@]}"; do
  rm -f "$out/A-$workload.tsv" "$out/B-$workload.tsv"
  for ((i = 1; i <= runs; i++)); do
    if ((i % 2)); then
      run_one A "$dir_a" "$workload" "$i"
      run_one B "$dir_b" "$workload" "$((100 + i))"
    else
      run_one B "$dir_b" "$workload" "$((100 + i))"
      run_one A "$dir_a" "$workload" "$i"
    fi
  done
done

python3 - "$bench" "$out" "${workloads[@]}" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
metrics = bench["end_to_end"]
failed = False


def load(path):
    runs = []
    for row in open(path):
        wall_ms, _, line = row.rstrip("\n").partition("\t")
        invalid = line.startswith("INVALID ")
        try:
            result = json.loads(line[len("INVALID "):] if invalid else line)
        except ValueError:
            result = {"correct": False, "metrics": {}}
        result["invalid"] = invalid
        runs.append((float(wall_ms) / 1000, result))
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


print("%-13s %-17s %13s %7s %13s %7s %8s %6s  %s" % (
    "workload", "metric", "A median", "A IQR", "B median", "B IQR",
    "B vs A", "bound", "verdict"))
for workload in workloads:
    sets = {s: load("%s/%s-%s.tsv" % (out, s, workload)) for s in "AB"}
    for s, runs in sets.items():
        bad = sum(1 for _, r in runs if not r.get("correct"))
        if bad:
            failed = True
            print("%-13s set %s: %d of %d runs failed their checks" % (
                workload, s, bad, len(runs)))
        invalid = sum(1 for _, r in runs if r["invalid"])
        if invalid:
            print("%-13s set %s: %d of %d runs invalid (generator late)" % (
                workload, s, invalid, len(runs)))
        walls = [w for w, _ in runs]
        print("%-13s set %s: %d runs, wall %.1f s median, %.1f s max" % (
            workload, s, len(runs), statistics.median(walls), max(walls)))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = {}
        for s, runs in sets.items():
            values = [r["metrics"][name]["value"] for _, r in runs
                      if name in r.get("metrics", {})]
            stats[s] = summary(values) if len(values) >= 2 else (float("nan"), float("inf"))
        (ma, sa), (mb, sb) = stats["A"], stats["B"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = []
        if name != "setup_s" and max(sa, sb) > bound:
            verdict.append("SPREAD>bound")
        elif name != "setup_s" and max(sa, sb) > bound / 3:
            verdict.append("spread>bound/3")
        if worse > bound:
            verdict.append("WORSE")
        failed = failed or "SPREAD>bound" in verdict or "WORSE" in verdict
        print("%-13s %-17s %13.6g %6.1f%% %13.6g %6.1f%% %+7.1f%% %5.0f%%  %s" % (
            workload, name, ma, 100 * sa, mb, 100 * sb, 100 * worse,
            100 * bound, " ".join(verdict) or "ok"))
sys.exit(1 if failed else 0)
PY
