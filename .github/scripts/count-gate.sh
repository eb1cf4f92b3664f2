#!/usr/bin/env bash
# count-gate.sh <base-ref>: runs the benchmark's end-to-end pass on <base-ref>
# and on the working tree and fails when a count metric — allocs_per_op,
# phys_hops_per_op, heap_mb: the ones that repeat within a few percent, so
# identical code cannot trip the gate — is worse than the base by more than
# its bound in BENCHMARK.json on any workload. Clock metrics are compared by
# the alternating-pairs procedure in benchmark/README.md, not here.
# The window is the benchmark's own 15 s: at 5 s churn-live's allocs_per_op
# spread 15 % over six runs of one binary, at 15 s under 8 % over five,
# against a bound of 20 %.
set -euo pipefail
base="${1:?usage: count-gate.sh <base-ref>}"
root="$(git rev-parse --show-toplevel)"
cd "$root"
if git diff --quiet "$base" --; then
	echo "count gate: tree identical to $base, nothing to compare"
	exit 0
fi
basedir="$(mktemp -d)"
trap 'rm -rf "$basedir"' EXIT
git archive "$base" | tar -x -C "$basedir"
for side in "$basedir" "$root"; do
	echo "count gate: benchmark/run.sh -trace 0 in $side" >&2
	(cd "$side" && bash benchmark/run.sh -trace 0) >&2
done
python3 - "$basedir/benchmark/out/results.json" benchmark/out/results.json BENCHMARK.json <<'PY'
import json, sys
base, change, decl = (json.load(open(p)) for p in sys.argv[1:4])
bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
failed = False
for workload in (w["name"] for w in decl["workloads"]):
    for metric in ("allocs_per_op", "phys_hops_per_op", "heap_mb"):
        b = base[workload][metric]["value"]
        c = change[workload][metric]["value"]
        worse = c > b * (1 + bounds[metric])
        failed |= worse
        print(f"count-gate {workload:15s} {metric:17s} {b:10.3f} -> {c:10.3f}  "
              f"{(c - b) / b if b else 0:+7.1%}  bound +{bounds[metric]:.0%}  {'WORSE' if worse else 'ok'}")
print("count gate", "FAILED" if failed else "passed")
sys.exit(failed)
PY
