#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs two sets of five runs of
# every workload on the same code, alternating A and B so that drift
# on the box hits both, and compares the sets' medians per
# workload/metric against the regression bound in BENCHMARK.json.
#
#   benchmark/selfcheck.sh            # about 20 minutes at 20 s a run
#
# Exit status: 0 when every difference is within its bound, 1 when one
# is not. A difference above half its bound is flagged with `!`: fix
# the workload (round length, working set, schedule), do not widen the
# bound.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/simdize-benchmark"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for run in 1 2 3 4 5; do
    for workload in $workloads; do
        for set in A B; do
            echo "run $run/5 set $set $workload" >&2
            "$bin" --workload "$workload" --seed "$run" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$workload.$set.$run.json"
        done
    done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
worst = 0
print("| workload | metric | unit | set A median | set B median | difference | bound |")
print("|---|---|---|---|---|---|---|")
for workload in (w["name"] for w in spec["workloads"]):
    sets = {}
    for s in "AB":
        runs = [json.load(open(f"{out}/{workload}.{s}.{r}.json")) for r in range(1, 6)]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run of set {s} failed its checks", file=sys.stderr)
            worst = 2
        sets[s] = runs
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = (statistics.median(r["metrics"][name]["value"] for r in sets[s]) for s in "AB")
        diff = abs(b - a) / a
        flag = " **over**" if diff > bound else " !" if diff > bound / 2 else ""
        worst = max(worst, 1 if diff > bound else 0)
        print(f"| {workload} | {name} | {metric['unit']} | {a:.6g} | {b:.6g} | {diff:.2%}{flag} | {bound:.0%} |")
sys.exit(min(worst, 1))
EOF
