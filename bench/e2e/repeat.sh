#!/usr/bin/env bash
# Repeated runs of the end-to-end benchmark, for its spreads. Run from the
# repository root.
#
#   bash bench/e2e/repeat.sh N [SEED0]
#       Runs every workload in BENCHMARK.json N rounds in rotating order
#       through bench/e2e/run.py (round i starts at the i-th workload and
#       uses seed SEED0 + i, default 2010), keeps each run's result line under
#       .bench_build/repeat-<pid>/, and prints every end-to-end metric's
#       median, quartiles and spread (Q3 - Q1) / median next to its bound
#       in BENCHMARK.json. A spread above a third of the bound is flagged.
#
#   bash bench/e2e/repeat.sh compare DIR_A DIR_B
#       Compares the medians of two such result directories: flags every
#       (workload, metric) whose median in B is worse than in A by more
#       than the metric's bound.
set -euo pipefail

summarize() {
  python3 - "$@" <<'EOF'
import glob, json, os, statistics, sys

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
order = [w["name"] for w in spec["workloads"]]

def load(d):
    runs = {}
    for path in glob.glob(os.path.join(d, "*.json")):
        workload = os.path.basename(path).split(".")[0]
        try:
            result = json.load(open(path))
        except ValueError:
            print(f"{path}: no result")
            continue
        if not result["correct"]:
            print(f"{path}: correct=false")
        runs.setdefault(workload, []).append(result["metrics"])
    if not runs:
        sys.exit(f"no results in {d}")
    return runs

def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0

if sys.argv[1] == "compare":
    a, b = load(sys.argv[2]), load(sys.argv[3])
    worst = 0
    for w in order:
        if w not in a or w not in b:
            continue
        for name, m in metrics.items():
            ma = statistics.median(r[name]["value"] for r in a[w])
            mb = statistics.median(r[name]["value"] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "WORSE" if worse > m["bound"] else ""
            worst += bool(flag)
            print(f"{w:15} {name:16} {ma:14.6g} {mb:14.6g} "
                  f"{worse:+8.4f} bound {m['bound']:.3f} {flag}")
    sys.exit(1 if worst else 0)

runs = load(sys.argv[1])
print(f"{'workload':15} {'metric':16} {'n':>3} {'median':>14} {'q1':>14} "
      f"{'q3':>14} {'spread':>8} {'bound':>6}")
flagged = 0
for w in order:
    for name, m in metrics.items():
        values = [r[name]["value"] for r in runs.get(w, [])]
        if not values:
            continue
        med, q1, q3, spread = stats(values)
        flag = "> bound/3" if spread > m["bound"] / 3 else ""
        flagged += bool(flag)
        print(f"{w:15} {name:16} {len(values):3} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f} {m['bound']:6.3f} {flag}")
print(f"results in {sys.argv[1]}; {flagged} spread(s) above a third of "
      "the bound")
EOF
}

if [[ "${1:-}" == "compare" ]]; then
  summarize compare "${2:?DIR_A}" "${3:?DIR_B}"
  exit $?
fi

rounds=${1:?usage: repeat.sh N [SEED0] | repeat.sh compare DIR_A DIR_B}
seed0=${2:-2010}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
out=.bench_build/repeat-$$
mkdir -p "$out"
for ((i = 0; i < rounds; i++)); do
  for ((j = 0; j < ${#workloads[@]}; j++)); do
    w=${workloads[$(( (i + j) % ${#workloads[@]} ))]}
    python3 bench/e2e/run.py --workload "$w" --seed $((seed0 + i)) \
      --seconds "$seconds" --trace 0 > "$out/$w.$i.log" ||
      echo "repeat.sh: $w round $i exited non-zero" >&2
    tail -n 1 "$out/$w.$i.log" > "$out/$w.$i.json"
  done
done
summarize "$out"
