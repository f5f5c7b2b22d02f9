#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and checks that its
end-to-end metrics are steady enough for their bounds.

    python3 auditbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                     [--first-seed 1] [--seconds S]

Run from the repository root. Each set runs every workload once per
seed (seeds first-seed, first-seed+1, ...), interleaving workloads so a
contended phase of the host spreads over all of them. For each set and
workload it prints the median and quartiles of every end-to-end metric
and the quartile spread as a share of the median; for each later set it
prints how far its median moved from the first set's, in the metric's
worse direction. Both are judged against the bounds in BENCHMARK.json,
for every metric. Raw results are
written to $CARGO_TARGET_DIR/steadiness.json. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["run"] if len(lines) > 1 else {}
    if not result["correct"]:
        sys.exit(f"incorrect run: {' '.join(cmd)}: {meta.get('failures')}")
    return {name: m["value"] for name, m in result["metrics"].items()}, meta


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {}  # (set, workload) -> metric -> [values]
    hosts = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + i
            for w in workloads:
                got, meta = run_once(w, seed, args.seconds)
                hosts.append({"set": s, "workload": w, "seed": seed, "metrics": got,
                              "run": meta})
                for name, v in got.items():
                    values.setdefault((s, w), {}).setdefault(name, []).append(v)
                print(f"set {s} seed {seed} {w}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in got.items()), file=sys.stderr)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(os.path.join(ROOT, target), exist_ok=True)
    with open(os.path.join(ROOT, target, "steadiness.json"), "w") as out:
        json.dump(hosts, out, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'moved':>7}")
        for m in metrics:
            first = None
            for s in range(args.sets):
                vs = values[(s, w)][m["name"]]
                q1, med, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                moved = "" if first is None else f"{worse_by(m, first, med):+.3f}"
                flag = ""
                if spread > m["bound"]:
                    flag, ok = " SPREAD", False
                elif spread > m["bound"] / 3:
                    flag = " (over a third)"
                if first is not None and worse_by(m, first, med) > m["bound"]:
                    flag, ok = flag + " MOVED", False
                print(f"  {m['name']:<18} {s:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {m['bound']:>6} {moved:>7}{flag}")
                first = med if first is None else first
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
