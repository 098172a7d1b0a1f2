#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs must agree.

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` for every workload ``--runs`` times in each of two sets
(set A on seeds ``1..runs``, set B on seeds ``101..100+runs``), with the
two sets interleaved run by run and the one that goes first alternating.
Prints every run's attempted and failed counts, then per workload and
end-to-end metric each set's median and quartiles, the spread (quartile
distance over the median) and how far set B's median moved from set A's
in the metric's worse direction, both as shares and against the bound in
``BENCHMARK.json``.  The sets agree when, for every metric, neither
spread exceeds the bound, the median moved by no more than the bound,
and both sets failed the same share of requests.
Exit code 0 when they agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One benchmark run's result line and its wall time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs: dict[tuple[str, str], list[dict]] = {}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for name in order:
                seed = (1 if name == "A" else 101) + i
                out, wall = run_once(workload, seed, bench["run_seconds"])
                runs.setdefault((workload, name), []).append(out)
                values = " ".join(
                    f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                    for m in metrics
                )
                print(f"run {workload} set {name} seed {seed}: attempted "
                      f"{out['attempted']} failed {out['failed']} "
                      f"correct {out['correct']} ({wall:.0f} s) {values}", flush=True)

    agree = True
    for workload in workloads:
        a, b = runs[(workload, "A")], runs[(workload, "B")]
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                 for s in (a, b)]
        correct = all(r["correct"] for r in a + b)
        ok_fail = share[0] == share[1] and correct
        agree &= ok_fail
        print(f"\n{workload}: failed share A {share[0]:.4f} B {share[1]:.4f}, "
              f"all correct {correct}")
        print(f"  {'metric':22s} {'unit':10s} {'set':3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'moved':>7s} "
              f"{'bound':>6s} verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sa = summary([r["metrics"][name]["value"] for r in a])
            sb = summary([r["metrics"][name]["value"] for r in b])
            sign = 1 if m["better"] == "lower" else -1
            moved = sign * (sb[0] - sa[0]) / sa[0]
            ok = max(sa[3], sb[3]) <= bound and moved <= bound
            agree &= ok
            for label, (med, q1, q3, spread) in (("A", sa), ("B", sb)):
                tail = (f"{moved:7.3f} {bound:6.2f} {'ok' if ok else 'FAIL'}"
                        if label == "B" else "")
                print(f"  {name:22s} {m['unit']:10s} {label:3s} {med:12.4f} "
                      f"{q1:12.4f} {q3:12.4f} {spread:7.3f} {tail}")
    print(f"\nthe two sets {'agree' if agree else 'DO NOT agree'} "
          "within the bounds in BENCHMARK.json")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
