"""Steadiness report: run workloads repeatedly and summarize each metric.

Usage, from the root of a source checkout::

    python3 perfbench/steady.py --runs 10 --seconds 20 --sets 2 --traced 2
    python3 perfbench/steady.py --workloads serve-mix --runs 5 --traced 2

For every workload it runs ``run.py`` once per seed (seeds ``--first-seed``
onwards, one process at a time) and prints, per end-to-end metric, the
median, the quartiles, their distance as a share of the median, the
metric's bound from BENCHMARK.json and whether the spread fits in it.
With ``--sets N`` it repeats that N times on the same seeds and then
prints each metric's median per set and how much worse each later set's
median is than the first, against the same bound.  ``--traced N`` adds
N untraced/traced pairs per workload, each pair run back to back on one
seed, and prints the traced run's end-to-end numbers against its pair's
(the tracing overhead), and whether every count in the per-layer table
repeated exactly in a second traced run of the first seed.  ``--save
FILE`` writes every run's full output as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int,
             save: Optional[str] = None) -> Dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    if save:
        with open(save, "a") as handle:
            handle.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": trace, "stdout": lines}) + "\n")
    return json.loads(lines[-1])


def load_spec() -> Dict[str, Dict]:
    """End-to-end metric name -> its entry in BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"]}


def report(workload: str, results: List[Dict], spec: Dict[str, Dict]) -> bool:
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n== {workload}: {len(results)} runs, attempted "
          f"{sorted({r['attempted'] for r in results})}, failed share {shares}, "
          f"correct {all(r['correct'] for r in results)}")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}  fits")
    steady = len(shares) == 1 and all(r["correct"] for r in results)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = measure.quartiles(values)
        share = measure.spread(values)
        bound = spec[name]["bound"] if name in spec else None
        if bound is None:
            fits = "-"
        else:
            fits = "yes" if share <= bound else "NO"
            if share > bound / 3:
                fits += " (over a third)"
            steady = steady and share <= bound
        bound_text = f"{bound:.0%}" if bound is not None else "-"
        print(f"{name:<18}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{share:>9.2%}"
              f"{bound_text:>8}  {fits}")
    return steady


def compare_sets(workload: str, sets: List[List[Dict]], spec: Dict[str, Dict]) -> bool:
    """Each metric's median per set, and how much worse each later set's
    median is than the first set's (negative: better)."""
    print(f"-- {workload}: medians per set, and worse than set 1 by")
    ok = len({r["failed"] / r["attempted"] for runs in sets for r in runs}) == 1
    for name in sets[0][0]["metrics"]:
        medians = [statistics.median(r["metrics"][name]["value"] for r in runs)
                   for runs in sets]
        sign = 1 if spec[name]["better"] == "lower" else -1
        worse = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
        fits = all(w <= spec[name]["bound"] for w in worse)
        ok = ok and fits
        print(f"   {name:<16}" + "".join(f"{m:>12.4f}" for m in medians)
              + "".join(f"{w:>+9.2%}" for w in worse)
              + f"  {'fits' if fits else 'NO'} (bound {spec[name]['bound']:.0%})")
    return ok


def traced_report(workload: str, seeds, seconds: float,
                  save: Optional[str]) -> bool:
    """Tracing overhead from untraced and traced runs made back to back
    on the same seeds (so host drift between them is short), and
    whether the per-layer counts repeat in a second traced run of the
    first seed."""
    ratios: Dict[str, List[float]] = {"work_per_s": [], "latency_p50_ms": []}
    traced_runs = []
    for seed in seeds:
        plain = run_once(workload, seed, seconds, 0, save)
        traced = run_once(workload, seed, seconds, 1, save)
        traced_runs.append(traced)
        for name in ratios:
            ratios[name].append(traced["metrics"]["traced." + name]["value"]
                                / plain["metrics"][name]["value"])
    again = run_once(workload, seeds[0], seconds, 1, save)
    counts_equal = all(
        traced_runs[0]["metrics"][n]["value"] == again["metrics"][n]["value"]
        for n, m in again["metrics"].items() if m["unit"] == "count"
    )
    print(f"-- traced ({workload}, seeds {list(seeds)}): counts identical "
          f"across two traced runs of seed {seeds[0]}: {counts_equal}")
    for name, values in ratios.items():
        print(f"   {name:<16} traced / untraced, back to back: "
              + ", ".join(f"{v - 1:+.1%}" for v in values))
    return counts_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="fuzz-batch,litmus-scale,figure-sweep,serve-mix")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0, metavar="PAIRS",
                        help="also run PAIRS untraced/traced pairs per workload")
    parser.add_argument("--save", metavar="FILE")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets: Dict[str, List[List[Dict]]] = {w: [] for w in workloads}
    ok = True
    for number in range(1, args.sets + 1):
        print(f"\n#### set {number}")
        for workload in workloads:
            results = [run_once(workload, seed, args.seconds, 0, args.save)
                       for seed in seeds]
            sets[workload].append(results)
            ok = report(workload, results, spec) and ok
            sys.stdout.flush()
    if args.sets > 1:
        print()
        for workload in workloads:
            ok = compare_sets(workload, sets[workload], spec) and ok
    if args.traced:
        print()
        for workload in workloads:
            ok = traced_report(workload, seeds[:args.traced], args.seconds,
                               args.save) and ok
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
