"""Collect benchmark runs and compare two sets of them.

    python3 bench/compare.py collect PARENT CHANGE --runs 10 --out parent.jsonl change.jsonl
    python3 bench/compare.py summary parent.jsonl
    python3 bench/compare.py compare parent.jsonl change.jsonl

`collect` runs bench/run.py from each checkout root for every workload and
seeds 1..runs, alternating which checkout goes first, and appends one JSON
line per run to the matching --out file.  `summary` prints each workload x
end-to-end metric with its median, quartiles and spread (interquartile
distance over the median) against the bound in BENCHMARK.json.  `compare`
pairs runs by workload and seed and gives each workload x metric a verdict:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- unresolved: either side's spread exceeds the bound, unless every change
  run is better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

The error rate is compared as failed over attempted commands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from functools import cache
from pathlib import Path

WIN_SHARE = 0.9


@cache
def spec() -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def metrics() -> dict:
    """End-to-end metrics from BENCHMARK.json, by name."""
    return {m["name"]: m for m in spec()["end_to_end"]}


def load(path) -> dict:
    """{workload: {seed: result}} from a collect file."""
    runs: dict = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[rec["workload"]][rec["seed"]] = rec["result"]
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def better(metric: str, a: float, b: float) -> bool:
    """True when a reads better than b."""
    return a > b if metrics()[metric]["better"] == "higher" else a < b


def verdict(metric: str, parent: list, change: list, pairs: list) -> str:
    bound = metrics()[metric]["bound"]
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = sum(1 for p, c in pairs if better(metric, c, p))
    if wins >= WIN_SHARE * len(pairs) and better(metric, cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved"
    if max(spread(parent), spread(change)) > bound:
        all_better = all(better(metric, c, p) for c in change for p in parent)
        return "unchanged" if all_better else "unresolved"
    if better(metric, pm, cm) and abs(cm - pm) > bound * pm:
        return "worse"
    return "unchanged"


def cmd_collect(args) -> int:
    if len(args.out) != len(args.roots):
        sys.exit("give one --out file per checkout root")
    workloads = [w["name"] for w in spec()["workloads"]]
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            order = list(zip(args.roots, args.out))
            if seed % 2:
                order.reverse()
            for root, out in order:
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec()["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                if proc.returncode:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{workload} seed {seed} in {root} exited with {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                with open(out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                print(f"{workload} seed {seed} {root}: failed {result['failed']}", flush=True)
    return 0


def _values(results: dict, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in results.values()]


def host() -> dict:
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "mem_gib": round(pages / 2**30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def cmd_summary(args) -> int:
    runs = load(args.file)
    table = {}
    for workload, results in runs.items():
        rows = {}
        for metric, m in metrics().items():
            q1, q2, q3 = quartiles(_values(results, metric))
            rows[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                            "bound": m["bound"], "unit": m["unit"]}
        failed = sum(r["failed"] for r in results.values())
        attempted = sum(r["attempted"] for r in results.values())
        rows["error_rate"] = {"median": failed / attempted, "failed": failed, "attempted": attempted}
        table[workload] = {"seeds": sorted(results), "metrics": rows}
    if args.json:
        print(json.dumps({"host": host(), "run_seconds": spec()["run_seconds"], "workloads": table},
                         indent=1))
        return 0
    print(f"{'workload':<8} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound/3':>8}")
    for workload, entry in table.items():
        for metric, row in entry["metrics"].items():
            if metric == "error_rate":
                print(f"{workload:<8} {metric:<12} {row['median']:>10.4g}   ({row['failed']} of {row['attempted']})")
                continue
            flag = "" if row["spread"] <= row["bound"] / 3 else "  WIDE"
            print(f"{workload:<8} {metric:<12} {row['median']:>10.4g} {row['q1']:>10.4g} {row['q3']:>10.4g} "
                  f"{row['spread']:>8.4f} {row['bound'] / 3:>8.4f}{flag}")
    return 0


def _side(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>10.5g} [{q1:>9.5g},{q3:>10.5g}]"


def cmd_compare(args) -> int:
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<8} {'metric':<12} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'wins':>7}  verdict")
    for workload in parent:
        if workload not in change:
            print(f"{workload:<8} missing from {args.change}")
            continue
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            print(f"{workload:<8} no seed was run on both sides")
            continue
        p_runs = {s: parent[workload][s] for s in seeds}
        c_runs = {s: change[workload][s] for s in seeds}
        for metric in metrics():
            pv, cv = _values(p_runs, metric), _values(c_runs, metric)
            pairs = list(zip(pv, cv))
            wins = sum(1 for p, c in pairs if better(metric, c, p))
            print(f"{workload:<8} {metric:<12} {_side(pv)} {_side(cv)} {wins:>3}/{len(pairs):<3}  "
                  f"{verdict(metric, pv, cv, pairs)}")
        rates = []
        for runs in (p_runs, c_runs):
            rates.append(sum(r["failed"] for r in runs.values()) / sum(r["attempted"] for r in runs.values()))
        print(f"{workload:<8} {'error_rate':<12} {rates[0]:>10.4g} {'':>21} {rates[1]:>10.4g} {'':>21} "
              f"{'':>7}  {'worse' if rates[1] > rates[0] else 'unchanged'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every workload untraced on seeds 1..runs")
    c.add_argument("roots", nargs="+", help="checkout roots; two are run alternately")
    c.add_argument("--out", nargs="+", required=True, help="one JSON-lines file per root")
    c.add_argument("--runs", type=int, default=10)
    s = sub.add_parser("summary", help="medians, quartiles and spreads of one set of runs")
    s.add_argument("file")
    s.add_argument("--json", action="store_true", help="print JSON with host facts")
    p = sub.add_parser("compare", help="verdict per workload and metric")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return {"collect": cmd_collect, "summary": cmd_summary, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
