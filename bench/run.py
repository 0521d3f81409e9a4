"""normalsets benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload seeded --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A fresh worker process imports the
package from src/ and runs the workload's CLI commands through
`normalsets.cli.main(argv)`, one at a time with `--threads` at its default
of 1, until the summed command time reaches --seconds (whole cycles only).
This process checks every report between commands, outside the timed
region.

Set-up (import plus input generation) runs SETUPS times, each in a fresh
worker: once before the loop, the rest spread over the run between
cycles, so that their median samples the host's slow and fast phases.
The timed worker only imports; the peak RSS comes from one untimed cycle
in a fresh worker of its own, so neither set-up nor allocator settings
touch the timings.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and
traced cycles in turn (span wrappers installed on odd cycles) and prints
the per-layer metrics per traced cycle plus the tracing overhead against
the untraced cycles.  The last stdout line is one JSON object; the lines
before it spell out every metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

SETUPS = 9
#: Stop starting cycles after this much real time, whatever --seconds says,
#: so a run ends well inside the 180 s a run may take.
DEADLINE_S = 140.0
#: Samples that must lie above the reported tail percentile.
TAIL_SAMPLES = 10
#: glibc mmap threshold of the peak-RSS worker.  Fixed, every freed array
#: goes back to the OS, so the peak is the largest live set rather than
#: heap history (glibc otherwise raises the threshold as it goes).
RSS_MMAP_THRESHOLD = "131072"


class Worker:
    """A worker process spoken to over JSON lines."""

    def __init__(self, root: Path, env: dict | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "bench" / "worker.py")],
            cwd=root, env={**os.environ, **(env or {})},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()} during {req['op']}")
        return json.loads(line)

    def close(self) -> None:
        """End of input stops the worker; kill it if it does not stop."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def set_up(root: Path, workload: str, seed: int, work: Path) -> tuple[float, dict]:
    """One set-up in a fresh worker: seconds to import and generate, and the inputs."""
    work.mkdir(parents=True, exist_ok=True)
    with Worker(root) as worker:
        reply = worker.request(op="setup", workload=workload, seed=seed, work=str(work))
    return reply["import_s"] + reply["gen_s"], reply["inputs"]


def tail(walls: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_SAMPLES samples above it."""
    n = len(walls)
    if n <= TAIL_SAMPLES:
        return max(walls), 100
    pct = 100 * (n - TAIL_SAMPLES) // n
    return sorted(walls)[math.ceil(pct * n / 100) - 1], pct


class Loop:
    """Runs whole cycles of a workload and checks every command."""

    def __init__(self, checker, workload, seed, inputs, work) -> None:
        self.checker = checker
        self.workload, self.seed, self.inputs, self.work = workload, seed, inputs, work
        self.cycle = 0
        self.outcomes: list[list[str]] = []  # problems of every command run

    def run_cycle(self, worker: Worker) -> dict:
        """One cycle: each command's name and wall time, the checked passes, report bytes."""
        walls, passed, report_bytes = [], 0, 0
        for cmd in workloads.commands(self.workload, self.seed, self.cycle, self.inputs, self.work):
            out = cmd.info.get("out")
            for stale in (out, cmd.info.get("nset")):
                if stale:  # a file left by the previous cycle must not pass for this one
                    Path(stale).unlink(missing_ok=True)
            reply = worker.request(op="run", argv=cmd.argv)
            walls.append((cmd.name, reply["wall"]))
            problems = self.checker.check(cmd, reply["code"], reply["stdout"])
            if reply["error"]:
                problems.append(reply["error"].strip().splitlines()[-1])
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
            self.outcomes.append(problems)
            passed += not problems
            report_bytes += len(reply["stdout"]) + (os.path.getsize(out) if out and os.path.exists(out) else 0)
        self.cycle += 1
        wall = sum(w for _, w in walls)
        return {"walls": walls, "wall": wall, "passed": passed, "report_bytes": report_bytes}


def rate(cycles: list[dict]) -> float:
    """Commands that passed every check, over the timed wall time of the cycles."""
    return sum(c["passed"] for c in cycles) / sum(c["wall"] for c in cycles)


def end_to_end(cycles: list[dict], setups: list[float], maxrss_kb: int, outcomes,
               error_rate: float) -> tuple[dict, list[str]]:
    walls = [w for c in cycles for _, w in c["walls"]]
    tail_s, pct = tail(walls)
    metrics = {
        "ops_per_s": (rate(cycles), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    failed = sum(1 for p in outcomes if p)
    notes = {
        "op_tail_s": f"p{pct} of {len(walls)} commands",
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{sum(c['passed'] for c in cycles)} passed in {len(cycles)} cycles, "
        f"{sum(c['wall'] for c in cycles):.3f} s timed",
        "peak_rss_mb": "one untimed cycle in its own worker",
    }
    lines = [f"  {k:<12} {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "") for k, (v, u) in metrics.items()]
    lines.append(f"  {'error_rate':<12} {error_rate:.6g} fraction  ({failed} of {len(outcomes)})")
    by_name = defaultdict(list)
    for name, w in ((n, w) for c in cycles for n, w in c["walls"]):
        by_name[name].append(w)
    lines.append("  median s per command: " + ", ".join(
        f"{name} {statistics.median(ws):.4f}" for name, ws in by_name.items()))
    return metrics, lines


def untraced(root: Path, loop: Loop, seconds: float, started: float, setup_s: float,
             workload: str, seed: int, work: Path) -> tuple[list[dict], list[float], int]:
    """Peak-RSS cycle, then timed cycles with the other set-ups spread between them."""
    with Worker(root, {"MALLOC_MMAP_THRESHOLD_": RSS_MMAP_THRESHOLD}) as worker:
        loop.run_cycle(worker)
        maxrss = worker.request(op="finish")["maxrss_kb"]
    setups = [setup_s]

    def set_ups_until(done: float) -> None:
        # set-up k of the rest runs once k/SETUPS of the timed work is done
        while len(setups) < SETUPS and done >= len(setups) / SETUPS:
            setups.append(set_up(root, workload, seed, work / "setup")[0])

    cycles, timed = [], 0.0
    with Worker(root) as worker:
        while timed < seconds and time.monotonic() - started < DEADLINE_S:
            cycles.append(loop.run_cycle(worker))
            timed += cycles[-1]["wall"]
            set_ups_until(timed / seconds)
    set_ups_until(1.0)  # a run cut by the deadline still makes every set-up
    return cycles, setups, maxrss


def traced(root: Path, loop: Loop, work: Path, seconds: float, started: float) -> tuple[dict, list[str]]:
    """Untraced and traced cycles in turn; per-layer metrics per traced cycle."""
    import spans

    done = {False: [], True: []}
    report_bytes = 0
    span_file = work / "spans.jsonl"
    with Worker(root) as worker:
        timed = 0.0
        while timed < seconds and time.monotonic() - started < DEADLINE_S:
            on = loop.cycle % 2 == 1
            worker.request(op="trace", on=on)
            cycle = loop.run_cycle(worker)
            done[on].append(cycle)
            report_bytes += cycle["report_bytes"] if on else 0
            timed += cycle["wall"]
        worker.request(op="finish", spans=str(span_file))
    recs = [json.loads(line) for line in span_file.read_text().splitlines()]
    n = len(done[True])
    metrics, shares = spans.per_layer(recs, n)
    metrics["cli.report_bytes"] = (report_bytes / n, "B")
    base, with_spans = rate(done[False]), rate(done[True])
    metrics["trace.untraced_ops_per_s"] = (base, "1/s")
    metrics["trace.traced_ops_per_s"] = (with_spans, "1/s")
    metrics["trace.overhead"] = ((base - with_spans) / base, "fraction")
    lines = [f"  {k:<26} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {len(done[False])} untraced and {n} traced cycles, in turn")
    lines.append("  self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    return metrics, lines


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    import checks  # imports normalsets, so src/ must be on the path first

    started = time.monotonic()
    work = root / ".bench_work" / str(os.getpid())
    try:
        setup_s, inputs = set_up(root, workload, seed, work)
        loop = Loop(checks.Checker(root), workload, seed, inputs, work)
        if trace:
            metrics, lines = traced(root, loop, work, seconds, started)
        else:
            cycles, setups, maxrss = untraced(root, loop, seconds, started, setup_s, workload, seed, work)
            metrics, lines = end_to_end(cycles, setups, maxrss, loop.outcomes,
                                        checks.error_rate(loop.outcomes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes = loop.outcomes
    failed = sum(1 for p in outcomes if p)
    head = (f"workload {workload} seed {seed}: {len(outcomes)} commands, {failed} failed, "
            f"{loop.cycle} cycles")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, [head, *lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/normalsets/cli.py", "docs/schemas") if not (root / p).exists()]
    if missing:
        print(f"error: run from a normalsets checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, lines = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
