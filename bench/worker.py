"""Benchmark worker: one fresh process that runs CLI commands in-process.

It imports normalsets from the checkout's src/, then answers JSON-line
requests on stdin, one at a time:

  {"op": "setup", "workload": ..., "seed": ..., "work": ...}
  {"op": "run", "argv": [...]}   -> exit code, wall time, captured output
  {"op": "trace", "on": bool}   -> install or remove the span wrappers
  {"op": "finish", "spans": path} -> write spans, report ru_maxrss, exit

Only `normalsets.cli.main(argv)` is timed; checks happen in the parent
while this process waits, so they stay outside the timed region and out
of this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    root = os.getcwd()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import normalsets
    from normalsets import cli

    import_s = time.perf_counter() - t0
    if not normalsets.__file__.startswith(os.path.join(root, "src", "")):
        sys.stderr.write(f"normalsets came from {normalsets.__file__}, not {root}/src\n")
        return 2

    import spans
    import workloads

    proto = sys.stdout
    sys.stdout = sys.stderr  # a stray print must not corrupt the protocol
    tracer = spans.Tracer()
    command = 0
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "setup":
            t0 = time.perf_counter()
            inputs = workloads.setup(normalsets, req["workload"], req["seed"], req["work"])
            reply = {"import_s": import_s, "gen_s": time.perf_counter() - t0, "inputs": inputs}
        elif op == "run":
            command += 1
            tracer.command = command
            reply = run(cli, req["argv"])
        elif op == "trace":
            if req["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply = {}
        elif op == "finish":
            if req.get("spans"):
                with open(req["spans"], "w") as fh:
                    for rec in tracer.spans:
                        fh.write(json.dumps(rec) + "\n")
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            reply = {"error": f"unknown op {op!r}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
        if op == "finish":
            break
    return 0


def run(cli, argv) -> dict:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # reported to the parent, which counts it as failed
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    return {"code": code, "wall": wall, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


if __name__ == "__main__":
    sys.exit(main())
