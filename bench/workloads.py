"""The three benchmark workloads and the commands each one runs.

A workload is a fixed list of CLI commands, run in order as one cycle and
repeated until the run's time is up.  Every cycle draws a fresh program
seed and trims each limit by a small random amount, both from the
workload seed and the cycle number, so no two cycles repeat the same
command.  An in-process cache keyed on a limit or a seed therefore cannot
make the loop faster than the one-command-per-process use the CLI has.

Sizes are about a fifth of the sizes first proposed for this benchmark
(limits of 2*10^7), so that a cycle takes about a second and a 30 s run
holds enough commands for a tail percentile.  The commands within one
workload stay within one order of magnitude of each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

NAMES = ("seeded", "stored", "pairs")

#: Limit of the sets built by `seeded` and of the NSET file `stored` reads.
SET_LIMIT = 4_000_000
#: Cycles planned at set-up; a longer run reuses them in order.
PLANNED_CYCLES = 2048
#: Monte Carlo seeds per `pairsquare --seeds` command.
MC_SEEDS = 64
#: Largest c tried when looking for the cnk constant.
C_SEARCH_LIMIT = 1000


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what its checker needs to know."""

    name: str
    argv: list
    info: dict


def cycle_params(workload: str, seed: int, cycle: int) -> dict:
    """Program seed and per-command limit trims for one cycle."""
    rng = random.Random(f"{workload}/{seed}/{cycle % PLANNED_CYCLES}")
    return {"seed": rng.getrandbits(32), "trim": [rng.randrange(100) for _ in range(4)]}


def nset_path(work) -> str:
    return f"{work}/stored.nset"


def smallest_negative_nonsquare(ns, program_seed: int, table) -> int:
    """Least non-square c >= 2 that the seed puts on the -1 side."""
    assignment = ns.SignAssignment(program_seed)
    for c in range(2, C_SEARCH_LIMIT + 1):
        if isqrt(c) ** 2 != c and ns.lambda_q(assignment, c, table) == -1:
            return c
    raise RuntimeError(f"no c <= {C_SEARCH_LIMIT} on the -1 side for seed {program_seed}")


def setup(ns, workload: str, seed: int, work) -> dict:
    """Generate the workload's inputs with the package under test.

    `stored` writes its NSET file; `seeded` finds the cnk constant of
    every planned cycle.  Returns what the commands need besides the
    cycle parameters.
    """
    if workload == "stored":
        table = ns.build_spf(SET_LIMIT)
        ns.write_nset(nset_path(work), ns.a_q_set(ns.SignAssignment(seed), SET_LIMIT, table))
        return {}
    if workload == "seeded":
        table = ns.build_spf(C_SEARCH_LIMIT)
        return {
            "c": [
                smallest_negative_nonsquare(ns, cycle_params(workload, seed, i)["seed"], table)
                for i in range(PLANNED_CYCLES)
            ]
        }
    return {}


def commands(workload: str, seed: int, cycle: int, inputs: dict, work) -> list[Command]:
    """The commands of one cycle."""
    p = cycle_params(workload, seed, cycle)
    s, trim = p["seed"], p["trim"]
    if workload == "seeded":
        gen_limit = SET_LIMIT - 1000 * trim[0]
        schur_limit = SET_LIMIT // 2 - 1000 * trim[1]
        cnk_limit = SET_LIMIT - 1000 * trim[2]
        grid_top = SET_LIMIT * 4 // 5 - 1000 * trim[3]
        c = inputs["c"][cycle % PLANNED_CYCLES]
        out = f"{work}/generated.nset"
        return [
            Command(
                "generate",
                ["generate", "--seed", str(s), "--limit", str(gen_limit), "--out", out],
                {"seed": s, "limit": gen_limit, "nset": out},
            ),
            Command(
                "schur",
                ["solve", "--equation", "schur", "--seed", str(s), "--limit", str(schur_limit)],
                {"seed": s, "limit": schur_limit},
            ),
            Command(
                "cnk",
                ["solve", "--equation", "cnk", "--seed", str(s), "--c", str(c), "--k", "2",
                 "--limit", str(cnk_limit)],
                {"seed": s, "limit": cnk_limit, "c": c},
            ),
            Command(
                "correlation",
                ["correlation", "--seed", str(s), "--offsets", "1,2",
                 "--grid", f"1000:{grid_top}:poly2"],
                {"seed": s, "offsets": (1, 2), "grid_top": grid_top},
            ),
        ]
    if workload == "stored":
        path = nset_path(work)
        wide_limit = SET_LIMIT // 2 - 1000 * trim[0]
        long_limit = SET_LIMIT // 10 - 100 * trim[1]
        grid_top = SET_LIMIT * 19 // 20 - 1000 * trim[2]
        out = f"{work}/stats.json"
        return [
            Command(
                "wide",
                ["stats", "--in", path, "--limit", str(wide_limit), "--max-word-len", "8"],
                {"seed": seed, "in": path, "limit": wide_limit, "max_len": 8, "pick": trim[3]},
            ),
            Command(
                "long-word",
                ["stats", "--in", path, "--limit", str(long_limit), "--max-word-len", "14",
                 "--out", out],
                {"seed": seed, "in": path, "limit": long_limit, "max_len": 14, "out": out,
                 "pick": trim[3] + 1},
            ),
            Command(
                "correlation",
                ["correlation", "--in", path, "--offsets", "1,2,3",
                 "--grid", f"1000:{grid_top}:poly2"],
                {"seed": seed, "in": path, "offsets": (1, 2, 3), "grid_top": grid_top},
            ),
        ]
    if workload == "pairs":
        mc_limit = 10_000 - trim[0]
        grid_limit = 2_500 - trim[1]
        # (N+4)^5 > 2^64 for N > 7127: a uint64 fast path must fall back here
        k4_limit = 10_000 - trim[2]
        seeds = f"{s}-{s + MC_SEEDS - 1}"
        return [
            Command(
                "monte-carlo",
                ["pairsquare", "--limit", str(mc_limit), "--offsets", "1", "--seeds", seeds],
                {"limit": mc_limit, "offsets": (1,), "mc_seeds": (s, MC_SEEDS), "pick": trim[3]},
            ),
            Command(
                "grid",
                ["pairsquare", "--limit", str(grid_limit), "--offsets", "1,2",
                 "--grid", f"1000:{grid_limit}:poly2"],
                {"limit": grid_limit, "offsets": (1, 2), "grid_top": grid_limit},
            ),
            Command(
                "k4",
                ["pairsquare", "--limit", str(k4_limit), "--offsets", "1,2,3,4"],
                {"limit": k4_limit, "offsets": (1, 2, 3, 4)},
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
