"""Output checks for the benchmark's commands.

Every report is validated against its schema in docs/schemas, its exit
code is compared with the expected one, and a few values are recomputed
by an oracle that shares no arithmetic with the package: factorisation by
trial division and, for signs, only `SignAssignment.sign_of_prime`.
A command fails when any check on it fails; the failures over the
commands attempted give the error rate.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import numpy as np
from normalsets import SignAssignment

from schema import SchemaValidator

SCHEMAS = {
    "generate": "generate_summary.json",
    "solve": "solution_report.json",
    "stats": "stats_report.json",
    "correlation": "correlation_report.json",
    "pairsquare": "pairsquare_report.json",
}
#: Memberships sampled from each generated NSET file.
MEMBER_SAMPLES = 32
#: Leading grid points whose correlation sums the oracle recomputes.
TREND_POINTS = 3
NSET_HEADER = 13


def error_rate(outcomes) -> float:
    """Commands that failed any check, over the commands attempted."""
    outcomes = list(outcomes)
    return sum(1 for problems in outcomes if problems) / len(outcomes)


# --- oracle -----------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def odd_primes(n: int) -> frozenset:
    """Primes with odd exponent in n, by trial division."""
    odd = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            odd ^= {d}
        d += 1 if d == 2 else 2
    if n > 1:
        odd ^= {n}
    return frozenset(odd)


class Liouville:
    """The seeded multiplicative sign of n, built from per-prime signs."""

    def __init__(self, seed: int) -> None:
        self.assignment = SignAssignment(seed)
        self._prime: dict[int, int] = {}

    def __call__(self, n: int) -> int:
        s = 1
        for p in odd_primes(n):
            if p not in self._prime:
                self._prime[p] = self.assignment.sign_of_prime(p)
            s *= self._prime[p]
        return s


def correlation_prefix(lam, offsets, points) -> list[int]:
    """sum_{n <= N} lam(n) lam(n+i_1)... at each N in ascending points."""
    out, total, n = [], 0, 0
    for N in points:
        while n < N:
            n += 1
            prod = lam(n)
            for i in offsets:
                prod *= lam(n + i)
            total += prod
        out.append(total)
    return out


def square_class(x: int, offsets) -> frozenset:
    cls = odd_primes(x)
    for i in offsets:
        cls = cls ^ odd_primes(x + i)
    return cls


def pair_count(N: int, offsets) -> int:
    counts = Counter(square_class(x, offsets) for x in range(1, N + 1))
    return sum(c * c for c in counts.values())


def sum_2h(N: int, offsets) -> int:
    return sum(1 << len(square_class(x, offsets)) for x in range(1, N + 1))


def square_grid(start: int, stop: int) -> list[int]:
    return [i * i for i in range(isqrt(start - 1) + 1, isqrt(stop) + 1)]


def read_nset(path) -> tuple[int, bytes]:
    """(limit, payload) of an NSET file, with its framing checked."""
    data = Path(path).read_bytes()
    if data[:5] != b"NSET\x01":
        raise ValueError(f"{path}: bad magic or version")
    limit = int.from_bytes(data[5:NSET_HEADER], "little")
    if len(data) != NSET_HEADER + (limit + 7) // 8:
        raise ValueError(f"{path}: {len(data)} bytes do not match limit {limit}")
    return limit, data[NSET_HEADER:]


# --- checks -----------------------------------------------------------------


class Checker:
    """Checks one command's exit code and report; returns its problems."""

    def __init__(self, root) -> None:
        schemas = Path(root) / "docs" / "schemas"
        self.validators = {
            cmd: SchemaValidator(json.loads((schemas / name).read_text()))
            for cmd, name in SCHEMAS.items()
        }
        self._bits: dict[str, np.ndarray] = {}

    def check(self, cmd, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"{cmd.name}: exit code {code}, expected 0"]
        command = cmd.argv[0]
        out = cmd.info.get("out")
        try:
            report = json.loads(Path(out).read_text() if out else stdout)
        except (OSError, ValueError) as exc:
            return [f"{cmd.name}: unreadable report: {exc}"]
        problems = self.validators[command].errors(report)[:5]
        if not problems:
            try:
                problems = list(getattr(self, "_" + command)(cmd.info, report))
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                problems = [f"malformed report: {exc!r}"]
        return [f"{cmd.name}: {p}" for p in problems]

    def _generate(self, info, rep):
        limit, seed = info["limit"], info["seed"]
        yield from _expect(rep, seed=seed, limit=limit, mode="random", out=info["nset"])
        file_limit, payload = read_nset(info["nset"])
        if file_limit != limit:
            yield f"NSET limit {file_limit}, expected {limit}"
        count = int.from_bytes(payload, "little").bit_count()
        yield from _expect(rep, count=count, density=float(f"{count / limit:.12g}"))
        lam = Liouville(seed)
        first, n = [], 0
        while len(first) < 16 and n < limit:
            n += 1
            if lam(n) == -1:
                first.append(n)
        yield from _expect(rep, first_members=first)
        rng = random.Random(f"{seed}/{limit}")
        for n in (rng.randint(1, limit) for _ in range(MEMBER_SAMPLES)):
            bit = payload[(n - 1) >> 3] >> ((n - 1) & 7) & 1
            if bit != (lam(n) == -1):
                yield f"membership of {n} is {bit}, oracle disagrees"

    def _solve(self, info, rep):
        equation = "xy_eq_c_nk" if "c" in info else "xy_eq_z"
        yield from _expect(
            rep, equation=equation, verified=True, witnesses={},
            searched_to=info["limit"], seed=info["seed"],
        )
        if "c" in info and Liouville(info["seed"])(info["c"]) != -1:
            yield f"c={info['c']} is not on the -1 side"

    def _correlation(self, info, rep):
        grid = square_grid(1000, info["grid_top"])
        offsets = info["offsets"]
        source = {"in": info["in"]} if "in" in info else {"mode": "random", "seed": info["seed"]}
        yield from _expect(
            rep, source=source, offsets=list(offsets), N=grid[-1],
            value_num=rep["sum"], value_den=grid[-1],
        )
        trend = rep["trend"]
        if [p["N"] for p in trend["points"]] != grid:
            yield "trend grid differs from the squares in the requested range"
            return
        if trend["points"][-1]["sum"] != rep["sum"] or len(trend["ratios"]) != len(grid) - 1:
            yield "trend end point or ratios disagree with the headline sum"
        head = grid[:TREND_POINTS]
        want = correlation_prefix(Liouville(info["seed"]), offsets, head)
        got = [p["sum"] for p in trend["points"][:TREND_POINTS]]
        if got != want:
            yield f"trend sums at {head} are {got}, oracle says {want}"

    def _stats(self, info, rep):
        N, L = info["limit"], info["max_len"]
        yield from _expect(rep, source={"in": info["in"]}, N=N, max_word_len=L)
        words = rep["words"]
        if len(words) != (2 << L) - 2:
            yield f"{len(words)} word rows, expected {(2 << L) - 2}"
            return
        totals = Counter()
        for row in words:
            length = row["length"]
            window = N - length + 1
            if row["window"] != window or row["freq_den"] != window or row["freq_num"] != row["count"]:
                yield f"row {row['word']} has inconsistent window or frequency"
                return
            totals[length] += row["count"]
        bad = [m for m in range(1, L + 1) if totals[m] != N - m + 1]
        if bad:
            yield f"counts of lengths {bad} do not sum to their windows"
        disc = rep["discrepancy"]
        if disc["overall"] != max(r["deviation"] for r in disc["per_length"]):
            yield "overall discrepancy is not the largest per-length deviation"
        ind = self._indicator(info["in"])[:N]
        rng = random.Random(info["pick"])
        for row in rng.sample(words, 2):
            bits = [int(ch) for ch in row["word"]]
            width = N - len(bits) + 1
            hit = np.ones(width, dtype=bool)
            for j, b in enumerate(bits):
                hit &= ind[j : j + width] == b
            if int(hit.sum()) != row["count"]:
                yield f"word {row['word']} counted {row['count']}, recount gives {int(hit.sum())}"

    def _pairsquare(self, info, rep):
        N, offsets = info["limit"], info["offsets"]
        yield from _expect(
            rep, N=N, offsets=list(offsets), e_tn2_num=rep["pair_count"], e_tn2_den=N * N,
            bound_violations=[],
        )
        if rep["pair_count"] < N:
            yield f"pair count {rep['pair_count']} below N={N}"
        mark = N >> 3
        want = [mark, sum_2h(mark, offsets)]
        if rep["checkpoints"][0] != want:
            yield f"first 2^h checkpoint {rep['checkpoints'][0]}, oracle says {want}"
        if "mc_seeds" in info:
            first, n_seeds = info["mc_seeds"]
            mc = rep["monte_carlo"]
            if mc["n_seeds"] != n_seeds:
                yield f"{mc['n_seeds']} Monte Carlo seeds, expected {n_seeds}"
                return
            i = info["pick"] % n_seeds
            total = correlation_prefix(Liouville(first + i), offsets, [N])[0]
            value = Fraction(total * total, N * N)
            if mc["values"][i] != [value.numerator, value.denominator]:
                yield f"Monte Carlo value for seed {first + i} is {mc['values'][i]}, oracle says {value}"
        if "grid_top" in info:
            grid = square_grid(1000, info["grid_top"])
            decay = rep["decay"]
            if [d["N"] for d in decay] != grid:
                yield "decay grid differs from the squares in the requested range"
                return
            want = pair_count(grid[0], offsets)
            if decay[0]["pair_count"] != want:
                yield f"pair count at N={grid[0]} is {decay[0]['pair_count']}, oracle says {want}"

    def _indicator(self, path) -> np.ndarray:
        if path not in self._bits:
            limit, payload = read_nset(path)
            raw = np.frombuffer(payload, dtype=np.uint8)
            self._bits[path] = np.unpackbits(raw, count=limit, bitorder="little")
        return self._bits[path]


def _expect(rep: dict, **fields):
    for key, want in fields.items():
        if rep.get(key) != want:
            yield f"{key} is {rep.get(key)!r}, expected {want!r}"
