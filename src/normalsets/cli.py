"""Command-line surface.

Five commands: generate (build a membership set and store it as NSET),
stats (word frequencies and discrepancy), correlation (exact correlation
averages, optionally along a grid), pairsquare (square-pair counts, the
per-x bound check, 2^h sums, optional Monte Carlo), and solve (equation
searches).  replay re-runs a saved RunConfig.

Reports are deterministic: identical configs produce identical bytes, and
the thread count never appears in any output.  Exit codes: 0 success or
verified, 1 runtime error, 2 usage error, 3 solver found nothing, 4 a
verify scan found a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .equations import (
    DIFF_TRIPLE,
    SUM_TRIPLE,
    MagicTriple,
    SolutionReport,
    find_schur_violation,
    solve_diff_of_squares,
    solve_sum_of_squares,
    solve_xy_z2,
    verify_cnk,
    verify_multiplicative_schur,
)
from .errors import OutOfRangeError
from .nset import read_nset, write_nset
from .pairsquare import count_square_pairs, monte_carlo_e_tn2, per_x_bound_check, sum_2h
from .sieve import OffsetSpec, build_spf
from .signs import SetBitset, SignAssignment, SignedSequence, a_q_set, build_signed_sequence
from .wordstats import (
    correlation_sum,
    discrepancy_report,
    poly_grid,
    subsequence_trend,
    word_frequencies,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_VIOLATION = 4

SCHEMA_VERSION = 1

_VERIFY_EQUATIONS = ("schur", "cnk")
_SOLVE_EQUATIONS = ("xyz2", "sumsq", "diffsq")


def _float(x) -> float:
    """Fixed 12-significant-digit rendering so reports replay byte-exact."""
    return float(f"{float(x):.12g}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, path: str | None, stdout) -> None:
    if path:
        Path(path).write_text(text)
    else:
        stdout.write(text)


@dataclass
class RunConfig:
    """Everything needed to reproduce one command, in CLI-shaped form.

    List-like options stay as their textual forms ("1,2", "0-9", and so
    on) so a saved config is exactly what was typed.
    """

    command: str
    seed: int = 0
    mode: str = "random"
    limit: int | None = None
    offsets: str = ""
    max_word_len: int = 8
    grid: str | None = None
    equation: str | None = None
    c: int | None = None
    k: int | None = None
    triple: str | None = None
    seeds: str | None = None
    in_path: str | None = None
    out: str | None = None
    csv: str | None = None
    threads: int = 1

    def to_json(self) -> str:
        return _dump_json(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data:
            raise ValueError("config is missing 'command'")
        return cls(**data)


def _parse_grid(text: str) -> list[int]:
    """Either an explicit comma list, or start:stop:polyD."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("poly"):
            raise ValueError(f"grid must be 'start:stop:polyD' or a comma list, got {text!r}")
        return poly_grid(int(parts[0]), int(parts[1]), int(parts[2][4:]))
    return [int(p) for p in text.split(",")]


def _parse_seeds(text: str) -> list[int]:
    """Comma list of seeds, where each element may be a lo-hi range."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _parse_triple(text: str, kind: str) -> MagicTriple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"triple must be three comma-separated integers, got {text!r}")
    return MagicTriple(parts[0], parts[1], parts[2], kind)


def _seq_from_bits(bits: SetBitset) -> SignedSequence:
    """Read a stored set back as a ±1 sequence (members read as -1)."""
    signs = np.ones(bits.limit + 1, dtype=np.int8)
    signs[0] = 0
    signs[1:] -= 2 * bits.indicator().astype(np.int8)
    return SignedSequence(bits.limit, signs)


def _bits_and_limit(cfg: RunConfig) -> tuple[SetBitset, int, int | None]:
    if cfg.in_path:
        bits = read_nset(cfg.in_path)
        limit = cfg.limit if cfg.limit is not None else bits.limit
        if limit > bits.limit:
            raise OutOfRangeError(f"--limit {limit} exceeds the file limit {bits.limit}")
        return bits, limit, None
    if cfg.limit is None:
        raise ValueError("--limit is required when no --in file is given")
    assignment = SignAssignment(cfg.seed, cfg.mode)
    table = build_spf(max(2, cfg.limit))
    seed = assignment.seed if assignment.mode == "random" else None
    return a_q_set(assignment, cfg.limit, table), cfg.limit, seed


def _source_block(cfg: RunConfig, seed: int | None) -> dict:
    if cfg.in_path:
        return {"in": cfg.in_path}
    block = {"mode": cfg.mode}
    if seed is not None:
        block["seed"] = seed
    return block


def _cmd_generate(cfg: RunConfig, stdout) -> int:
    if cfg.limit is None or cfg.limit < 1:
        raise ValueError(f"--limit must be a positive integer, got {cfg.limit}")
    if not cfg.out:
        raise ValueError("generate requires --out")
    assignment = SignAssignment(cfg.seed, cfg.mode)
    table = build_spf(max(2, cfg.limit))
    bits = a_q_set(assignment, cfg.limit, table)
    write_nset(cfg.out, bits)
    members = bits.members()
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "mode": cfg.mode,
        "seed": cfg.seed,
        "limit": cfg.limit,
        "count": bits.count(),
        "density": _float(bits.density()),
        "first_members": [int(m) for m in members[:16]],
        "out": cfg.out,
    }
    stdout.write(_dump_json(summary))
    return EXIT_OK


def _cmd_stats(cfg: RunConfig, stdout) -> int:
    bits, limit, seed = _bits_and_limit(cfg)
    stats = word_frequencies(bits, cfg.max_word_len, limit, threads=cfg.threads)
    disc = discrepancy_report(bits, cfg.max_word_len, limit, threads=cfg.threads)
    words = []
    for length in range(1, cfg.max_word_len + 1):
        window = stats.window(length)
        counts = stats.counts[length]
        for code in range(1 << length):
            count = int(counts[code])
            dev = abs(count * (1 << length) - window)
            words.append(
                {
                    "word": format(code, f"0{length}b"),
                    "length": length,
                    "count": count,
                    "window": window,
                    "freq_num": count,
                    "freq_den": window,
                    "deviation": _float(dev / (window * (1 << length))),
                }
            )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "stats",
        "source": _source_block(cfg, seed),
        "N": limit,
        "max_word_len": cfg.max_word_len,
        "words": words,
        "discrepancy": {
            "overall": _float(disc.overall),
            "worst_word": disc.worst_word,
            "per_length": [
                {
                    "length": row.length,
                    "word": row.word,
                    "deviation": _float(row.deviation),
                }
                for row in disc.per_length
            ],
        },
    }
    _emit(_dump_json(report), cfg.out, stdout)
    return EXIT_OK


def _cmd_correlation(cfg: RunConfig, stdout) -> int:
    spec = OffsetSpec.parse(cfg.offsets)
    grid = _parse_grid(cfg.grid) if cfg.grid else None
    if cfg.in_path:
        seq = _seq_from_bits(read_nset(cfg.in_path))
        seed = None
        if cfg.limit is not None:
            N = cfg.limit
        elif grid:
            N = grid[-1]
        else:
            N = seq.limit - spec.max_offset
    else:
        if cfg.limit is None and not grid:
            raise ValueError("--limit or --grid is required when no --in file is given")
        N = cfg.limit if cfg.limit is not None else grid[-1]
        top = max(N, grid[-1] if grid else 0)
        assignment = SignAssignment(cfg.seed, cfg.mode)
        table = build_spf(max(2, top + spec.max_offset))
        seq = build_signed_sequence(assignment, top + spec.max_offset, table)
        seed = assignment.seed if assignment.mode == "random" else None
    if N < 1:
        raise ValueError(f"cut-off must be >= 1, got {N}")
    result = correlation_sum(seq, spec, N)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "correlation",
        "source": _source_block(cfg, seed),
        "offsets": list(spec.offsets),
        "N": N,
        "sum": result.total,
        "value_num": result.total,
        "value_den": result.n_terms,
        "value": _float(result.value_float),
    }
    if grid:
        trend = subsequence_trend(seq, spec, grid)
        report["trend"] = {
            "points": [
                {"N": p.N, "sum": p.total, "value": _float(p.value_float)}
                for p in trend.points
            ],
            "ratios": [_float(r) for r in trend.ratios],
            "tail_max_abs": _float(trend.tail_max_abs),
            "degenerate": trend.degenerate,
        }
        if cfg.csv:
            lines = ["N,sum,value_num,value_den,value"]
            for p in trend.points:
                lines.append(f"{p.N},{p.total},{p.total},{p.N},{p.value_float:.12g}")
            Path(cfg.csv).write_text("\n".join(lines) + "\n")
    _emit(_dump_json(report), cfg.out, stdout)
    return EXIT_OK


def _cmd_pairsquare(cfg: RunConfig, stdout) -> int:
    spec = OffsetSpec.parse(cfg.offsets)
    if cfg.limit is None or cfg.limit < 1:
        raise ValueError(f"--limit must be a positive integer, got {cfg.limit}")
    N = cfg.limit
    grid = _parse_grid(cfg.grid) if cfg.grid else []
    for n in grid:
        if not 1 <= n <= N:
            raise OutOfRangeError(f"--grid point {n} is outside [1, --limit {N}]")
    table = build_spf(max(2, N + spec.max_offset))
    pairs = count_square_pairs(N, spec, table)
    violations = per_x_bound_check(N, spec, table)
    growth = sum_2h(N, spec, table)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "pairsquare",
        "N": N,
        "offsets": list(spec.offsets),
        "pair_count": pairs.pair_count,
        "e_tn2_num": pairs.pair_count,
        "e_tn2_den": N * N,
        "e_tn2": _float(pairs.pair_count / (N * N)),
        "bound_violations": [
            {"x": v.x, "matches": v.matches, "r": v.r, "h": v.h} for v in violations
        ],
        "smallest_p": growth.smallest_prime,
        "prime_index": growth.prime_index,
        "sum_2h": growth.total,
        "checkpoints": [[n, s] for n, s in growth.checkpoints],
        "fitted_exponent": None
        if growth.fitted_exponent is None
        else _float(growth.fitted_exponent),
    }
    if cfg.seeds:
        mc = monte_carlo_e_tn2(N, spec, _parse_seeds(cfg.seeds), table)
        report["monte_carlo"] = {
            "n_seeds": len(mc.seeds),
            "mean": _float(mc.mean),
            "stderr": _float(mc.stderr),
            "values": [[v.numerator, v.denominator] for v in mc.values],
        }
    if cfg.grid:
        decay = [(n, count_square_pairs(n, spec, table).pair_count) for n in grid]
        report["decay"] = [
            {"N": n, "pair_count": c, "e_tn2": _float(c / (n * n))} for n, c in decay
        ]
        if cfg.csv:
            lines = ["N,pair_count,e_tn2_num,e_tn2_den,e_tn2"]
            for n, c in decay:
                lines.append(f"{n},{c},{c},{n * n},{c / (n * n):.12g}")
            Path(cfg.csv).write_text("\n".join(lines) + "\n")
    _emit(_dump_json(report), cfg.out, stdout)
    return EXIT_OK


def _cmd_solve(cfg: RunConfig, stdout) -> int:
    eq = cfg.equation
    if eq not in _VERIFY_EQUATIONS + _SOLVE_EQUATIONS:
        raise ValueError(f"unknown equation {eq!r}")
    report: SolutionReport
    if eq == "schur":
        if cfg.in_path:
            bits, limit, seed = _bits_and_limit(cfg)
            hit = find_schur_violation(bits, limit)
            if hit is None:
                report = SolutionReport("xy_eq_z", {}, True, limit)
            else:
                x, y, z = hit
                report = SolutionReport("xy_eq_z", {"x": x, "y": y, "z": z}, False, limit)
        else:
            if cfg.limit is None:
                raise ValueError("--limit is required when no --in file is given")
            table = build_spf(max(2, cfg.limit))
            report = verify_multiplicative_schur(
                SignAssignment(cfg.seed, cfg.mode), cfg.limit, table
            )
    elif eq == "cnk":
        if cfg.in_path:
            raise ValueError("cnk verification needs a seeded assignment, not --in")
        if cfg.c is None or cfg.k is None:
            raise ValueError("cnk verification requires --c and --k")
        if cfg.limit is None:
            raise ValueError("--limit is required when no --in file is given")
        table = build_spf(max(2, cfg.limit))
        report = verify_cnk(
            SignAssignment(cfg.seed, cfg.mode), cfg.c, cfg.k, cfg.limit, table
        )
    else:
        bits, limit, seed = _bits_and_limit(cfg)
        if eq == "xyz2":
            report = solve_xy_z2(bits, limit)
        elif eq == "sumsq":
            triple = _parse_triple(cfg.triple, "sum") if cfg.triple else SUM_TRIPLE
            report = solve_sum_of_squares(bits, limit, triple)
        else:
            triple = _parse_triple(cfg.triple, "difference") if cfg.triple else DIFF_TRIPLE
            report = solve_diff_of_squares(bits, limit, triple)
        if seed is not None:
            report = SolutionReport(
                report.equation, report.witnesses, report.verified, report.searched_to, seed
            )
    _emit(_dump_json(report.to_json_dict()), cfg.out, stdout)
    if report.verified:
        return EXIT_OK
    return EXIT_VIOLATION if eq in _VERIFY_EQUATIONS else EXIT_NOT_FOUND


_DISPATCH = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "correlation": _cmd_correlation,
    "pairsquare": _cmd_pairsquare,
    "solve": _cmd_solve,
}


def run_config(cfg: RunConfig, stdout=None) -> int:
    """Execute a config.  This is the single entry point both for fresh
    command lines and for replays, which is what keeps the two identical."""
    if stdout is None:
        stdout = sys.stdout
    if cfg.command not in _DISPATCH:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {cfg.threads}")
    return _DISPATCH[cfg.command](cfg, stdout)


def _add_source_args(sub, with_in=True) -> None:
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed for the sign assignment")
    sub.add_argument(
        "--mode",
        choices=["random", "classic"],
        default="random",
        help="random: seeded prime signs; classic: every prime negative",
    )
    if with_in:
        sub.add_argument("--in", dest="in_path", default=None, help="read the set from an NSET file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normalsets",
        description="Membership sets from multiplicative sign sequences: "
        "statistics, correlation scans, and equation searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a set and write it as NSET")
    _add_source_args(g, with_in=False)
    g.add_argument("--limit", type=int, required=True)
    g.add_argument("--out", required=True, help="NSET output path")
    g.add_argument("--save-config", default=None)

    s = sub.add_parser("stats", help="word frequencies and discrepancy")
    _add_source_args(s)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--max-word-len", type=int, default=8, dest="max_word_len")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--out", default=None)
    s.add_argument("--save-config", default=None)

    c = sub.add_parser("correlation", help="exact correlation averages")
    _add_source_args(c)
    c.add_argument("--limit", type=int, default=None)
    c.add_argument("--offsets", default="", help="comma list, e.g. 1,2 (empty for none)")
    c.add_argument("--grid", default=None, help="comma list or start:stop:polyD")
    c.add_argument("--csv", default=None, help="also write the trend as CSV")
    c.add_argument("--out", default=None)
    c.add_argument("--save-config", default=None)

    q = sub.add_parser("pairsquare", help="square-pair counts and bounds")
    q.add_argument("--limit", type=int, required=True)
    q.add_argument("--offsets", default="")
    q.add_argument("--seeds", default=None, help="Monte Carlo seeds: comma list, ranges like 0-99")
    q.add_argument("--grid", default=None, help="also tabulate the decay on this grid")
    q.add_argument("--csv", default=None, help="write the decay table as CSV")
    q.add_argument("--out", default=None)
    q.add_argument("--save-config", default=None)

    v = sub.add_parser("solve", help="equation searches and verify scans")
    _add_source_args(v)
    v.add_argument(
        "--equation",
        required=True,
        choices=list(_VERIFY_EQUATIONS + _SOLVE_EQUATIONS),
    )
    v.add_argument("--limit", type=int, default=None)
    v.add_argument("--c", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--triple", default=None, help="override the magic triple, e.g. 44,117,240")
    v.add_argument("--out", default=None)
    v.add_argument("--save-config", default=None)

    r = sub.add_parser("replay", help="re-run a saved RunConfig")
    r.add_argument("config", help="path to a config JSON written by --save-config")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for f in fields(RunConfig):
        if hasattr(args, f.name) and getattr(args, f.name) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    command = args.command
    try:
        if args.command == "replay":
            data = json.loads(Path(args.config).read_text())
            cfg = RunConfig.from_dict(data)
            command = cfg.command
        else:
            cfg = _config_from_args(args)
            save = getattr(args, "save_config", None)
            if save:
                Path(save).write_text(cfg.to_json())
        return run_config(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"error: out of memory in {command}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
