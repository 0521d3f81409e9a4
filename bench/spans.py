"""Spans around the package's public functions, recorded from outside.

The traced run wraps the functions below in every `normalsets` module that
holds a reference to them, so calls made inside the package are seen too.
Nothing under src/ changes.  A span records its name, start, end, parent
span, command id and counters; spans stay in memory until the run ends.
A span's self time is its duration minus its children's, and a layer's
time is the sum of the self times of its spans.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _members_upto(bits, N: int) -> int:
    whole = int(np.bitwise_count(bits.payload[: N >> 3]).sum())
    tail = int(bits.payload[N >> 3]) & ((1 << (N & 7)) - 1) if N & 7 else 0
    return whole + tail.bit_count()


def _windows(a) -> int:
    return sum(a["N"] - m + 1 for m in range(1, a["max_len"] + 1))


# (module, attribute, span name, counters from the bound arguments and result)
TARGETS = [
    ("sieve", "build_spf", "sieve",
     lambda a, r: {"calls": 1, "ints": a["limit"], "table_mb": 4 * (a["limit"] + 1) / 2**20}),
    ("signs", "build_signed_sequence", "signs.build", lambda a, r: {"calls": 1, "ints": a["limit"]}),
    ("signs", "SignedSequence.negatives", "signs.pack", None),
    ("signs", "SetBitset.indicator", "signs.pack", None),
    ("signs", "SetBitset.members", "signs.pack", None),
    ("signs", "SetBitset.count", "signs.pack", None),
    ("nset", "write_nset", "nset.write", lambda a, r: {"bytes": 13 + a["bits"].payload.size}),
    ("nset", "read_nset", "nset.read", lambda a, r: {"bytes": 13 + r.payload.size}),
    ("wordstats", "word_frequencies", "wordstats.count",
     lambda a, r: {"tabulations": 1, "windows": _windows(a)}),
    ("wordstats", "discrepancy_report", "wordstats.discrepancy", None),
    ("wordstats", "correlation_sum", "wordstats.correlation", None),
    ("wordstats", "subsequence_trend", "wordstats.correlation", None),
    ("pairsquare", "count_square_pairs", "pairsquare.classify",
     lambda a, r: {"count_calls": 1, "xs": a["N"]}),
    ("pairsquare", "per_x_bound_check", "pairsquare.classify", lambda a, r: {"xs": a["N"]}),
    ("pairsquare", "sum_2h", "pairsquare.classify", lambda a, r: {"xs": a["N"]}),
    ("pairsquare", "monte_carlo_e_tn2", "pairsquare.mc", lambda a, r: {"seeds": len(a["seeds"])}),
    ("equations", "find_schur_violation", "equations.scan",
     lambda a, r: {"members": _members_upto(a["bits"], a["N"])}),
    ("equations", "verify_cnk", "equations.scan", None),
    ("equations", "verify_multiplicative_schur", "equations.scan", None),
    ("cli", "main", "cli", None),
]


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, command, counters]
        self.command: int | None = None
        self._stack: list[int] = []
        self._replaced: list[tuple] = []  # (owner, attribute, original)

    def wrap(self, fn, name: str, counters):
        signature = inspect.signature(fn) if counters else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = counters(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside the package."""
        if self._replaced:
            return
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "normalsets"]
        for module, attr, name, counters in TARGETS:
            owner = sys.modules[f"normalsets.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, method)
                self._replaced.append((cls, method, original))
                setattr(cls, method, self.wrap(original, name, counters))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, counters)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replaced.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        """Put every original back; spans recorded so far are kept."""
        for owner, key, original in reversed(self._replaced):
            setattr(owner, key, original)
        self._replaced.clear()


def layer_totals(spans) -> tuple[dict, dict]:
    """Self seconds and summed (or, for table_mb, largest) counters by span name."""
    child = defaultdict(float)
    for name, start, end, parent, _cmd, _c in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, counters = defaultdict(float), defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _p, _cmd, c) in enumerate(spans):
        self_s[name] += end - start - child[i]
        for key, value in (c or {}).items():
            if key == "table_mb":
                counters[name][key] = max(counters[name][key], value)
            else:
                counters[name][key] += value
    return self_s, counters


#: Per-layer metrics: name -> (unit, source).  Sources: ("self", span) is
#: self seconds, ("count", span, key) a summed counter, ("max", span, key)
#: the largest value of a counter.  All but the max are per cycle.
PER_LAYER = {
    "sieve.calls": ("count", ("count", "sieve", "calls")),
    "sieve.ints": ("count", ("count", "sieve", "ints")),
    "sieve.busy_s": ("s", ("self", "sieve")),
    "sieve.table_mb": ("MiB", ("max", "sieve", "table_mb")),
    "signs.calls": ("count", ("count", "signs.build", "calls")),
    "signs.ints": ("count", ("count", "signs.build", "ints")),
    "signs.busy_s": ("s", ("self", "signs.build")),
    "signs.pack_s": ("s", ("self", "signs.pack")),
    "nset.write_s": ("s", ("self", "nset.write")),
    "nset.read_s": ("s", ("self", "nset.read")),
    "nset.bytes_written": ("B", ("count", "nset.write", "bytes")),
    "nset.bytes_read": ("B", ("count", "nset.read", "bytes")),
    "wordstats.tabulations": ("count", ("count", "wordstats.count", "tabulations")),
    "wordstats.windows": ("count", ("count", "wordstats.count", "windows")),
    "wordstats.count_s": ("s", ("self", "wordstats.count")),
    "wordstats.discrepancy_s": ("s", ("self", "wordstats.discrepancy")),
    "wordstats.correlation_s": ("s", ("self", "wordstats.correlation")),
    "pairsquare.xs_classified": ("count", ("count", "pairsquare.classify", "xs")),
    "pairsquare.count_calls": ("count", ("count", "pairsquare.classify", "count_calls")),
    "pairsquare.classify_s": ("s", ("self", "pairsquare.classify")),
    "pairsquare.mc_seeds": ("count", ("count", "pairsquare.mc", "seeds")),
    "pairsquare.mc_s": ("s", ("self", "pairsquare.mc")),
    "equations.scan_s": ("s", ("self", "equations.scan")),
    "equations.members_scanned": ("count", ("count", "equations.scan", "members")),
    "cli.self_s": ("s", ("self", "cli")),
}

#: Layers for the share summary: layer -> span names.
LAYERS = {
    "sieve": ("sieve",),
    "signs": ("signs.build", "signs.pack"),
    "nset": ("nset.write", "nset.read"),
    "wordstats": ("wordstats.count", "wordstats.discrepancy", "wordstats.correlation"),
    "pairsquare": ("pairsquare.classify", "pairsquare.mc"),
    "equations": ("equations.scan",),
    "cli": ("cli",),
}


def per_layer(spans, cycles: int) -> tuple[dict, dict]:
    """Per-layer metrics per cycle, and each layer's share of self time."""
    self_s, counters = layer_totals(spans)
    metrics = {}
    for metric, (unit, source) in PER_LAYER.items():
        kind, span = source[0], source[1]
        if kind == "self":
            value = self_s.get(span, 0.0) / cycles
        elif kind == "max":
            value = counters[span][source[2]]
        else:
            value = counters[span][source[2]] / cycles
        metrics[metric] = (value, unit)
    total = sum(self_s.values())
    shares = {
        layer: sum(self_s.get(n, 0.0) for n in names) / total if total else 0.0
        for layer, names in LAYERS.items()
    }
    return metrics, shares
