"""Differential tests: the array code in pairsquare against per-integer oracles.

Classes come from square_class, one x at a time; Monte Carlo values come
from one build_signed_sequence per seed.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalsets import (
    OffsetSpec,
    SignAssignment,
    build_signed_sequence,
    build_spf,
    common_divisor_set,
    count_square_pairs,
    is_prime,
    monte_carlo_e_tn2,
    per_x_bound_check,
    square_class,
    sum_2h,
)
from normalsets.pairsquare import BoundViolation, _classes

TOP_SEED = (1 << 64) - 1

offset_specs = st.lists(st.integers(1, 12), max_size=4, unique=True).map(
    lambda offs: OffsetSpec(tuple(sorted(offs)))
)
# the narrow range near 2^64 - 1 makes duplicated seeds common
seed_values = st.one_of(st.integers(0, TOP_SEED), st.integers(TOP_SEED - 63, TOP_SEED))


def oracle_violations(N, spec, classes):
    r = common_divisor_set(spec).r
    counts = Counter(classes)
    out = []
    for x, cls in enumerate(classes, start=1):
        matches, h = counts[cls], len(cls)
        factor = 1 << (r + h)
        if matches * matches > factor * factor * N:
            out.append(BoundViolation(x, matches, r, h, N))
    return out


def assert_matches_oracle(N, spec, table):
    classes = [square_class(x, spec, table) for x in range(1, N + 1)]
    keys, h = _classes(N, spec, table)
    assert [int(k) for k in keys] == [prod(cls) for cls in classes]
    assert h.tolist() == [len(cls) for cls in classes]

    for n in sorted({1, N // 3 or 1, N // 2 or 1, N}):
        expected = sum(c * c for c in Counter(classes[:n]).values())
        assert count_square_pairs(n, spec, table).pair_count == expected

    assert per_x_bound_check(N, spec, table) == oracle_violations(N, spec, classes)

    prefix = list(accumulate(1 << len(cls) for cls in classes))
    report = sum_2h(N, spec, table)
    assert report.total == prefix[-1]
    marks = sorted({max(1, N >> j) for j in range(4)})
    assert report.checkpoints == tuple((n, prefix[n - 1]) for n in marks)


def oracle_monte_carlo(N, spec, seeds, table):
    values = []
    for seed in seeds:
        signs = build_signed_sequence(SignAssignment(seed), N + spec.max_offset, table).signs
        acc = signs[1 : N + 1].astype(np.int64)
        for i in spec.offsets:
            acc *= signs[1 + i : N + 1 + i]
        total = int(acc.sum())
        values.append(Fraction(total * total, N * N))
    return values


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 3000), spec=offset_specs)
def test_classification_matches_square_class(small_table, N, spec):
    assert_matches_oracle(N, spec, small_table)


@settings(max_examples=15, deadline=None)
@given(
    N=st.integers(1, 3000),
    spec=offset_specs,
    seeds=st.lists(seed_values, min_size=2, max_size=130),
)
def test_monte_carlo_matches_per_seed_sieves(small_table, N, spec, seeds):
    res = monte_carlo_e_tn2(N, spec, seeds, small_table)
    expected = oracle_monte_carlo(N, spec, seeds, small_table)
    assert list(res.values) == expected
    floats = np.array([float(v) for v in expected])
    assert res.mean == float(floats.mean())
    assert res.stderr == float(floats.std(ddof=1) / sqrt(len(seeds)))


@pytest.mark.parametrize("count", [2, 63, 64, 65, 130])
def test_monte_carlo_lane_batches(small_table, count):
    # seeds counting down from 2^64 - 1, the last a repeat of the first, so
    # for 65 and 130 seeds the repeat sits in a later batch than its twin
    seeds = [TOP_SEED - i for i in range(count - 1)] + [TOP_SEED]
    spec = OffsetSpec((1, 2))
    res = monte_carlo_e_tn2(500, spec, seeds, small_table)
    assert list(res.values) == oracle_monte_carlo(500, spec, seeds, small_table)
    assert res.values[0] == res.values[-1]


@pytest.mark.parametrize("N, exact", [(7127, False), (7128, True)])
def test_uint64_line_for_four_offsets(small_table, N, exact):
    spec = OffsetSpec((1, 2, 3, 4))
    assert ((N + 4) ** 5 >= 1 << 64) == exact
    keys, _ = _classes(N, spec, small_table)
    assert (keys.dtype == object) == exact
    assert_matches_oracle(N, spec, small_table)


def test_bound_check_with_large_r(small_table):
    # r = 19, so (2^(r+h))^2 * N passes 2^63 wherever h >= 7
    spec = OffsetSpec((12, 24, 60))
    r = common_divisor_set(spec).r
    _, h = _classes(2000, spec, small_table)
    assert (1 << 2 * (r + int(h.max()))) * 2000 >= 1 << 63
    assert_matches_oracle(2000, spec, small_table)


def test_bound_check_at_equality(small_table):
    # the 20 squares up to 400 share the empty class, and 20^2 == 2^0 * 400
    # exactly: equality is not a violation
    assert_matches_oracle(400, OffsetSpec(()), small_table)
    assert per_x_bound_check(400, OffsetSpec(()), small_table) == []


@pytest.mark.parametrize("limit", [100, 10_000])
def test_sum_2h_prime_index_either_side_of_table_limit(limit):
    # k = 4 needs p = 2213: past a table of 100, inside one of 10^4
    spec = OffsetSpec((1, 2, 3, 4))
    report = sum_2h(50, spec, build_spf(limit))
    assert report.smallest_prime == 2213
    assert report.prime_index == sum(1 for q in range(2, 2214) if is_prime(q))
