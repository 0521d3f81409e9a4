"""Square-pair statistics for shifted products.

For a completely multiplicative ±1 sequence drawn with fair independent
prime signs, the expectation of seq(x)*seq(y) over the draw is 1 when x*y
is a perfect square and 0 otherwise.  Applied to the shifted products
xi(x) = x(x+i_1)...(x+i_k), the second moment of the correlation average
T_N is therefore exactly (number of pairs (x, y) in [1, N]^2 with
xi(x)*xi(y) a perfect square) / N^2.  This module counts those pairs
exactly, checks the per-x counting bound that drives the decay estimate,
and cross-checks the second moment by Monte Carlo over seeds.

Classification is array code over the kernel sieve of the shared SpfTable.
The class of xi(x) is the squarefree kernel of the product, and kernels
fold one position at a time: with K the kernel so far and B = kernel(x+i),
the new kernel is (K/g)(B/g) for g = gcd(K, B), and h (its number of
primes) grows by omega(x+i) - 2 omega(g).  The fold uses uint64 only while
the product of the kernels so far, at most (N + max_offset)^j after j
positions, stays below 2^64; past that line it continues in exact Python
ints.  Grouping the keys with np.unique gives every count.

The Monte Carlo packs up to 64 seeds into the bit lanes of a uint64: bit j
of a prime's mask is set when the j-th seed of the batch gives that prime
-1, and bit j of the sieved word for n is then set when that seed maps n
to -1.  square_class, the per-integer classification, is kept as the
reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .sieve import OffsetSpec, SpfTable, build_spf, common_divisor_set, is_prime
from .signs import SignAssignment

# seeds per Monte Carlo batch, one per bit of a uint64 sign mask
_LANES = 64
# words per bit-count step: the unpacked bits take 64 bytes per word
_LANE_CHUNK = 1 << 16


def square_class(x: int, spec: OffsetSpec, table: SpfTable) -> tuple[int, ...]:
    """Sorted primes with odd exponent in xi(x) = x(x+i_1)...(x+i_k).

    Two shifted products multiply to a perfect square exactly when their
    classes are equal.  Computed by merging per-factor exponent parities;
    xi(x) itself is never formed, so nothing here grows with the product.
    The counting functions below do not call it; it is their per-integer
    reference.
    """
    table.check(x)
    if spec.offsets:
        table.check(x + spec.max_offset)
    spf = table.spf
    odd: set[int] = set()
    for pos in spec.positions():
        m = x + pos
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e ^= 1
            if e:
                odd.symmetric_difference_update((p,))
    return tuple(sorted(odd))


def _classes(N: int, spec: OffsetSpec, table: SpfTable) -> tuple[np.ndarray, np.ndarray]:
    """Class keys and h for x = 1..N, as two arrays indexed by x - 1.

    The key of x is the squarefree kernel of xi(x), folded over the
    positions; h is its number of primes.  A fold runs in uint64 while the
    product of the kernels folded so far, at most (N + max_offset)^(j+1)
    after j offsets, is known to fit; from the first fold that could pass
    2^64 on, the keys are exact Python ints.
    """
    kernel, omega = table.kernels()
    bound = N + spec.max_offset
    keys = kernel[1 : N + 1].astype(np.uint64)
    h = omega[1 : N + 1].astype(np.int64)
    for j, i in enumerate(spec.offsets, start=2):
        if keys.dtype != object and bound**j >= 1 << 64:
            keys = keys.astype(object)
        b = kernel[1 + i : N + 1 + i].astype(keys.dtype)
        g = np.gcd(keys, b)
        keys = (keys // g) * (b // g)
        # g is a squarefree divisor of b <= limit, so omega[g] is its prime
        # count; int8 holds -2 omega(g) since omega <= 9 below 2^32
        h += omega[1 + i : N + 1 + i] - 2 * omega[g.astype(np.intp)]
    return keys, h


@dataclass(frozen=True)
class PairCountResult:
    """Exact count of ordered pairs (x, y) in [1, N]^2 whose shifted
    products multiply to a perfect square."""

    N: int
    offsets: tuple[int, ...]
    pair_count: int

    @property
    def e_tn2(self) -> Fraction:
        """Second moment of T_N under fair independent prime signs."""
        return Fraction(self.pair_count, self.N * self.N)


def count_square_pairs(N: int, spec: OffsetSpec, table: SpfTable) -> PairCountResult:
    """Count square pairs by grouping x by class and summing squared sizes.

    Every x pairs with itself, so pair_count >= N always.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    table.check(N + spec.max_offset)
    keys, _ = _classes(N, spec, table)
    _, counts = np.unique(keys, return_counts=True)
    # N + max_offset <= MAX_SIEVE_LIMIT = 2^32, and the sum of squares is
    # below N^2 unless all x share one class, so uint64 cannot overflow
    counts = counts.astype(np.uint64)
    pair_count = int(counts @ counts)
    return PairCountResult(N, spec.offsets, pair_count)


@dataclass(frozen=True)
class BoundViolation:
    x: int
    matches: int
    r: int
    h: int
    N: int


def per_x_bound_check(N: int, spec: OffsetSpec, table: SpfTable) -> list[BoundViolation]:
    """Check, for every x <= N, that the number of y <= N sharing x's class
    is at most 2^r * 2^h(x) * sqrt(N).

    r counts the possible common divisors of the shifted values (a function
    of the offsets only) and h(x) the odd-exponent primes of xi(x).  The
    comparison is exact: matches^2 <= (2^(r+h))^2 * N in integers.  Returns
    the violations, expected to be none.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    table.check(N + spec.max_offset)
    r = common_divisor_set(spec).r
    keys, h = _classes(N, spec, table)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    matches = counts[inverse]
    # matches^2 > 4^(r+h) N  <=>  matches > isqrt(4^(r+h) N); a limit of N
    # or more can never be passed, so clipping to N keeps it in int64
    limits = np.array(
        [min(isqrt(N << 2 * (r + e)), N) for e in range(int(h.max()) + 1)], dtype=np.int64
    )
    return [
        BoundViolation(x + 1, int(matches[x]), r, int(h[x]), N)
        for x in np.flatnonzero(matches > limits[h]).tolist()
    ]


def smallest_prime_for_decay(k: int) -> int:
    """Least prime p with (k+1)/log2(p) <= 0.45.

    Decided in exact integer arithmetic: the inequality is equivalent to
    p^9 >= 2^(20(k+1)) since 0.45 = 9/20.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    threshold = 1 << (20 * (k + 1))
    # (2^floor(20(k+1)/9))^9 <= threshold, so no smaller p can qualify
    p = max(2, 1 << (20 * (k + 1) // 9))
    while True:
        if p**9 >= threshold and is_prime(p):
            return p
        p += 1


@dataclass(frozen=True)
class Sum2hReport:
    """Partial sums of 2^h(xi(n)) and their empirical growth rate.

    smallest_prime is the least prime p with (k+1)/log2(p) <= 0.45 and
    prime_index its 1-based position in the primes; together they size the
    constant in front of the N^1.45 growth bound for the sum.
    fitted_exponent is the least-squares slope of log(partial sum) against
    log(n) over the checkpoints (None when the grid is too small to fit).
    """

    N: int
    offsets: tuple[int, ...]
    total: int
    smallest_prime: int
    prime_index: int
    checkpoints: tuple[tuple[int, int], ...]
    fitted_exponent: float | None


def sum_2h(N: int, spec: OffsetSpec, table: SpfTable) -> Sum2hReport:
    """Sum 2^h(xi(n)) for n = 1..N with growth diagnostics."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    table.check(N + spec.max_offset)
    marks = sorted({max(1, N >> j) for j in range(3, -1, -1)})
    _, h = _classes(N, spec, table)
    # sum of 2^h(xi(m)) over m <= n from how many m have each h: exact in
    # Python ints however large h grows
    checkpoints = [
        (n, sum(c << e for e, c in enumerate(np.bincount(h[:n]).tolist()))) for n in marks
    ]
    p = smallest_prime_for_decay(spec.k)
    primes = (table if p <= table.limit else build_spf(p)).primes()
    index = int(np.searchsorted(primes, p, side="right"))
    usable = [(n, s) for n, s in checkpoints if n >= 2]
    if len(usable) >= 2:
        xs = np.log([n for n, _ in usable])
        ys = np.log([s for _, s in usable])
        fitted = float(np.polyfit(xs, ys, 1)[0])
    else:
        fitted = None
    return Sum2hReport(N, spec.offsets, checkpoints[-1][1], p, index, tuple(checkpoints), fitted)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample mean and standard error of T_N^2 across seeds.

    Each per-seed value is exact (a Fraction); mean and stderr are the
    usual floating summaries with ddof=1.
    """

    N: int
    offsets: tuple[int, ...]
    seeds: tuple[int, ...]
    values: tuple[Fraction, ...]
    mean: float
    stderr: float


def monte_carlo_e_tn2(
    N: int, spec: OffsetSpec, seeds, table: SpfTable
) -> MonteCarloResult:
    """Estimate the second moment of T_N by drawing one sequence per seed.

    Seeds run in batches of 64, one bit lane each: the signs of every
    prime under the batch's seeds are packed into one uint64 mask, and one
    walk over the prime powers XORs each mask into the multiples, which
    leaves bit j of acc[n] set exactly when seed j maps n to -1.  The
    shifted product is the XOR of the shifted slices, and each seed's sum
    is N minus twice the set bits in its lane.
    """
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    need = N + spec.max_offset
    table.check(need)
    assignments = [SignAssignment(seed) for seed in seeds]
    primes = table.primes()
    primes = primes[primes <= need]
    split = int(np.searchsorted(primes, isqrt(need), side="right"))
    large = primes[split:].astype(np.int64)
    per_prime = need // large
    # m-th multiple of each large prime, m = 1..need // p
    m = np.arange(per_prime.sum()) - np.repeat(np.cumsum(per_prime) - per_prime, per_prime) + 1
    multiples = np.repeat(large, per_prime) * m
    values = []
    for start in range(0, len(assignments), _LANES):
        batch = assignments[start : start + _LANES]
        masks = np.zeros(len(primes), dtype=np.uint64)
        for lane, assignment in enumerate(batch):
            negative = assignment.prime_sign_array(primes) == -1
            masks |= negative.astype(np.uint64) << np.uint64(lane)
        acc = np.zeros(need + 1, dtype=np.uint64)
        for p, mask in zip(primes[:split].tolist(), masks[:split].tolist()):
            q = p
            while q <= need:
                view = acc[q::q]
                view ^= mask
                q *= p
        # n <= need has at most one prime factor above sqrt(need), and only
        # to the first power, so the multiples of those primes never collide
        acc[multiples] ^= np.repeat(masks[split:], per_prime)
        product = acc[1 : N + 1].copy()
        for i in spec.offsets:
            product ^= acc[1 + i : N + 1 + i]
        negatives = _lane_counts(product)
        for lane in range(len(batch)):
            total = N - 2 * int(negatives[lane])
            values.append(Fraction(total * total, N * N))
    floats = np.array([float(v) for v in values])
    mean = float(floats.mean())
    stderr = float(floats.std(ddof=1) / sqrt(len(seeds)))
    return MonteCarloResult(N, spec.offsets, seeds, tuple(values), mean, stderr)


def _lane_counts(words: np.ndarray) -> np.ndarray:
    """Number of words with each of the 64 bits set, as int64 by bit."""
    counts = np.zeros(_LANES, dtype=np.int64)
    for start in range(0, len(words), _LANE_CHUNK):
        octets = words[start : start + _LANE_CHUNK].astype("<u8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
        counts += bits.sum(axis=0, dtype=np.int64)
    return counts
