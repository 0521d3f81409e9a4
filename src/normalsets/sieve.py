"""Smallest-prime-factor sieve and the arithmetic helpers built on it.

Everything downstream (sign sequences, square classes, pair counting)
factors integers through one shared SpfTable, so the table is built once
per run and treated as immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import OutOfRangeError

# Dense uint32 table; limits above this are refused outright.  At the top
# end the table alone is 16 GiB, so in practice runs stay far below it.
MAX_SIEVE_LIMIT = 1 << 32

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SpfTable:
    """Dense smallest-prime-factor table over [2, limit].

    ``spf[n]`` is the least prime dividing n, with ``spf[p] == p`` for
    primes.  Construction is single threaded; the finished table is
    read-only and safe to share across threads.
    """

    __slots__ = ("limit", "spf", "_primes", "_kernels")

    def __init__(self, limit: int) -> None:
        if limit < 2:
            raise ValueError(f"sieve limit must be at least 2, got {limit}")
        if limit > MAX_SIEVE_LIMIT:
            raise ValueError(
                f"sieve limit {limit} exceeds the dense-table bound {MAX_SIEVE_LIMIT}"
            )
        spf = np.zeros(limit + 1, dtype=np.uint32)
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == 0:
                spf[p] = p
                tail = spf[p * p :: p]
                tail[tail == 0] = p
        # whatever is still unset is a prime above sqrt(limit)
        missed = np.flatnonzero(spf[2:] == 0) + 2
        spf[missed] = missed
        self.limit = limit
        self.spf = spf
        self._primes: np.ndarray | None = None
        self._kernels: tuple[np.ndarray, np.ndarray] | None = None

    def check(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"expected a positive integer, got {n}")
        if n > self.limit:
            raise OutOfRangeError(f"{n} exceeds the sieve limit {self.limit}")

    def smallest_factor(self, n: int) -> int:
        self.check(n)
        if n == 1:
            raise ValueError("1 has no prime factors")
        return int(self.spf[n])

    def is_prime(self, n: int) -> bool:
        self.check(n)
        return n >= 2 and int(self.spf[n]) == n

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending.  Cached after the first call."""
        if self._primes is None:
            values = np.arange(2, self.limit + 1, dtype=np.uint32)
            self._primes = values[self.spf[2:] == values]
        return self._primes

    def kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Squarefree kernels and odd-exponent prime counts over [0, limit].

        ``kernel[n]`` (uint32) is the product of the primes with odd
        exponent in n and ``omega[n]`` (int8) their number, so
        ``squarefree_kernel(n) == (kernel[n], omega[n])``; index 0 holds
        (1, 0).  Built by walking the powers of each prime p <= sqrt(limit):
        the multiples of p, p^3, ... gain p and those of p^2, p^4, ... lose
        it again.  What is left of n once those primes are divided out is 1
        or a single prime above sqrt(limit), with exponent 1.  Cached after
        the first call.
        """
        if self._kernels is None:
            limit = self.limit
            kernel = np.ones(limit + 1, dtype=np.uint32)
            omega = np.zeros(limit + 1, dtype=np.int8)
            rest = np.arange(limit + 1, dtype=np.uint32)
            rest[0] = 1
            small = self.primes()
            for p in small[: np.searchsorted(small, isqrt(limit), side="right")].tolist():
                q, odd = p, True
                while q <= limit:
                    rest[q::q] //= p
                    if odd:
                        kernel[q::q] *= p
                        omega[q::q] += 1
                    else:
                        kernel[q::q] //= p
                        omega[q::q] -= 1
                    q *= p
                    odd = not odd
            kernel *= rest
            omega += rest > 1
            self._kernels = (kernel, omega)
        return self._kernels


def build_spf(limit: int) -> SpfTable:
    """Construct the shared factorization table."""
    return SpfTable(limit)


def factorize(n: int, table: SpfTable) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending.

    factorize(1) is the empty list.
    """
    table.check(n)
    spf = table.spf
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def liouville_classic(n: int, table: SpfTable) -> int:
    """(-1) raised to the number of prime factors of n counted with multiplicity."""
    table.check(n)
    spf = table.spf
    m, s = n, 1
    while m > 1:
        p = int(spf[m])
        while m % p == 0:
            m //= p
            s = -s
    return s


def squarefree_kernel(n: int, table: SpfTable) -> tuple[int, int]:
    """Largest squarefree divisor d of n with n/d a perfect square.

    Returns (kernel, h) where h is the number of primes in the kernel,
    i.e. the number of primes appearing in n with odd exponent.
    """
    kernel, h = 1, 0
    for p, e in factorize(n, table):
        if e & 1:
            kernel *= p
            h += 1
    return kernel, h


@dataclass(frozen=True)
class OffsetSpec:
    """Strictly increasing positive shift offsets (possibly none at all).

    An empty spec means the bare sequence with no shifted companions.
    """

    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        offs = tuple(int(i) for i in self.offsets)
        if any(i < 1 for i in offs):
            raise ValueError(f"offsets must be >= 1, got {offs}")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError(f"offsets must be strictly increasing, got {offs}")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def parse(cls, text: str) -> "OffsetSpec":
        """Parse a comma list like "1,2"; empty or blank text means no offsets."""
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(part) for part in text.split(",")))

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def max_offset(self) -> int:
        return self.offsets[-1] if self.offsets else 0

    def positions(self) -> tuple[int, ...]:
        """Evaluation points (0, i_1, ..., i_k)."""
        return (0, *self.offsets)


def xi(x: int, spec: OffsetSpec) -> int:
    """The shifted product x * (x + i_1) * ... * (x + i_k), exact."""
    if x < 1:
        raise ValueError(f"expected x >= 1, got {x}")
    value = x
    for i in spec.offsets:
        value *= x + i
    return value


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@dataclass(frozen=True)
class DivisorSet:
    """Every positive integer dividing some nonzero pairwise difference of
    the evaluation points (0, i_1, ..., i_k).

    Equivalently: d is a member iff for some x, d divides at least two of
    x, x+i_1, ..., x+i_k.  Depends only on the offsets, never on x.
    """

    members: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.members)


def common_divisor_set(spec: OffsetSpec) -> DivisorSet:
    pts = spec.positions()
    found: set[int] = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            found.update(_divisors(pts[j] - pts[i]))
    return DivisorSet(tuple(sorted(found)))
