import random

import pytest

from normalsets import (
    DivisorSet,
    OffsetSpec,
    OutOfRangeError,
    build_spf,
    common_divisor_set,
    factorize,
    is_prime,
    liouville_classic,
    squarefree_kernel,
    xi,
)


def trial_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_spf(1)
    with pytest.raises(ValueError):
        build_spf(0)
    with pytest.raises(ValueError):
        build_spf((1 << 32) + 1)


def test_spf_entries_small(small_table):
    spf = small_table.spf
    assert int(spf[2]) == 2
    assert int(spf[4]) == 2
    assert int(spf[9]) == 3
    assert int(spf[997]) == 997  # prime above sqrt(10000) must still be marked
    assert int(spf[9991]) == 97  # 97 * 103


def test_factorize_matches_trial_division(small_table):
    rng = random.Random(1)
    samples = [1, 2, 9973, 9999, 10_000] + [rng.randrange(1, 10_001) for _ in range(300)]
    for n in samples:
        assert factorize(n, small_table) == trial_factorize(n)


def test_factorize_edge_cases(small_table):
    assert factorize(1, small_table) == []
    with pytest.raises(ValueError):
        factorize(0, small_table)
    with pytest.raises(OutOfRangeError):
        factorize(10_001, small_table)


def test_factorization_invariants(small_table):
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(2, 10_001)
        fac = factorize(n, small_table)
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        prod = 1
        for p, e in fac:
            assert e >= 1 and small_table.is_prime(p)
            prod *= p**e
        assert prod == n


def test_liouville_classic_first_ten(small_table):
    values = [liouville_classic(n, small_table) for n in range(1, 11)]
    assert values == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


def test_liouville_classic_multiplicative(small_table):
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(1, 101)
        b = rng.randrange(1, 101)
        assert liouville_classic(a * b, small_table) == liouville_classic(
            a, small_table
        ) * liouville_classic(b, small_table)


def test_squarefree_kernel_values(small_table):
    assert squarefree_kernel(360, small_table) == (10, 2)
    assert squarefree_kernel(12, small_table) == (3, 1)
    assert squarefree_kernel(1, small_table) == (1, 0)
    assert squarefree_kernel(9973, small_table) == (9973, 1)


def test_squarefree_kernel_properties(small_table):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 10_001)
        kernel, h = squarefree_kernel(n, small_table)
        assert n % kernel == 0
        quotient = n // kernel
        root = int(quotient**0.5)
        while root * root < quotient:
            root += 1
        assert root * root == quotient  # the cofactor is a perfect square
        fac = factorize(kernel, small_table)
        assert all(e == 1 for _, e in fac)  # kernel is squarefree
        assert h == len(fac)


@pytest.mark.parametrize("limit", [2, 3, 4, 48, 49, 50, 10_000])
def test_kernel_sieve_matches_squarefree_kernel(limit, small_table):
    table = small_table if limit == 10_000 else build_spf(limit)
    kernel, omega = table.kernels()
    assert kernel.dtype == "uint32" and omega.dtype == "int8"
    assert kernel.shape == omega.shape == (limit + 1,)
    assert (int(kernel[0]), int(omega[0])) == (1, 0)
    expected = [squarefree_kernel(n, table) for n in range(1, limit + 1)]
    assert list(zip(kernel[1:].tolist(), omega[1:].tolist())) == expected
    assert table.kernels()[0] is kernel  # cached


def test_offset_spec_validation():
    with pytest.raises(ValueError):
        OffsetSpec((0,))
    with pytest.raises(ValueError):
        OffsetSpec((2, 1))
    with pytest.raises(ValueError):
        OffsetSpec((1, 1))
    spec = OffsetSpec((1, 2))
    assert spec.k == 2
    assert spec.max_offset == 2
    assert spec.positions() == (0, 1, 2)


def test_offset_spec_parse():
    assert OffsetSpec.parse("").offsets == ()
    assert OffsetSpec.parse("  ").offsets == ()
    assert OffsetSpec.parse("1,2").offsets == (1, 2)
    with pytest.raises(ValueError):
        OffsetSpec.parse("3,1")
    empty = OffsetSpec.parse("")
    assert empty.k == 0 and empty.max_offset == 0 and empty.positions() == (0,)


def test_xi():
    assert xi(1, OffsetSpec((1, 2, 3))) == 24
    assert xi(7, OffsetSpec(())) == 7
    assert xi(3, OffsetSpec((1,))) == 12
    with pytest.raises(ValueError):
        xi(0, OffsetSpec(()))
    # stays exact far past any machine word
    big = xi(10**17, OffsetSpec((1, 2)))
    assert big == 10**17 * (10**17 + 1) * (10**17 + 2)


def test_common_divisor_set():
    assert common_divisor_set(OffsetSpec(())) == DivisorSet(())
    assert common_divisor_set(OffsetSpec(())).r == 0
    assert common_divisor_set(OffsetSpec((1,))).members == (1,)
    assert common_divisor_set(OffsetSpec((2,))).members == (1, 2)
    assert common_divisor_set(OffsetSpec((1, 2))).members == (1, 2)
    assert common_divisor_set(OffsetSpec((6,))).members == (1, 2, 3, 6)


def test_common_divisor_set_covers_differences():
    rng = random.Random(5)
    for _ in range(30):
        offs = tuple(sorted(rng.sample(range(1, 30), rng.randint(0, 3))))
        spec = OffsetSpec(offs)
        members = set(common_divisor_set(spec).members)
        pts = spec.positions()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diff = pts[j] - pts[i]
                for d in range(1, diff + 1):
                    if diff % d == 0:
                        assert d in members
        for d in members:
            assert any(
                (pts[j] - pts[i]) % d == 0
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )


def test_is_prime_against_table(small_table):
    for n in range(10_000):
        assert is_prime(n) == (n >= 2 and small_table.is_prime(n))
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_primes_listing(small_table):
    primes = small_table.primes()
    assert primes[0] == 2 and primes[-1] == 9973
    assert len(primes) == 1229  # pi(10^4)
