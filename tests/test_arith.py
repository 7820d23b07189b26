"""Arithmetic layer: exponential sums, residue sets, multiplicative helpers."""
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfourier import arith
from dfourier.arith import (
    bound_ratio_scan,
    divisor_count,
    divisor_hits,
    divisor_sum,
    divisors,
    factorize,
    mobius,
    ramanujan_period,
    ramanujan_period_dense,
    ramanujan_sum,
    ramanujan_sum_bruteforce,
    residue_count,
    residue_set,
    squarefree_divisors,
)


# ----------------------------------------------------------------------
# multiplicative helpers
# ----------------------------------------------------------------------

def test_factorize_hand_values():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)


def test_small_multiplicative_tables():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert divisor_count(12) == 6
    assert divisor_sum(12) == 28
    assert list(divisors(12)) == [1, 2, 3, 4, 6, 12]
    assert list(squarefree_divisors(12)) == [1, 2, 3, 6]


def trial_division(n):
    """Reference factorization: trial division over 2, 3 and the 6k+-1 wheel."""
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    step = 2  # alternates 2, 4: visits 5, 7, 11, 13, ...
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _is_prime(n):
    return trial_division(n) == ((n, 1),)


# the uncached body: the bulk checks below neither read nor churn the cache
_factor = factorize.__wrapped__


def test_factorize_matches_trial_division_below_2_18():
    for n in range(1, 1 << 18):
        assert _factor(n) == trial_division(n), n


def test_factorize_matches_trial_division_around_the_cap():
    cap = arith._SIEVE_CAP
    below = next(p for p in range(cap - 1, 0, -1) if _is_prime(p))
    above = next(p for p in range(cap + 1, 2 * cap) if _is_prime(p))
    root = math.isqrt(cap)
    r0 = next(p for p in range(root, 0, -1) if _is_prime(p))
    r1 = next(p for p in range(root + 1, 2 * root) if _is_prime(p))
    assert r0 * r0 < cap < r1 * r1
    cases = [cap - 1, cap, cap + 1, below, above, 2 * below, 2 * above,
             below * 476_837, above * 476_831,   # cofactors near 10**12 / p
             r0 * r0, r1 * r1, r0 * r1, r0 * r0 * r1, r1 ** 3,
             2 ** 39, 10 ** 12, 999_983 * 999_979, 999_983 ** 2]
    for n in cases:
        assert n <= 10 ** 12
        assert _factor(n) == trial_division(n), n
        assert factorize(n) == trial_division(n), n
        assert divisor_count(n) == math.prod(
            e + 1 for _, e in trial_division(n)), n
    for n in (below * below, below * above):     # past the factor limit
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_matches_trial_division_on_random_large_n():
    rng = random.Random(20261020)
    for n in (rng.randrange(1, 10 ** 12) for _ in range(2000)):
        assert _factor(n) == trial_division(n), n


def test_divisor_count_matches_trial_division_on_the_criterion_6_range():
    # 1..312,095 = 1..floor(3 * 32**(1/0.3)), the largest fixture scale
    for n in range(1, 312_096):
        want = math.prod(e + 1 for _, e in trial_division(n))
        assert divisor_count(n) == want, n


def test_multiplicative_helpers_reject_non_integers():
    mobius(6)                          # a cached 6 must not answer for 6.0
    big = float(2 ** 31 + 11)                   # above the table's cap
    for call in (lambda: factorize(12.5), lambda: divisor_count(12.5),
                 lambda: factorize(big), lambda: divisor_count(big),
                 lambda: mobius(6.0), lambda: divisor_sum(6.0),
                 lambda: residue_count(6.0, 1)):
        with pytest.raises(TypeError):
            call()
    assert factorize(np.int64(12)) == ((2, 2), (3, 1))
    assert divisor_count(np.int32(12)) == 6
    assert mobius(np.uint16(30)) == -1
    for n in (0, -5, 10 ** 12 + 1):
        with pytest.raises(ValueError):
            factorize(n)
        with pytest.raises(ValueError):
            divisor_count(n)


@pytest.fixture
def fresh_table(monkeypatch):
    monkeypatch.setattr(arith, "_table", (memoryview(b""), memoryview(b"")))
    monkeypatch.setattr(arith, "_tau", memoryview(b""))


def test_divisor_counts_grow_the_table_only_as_far_as_asked(fresh_table):
    cache = factorize.cache_info()              # neither read nor filled
    table = arith._table
    for n in range(1, 30_964):                  # the regime fixture at M=16
        divisor_count(n)
    assert len(arith._tau) <= 1 << 16
    assert arith._table is table                # no smallest-factor table
    assert factorize.cache_info() == cache


def test_divisor_count_at_the_tau_table_edges(fresh_table):
    # the table grows to the next power of two past n, from 2**12 up to
    # the cap; at and above the cap the count is the factorize product
    cap = arith._SIEVE_CAP
    for n, size in ((2**12 - 1, 2**12), (2**12, 2**13), (2**15, 2**16),
                    (2**15 + 1, 2**16), (cap - 1, cap), (cap, cap),
                    (cap + 1, cap)):
        assert divisor_count(n) == math.prod(
            e + 1 for _, e in trial_division(n)), n
        assert len(arith._tau) == size, n


def test_importing_the_cli_builds_no_table():
    # a table built at import would be paid by every process start
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import dfourier.cli; from dfourier import arith; "
            "print(len(arith._tau), len(arith._table[0]), "
            "len(arith._table[1]))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0"]


def test_large_n_grows_the_table_to_the_cap_and_no_further(fresh_table):
    cap = arith._SIEVE_CAP
    _factor(10 ** 12)
    assert len(arith._table[0]) == cap
    _factor(999_983 * 999_979)
    divisor_count(10 ** 12 - 11)
    assert len(arith._table[0]) == cap
    assert len(arith._tau) == 0       # n >= cap builds no tau table
    for n in (cap - 1, cap, cap + 1, 2 * cap, 10 ** 12):
        divisor_count(n)
        assert len(arith._tau) == cap, n


def test_first_large_factorization_allocates_under_12_mb(fresh_table):
    # measured 11.19 MiB peak: the 8 MiB int32 table, its 2 MiB zero mask
    # and the 1.2 MiB int64 list of its 155,611 primes
    tracemalloc.start()
    try:
        _factor(10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


@given(st.integers(min_value=1, max_value=3000))
def test_divisor_tables_agree_with_bruteforce(n):
    ds = [d for d in range(1, n + 1) if n % d == 0]
    assert list(divisors(n)) == ds
    assert divisor_count(n) == len(ds)
    assert divisor_sum(n) == sum(ds)


@given(st.integers(min_value=1, max_value=2000),
       st.integers(min_value=1, max_value=2000))
def test_mobius_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    assert mobius(m * n) == mobius(m) * mobius(n)


# ----------------------------------------------------------------------
# residue sets
# ----------------------------------------------------------------------

def test_residue_set_hand_values():
    rs = residue_set(6, 1, 2)
    assert rs.members.tolist() == [0, 2, 3, 5]
    assert rs.count == 4
    assert residue_set(1, 0, 1).members.tolist() == [0]
    assert residue_set(7).count == 6        # classical pair, prime modulus


def test_residue_set_rejects_bad_pairs():
    with pytest.raises(ValueError):
        residue_set(6, 2, 4)
    with pytest.raises(ValueError):
        residue_set(6, 1, 0)
    with pytest.raises(ValueError):
        residue_set(0)


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=-10, max_value=10),
       st.integers(min_value=1, max_value=12))
def test_residue_count_matches_enumeration(q, a, b):
    if math.gcd(a, b) != 1:
        return
    rs = residue_set(q, a, b)
    assert rs.count == residue_count(q, b)
    # the density is the Euler product over the primes of q that b lacks,
    # whatever a is
    assert Fraction(rs.count, q) == _euler_density(q, b)


def _euler_density(q, b):
    # product of (1 - 1/p) over the primes p of q (trial division) with
    # p not dividing b, in exact rationals
    return math.prod((Fraction(p - 1, p) for p, _ in trial_division(q)
                      if b % p), start=Fraction(1))


def test_divisor_hits_at_zero_count_the_residue_set():
    # S(q, 0) = sum of mu(l) * q/l over the hits is #I_q, which is how
    # the factor tables take the count
    for a, b in ((0, 1), (1, None), (1, 2), (3, 5), (2, 7)):
        for q in range(1, 3000):
            bq = q if b is None else b
            hits = divisor_hits(q, a, bq)
            assert sum(mu * g for _, g, mu, _ in hits) == residue_count(q, bq)


def test_residue_count_values():
    assert residue_count(6, 1) == 2
    assert residue_count(6, 2) == 4         # 2 divides b: no prime 2 factor
    assert residue_count(7, 1) == 6
    assert residue_count(1, 1) == 1
    assert residue_count(12, 12) == 12      # the unrestricted pair (1, q)


@pytest.mark.parametrize("q", [
    2**21 + 1, 999_983 * 1_000_003, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    * 29 * 31, 999_999_999_989, 10**12])
def test_residue_count_above_the_sieve_cap(q):
    # exact integers past the smallest-factor table, up to 10**12
    assert q > arith._SIEVE_CAP
    for b in (1, 2, 3 * 7, 10**30 + 1, q):
        assert residue_count(q, b) == q * _euler_density(q, b), b


# ----------------------------------------------------------------------
# generalized Ramanujan sums
# ----------------------------------------------------------------------

def test_ramanujan_classical_hand_values():
    # classical c_q(k) via the divisor formula
    assert ramanujan_sum(1, 1) == pytest.approx(1)
    assert ramanujan_sum(6, 1) == pytest.approx(1)
    assert ramanujan_sum(4, 2) == pytest.approx(-2)
    assert ramanujan_sum(5, 5) == pytest.approx(4)       # q | k -> phi(q)
    assert ramanujan_sum(12, 0).real == pytest.approx(residue_count(12, 1))


@given(st.integers(min_value=1, max_value=150),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=8))
def test_divisor_formula_matches_bruteforce(q, k, a, b):
    if math.gcd(a, b) != 1:
        return
    brute = ramanujan_sum_bruteforce(q, k, a, b)
    div = ramanujan_sum(q, k, a, b)
    assert abs(brute - div) < 1e-9


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=200))
def test_period_in_k(q, k):
    assert ramanujan_sum(q, k + q, 1, 2) == pytest.approx(
        ramanujan_sum(q, k, 1, 2), abs=1e-9)


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=120))
def test_classical_multiplicativity(m, n, k):
    if math.gcd(m, n) != 1:
        return
    lhs = ramanujan_sum(m * n, k)
    rhs = ramanujan_sum(m, k) * ramanujan_sum(n, k)
    assert abs(lhs - rhs) < 1e-9


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300))
def test_divisor_sum_envelope(q, k):
    # |S(q, k)| <= sigma(gcd(q, k)) for every pair
    assert abs(ramanujan_sum(q, k)) <= divisor_sum(math.gcd(q, k)) + 1e-9


def test_period_lines_agree():
    for q in (1, 2, 12, 36, 97, 360):
        for a, b in ((0, 1), (1, 2), (3, 4), (1, q)):
            lhs = ramanujan_period(q, a, b)
            rhs = ramanujan_period_dense(q, a, b)
            assert np.abs(lhs - rhs).max() < 1e-9


def test_bound_ratio_scan_small():
    res = bound_ratio_scan(50, 50, [(0, 1), (1, 2)])
    assert res["worst_ratio"] == pytest.approx(1 / math.log(2))
    assert (res["q"], res["k"]) == (2, 1)
