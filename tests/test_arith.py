"""Arithmetic layer: exponential sums, residue sets, multiplicative helpers."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfourier.arith import (
    bound_ratio_scan,
    coprime_density,
    divisor_count,
    divisor_hits,
    divisor_sum,
    divisors,
    factorize,
    grs_bound_ratio,
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
    # density is exact and independent of a
    assert Fraction(rs.count, q) == coprime_density(q, b)


def test_divisor_hits_at_zero_count_the_residue_set():
    # S(q, 0) = sum of mu(l) * q/l over the hits is #I_q, which is how
    # the factor tables take the count
    for a, b in ((0, 1), (1, None), (1, 2), (3, 5), (2, 7)):
        for q in range(1, 3000):
            bq = q if b is None else b
            hits = divisor_hits(q, a, bq)
            assert sum(mu * g for _, g, mu, _ in hits) == residue_count(q, bq)


def test_coprime_density_values():
    assert coprime_density(6, 1) == Fraction(1, 3)
    assert coprime_density(6, 2) == Fraction(2, 3)    # 2 divides b, dropped
    assert coprime_density(7, 1) == Fraction(6, 7)
    assert coprime_density(1, 1) == 1


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


def test_grs_bound_ratio_preconditions():
    with pytest.raises(ValueError):
        grs_bound_ratio(1, 1)
    with pytest.raises(ValueError):
        grs_bound_ratio(5, 0)
    assert grs_bound_ratio(2, 1) == pytest.approx(1 / math.log(2))


def test_bound_ratio_scan_small():
    res = bound_ratio_scan(50, 50, [(0, 1), (1, 2)])
    assert res["worst_ratio"] == pytest.approx(1 / math.log(2))
    assert (res["q"], res["k"]) == (2, 1)
