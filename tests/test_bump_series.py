"""Smoothing kernel and banded series layer: closed forms vs brute force."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfourier import (
    BandwidthBudgetError,
    BumpSpec,
    TruncatedFourierSeries,
    ProfileError,
    constant_series,
    h0_series,
    series_multiply,
)
from dfourier.bump import _rising_pieces

BUMP = BumpSpec()


# ----------------------------------------------------------------------
# kernel geometry and space side
# ----------------------------------------------------------------------

def test_default_bump_geometry():
    # one fixed kernel: class constants, and no constructor arguments
    assert (BumpSpec.smoothness, BumpSpec.order, BumpSpec.shrink) \
        == (10, 12, 0.99)
    assert BumpSpec.box_halfwidth == 0.99 / 12
    assert BUMP == BumpSpec()
    for key in ("smoothness", "shrink"):
        with pytest.raises(TypeError):
            BumpSpec(**{key: 1})
    # the construction needs K > s + 4, and s <= 1 for every profile
    # (test_s_exponent_lies_in_unit_interval), so no build checks it
    assert BumpSpec.smoothness > 1 + 4


def test_value_support_symmetry_and_mass():
    """Kernel is even, vanishes off (-shrink, shrink), integrates to one."""
    assert BUMP.value(0.99) == 0.0
    assert BUMP.value(-1.5) == 0.0
    assert BUMP.value(0.0) == pytest.approx(2.387427667730698, rel=1e-12)
    x = np.linspace(-1.0, 1.0, 200_001)
    v = BUMP.value(x)
    assert np.all(v >= 0.0)
    assert np.max(np.abs(v - v[::-1])) < 1e-12
    assert np.trapezoid(v, x) == pytest.approx(1.0, abs=1e-9)


def test_value_scalar_matches_array():
    xs = [-0.7, -0.1, 0.0, 0.3, 0.98]
    arr = BUMP.value(np.array(xs))
    for x, a in zip(xs, arr):
        assert BUMP.value(x) == a


def _truncated_power(m: int, t: Fraction) -> Fraction:
    # the order-m cardinal B-spline at distance t from its left edge
    return sum((-1) ** k * math.comb(m, k) * (t - k) ** (m - 1)
               for k in range(m + 1) if t > k) / math.factorial(m - 1)


@pytest.mark.parametrize("order", [3, 5, 12])
def test_value_matches_exact_truncated_power(order):
    # the pieces at every order, by Horner's rule on the rising half
    rng = np.random.default_rng(order)
    t = np.concatenate([rng.uniform(0.0, order / 2.0, 300),
                        rng.uniform(0.0, 1e-12, 20),  # near the left edge
                        np.arange(order // 2 + 1), [order / 2.0]])
    j = np.clip(np.floor(t), 0, (order - 1) // 2).astype(np.intp)
    pieces = _rising_pieces(order)
    acc = pieces[0][j]
    for row in pieces[1:]:
        acc = acc * (t - j) + row[j]
    want = np.array([float(_truncated_power(order, Fraction(v))) for v in t])
    assert np.all(np.abs(acc - want) <= 1e-15 * float(want.max()))
    core = t >= 0.05 * order
    assert np.all(np.abs(acc - want)[core] <= 1e-13 * want[core])
    if order != BumpSpec.order:
        return
    # the kernel itself, which scales the pieces to its support
    w = Fraction(BUMP.box_halfwidth)
    s = BUMP.shrink
    xs = np.concatenate([
        rng.uniform(-s, s, 300),
        s - rng.uniform(0.0, 1e-12, 20),  # within 1e-12 of the edge
        -s + rng.uniform(0.0, 1e-12, 20),
        BUMP.box_halfwidth * 2.0 * (np.arange(order + 1) - order / 2.0),
        [0.0, s, -s, 1.0]])
    got = BUMP.value(xs)
    want = np.array([float(_truncated_power(order, order / Fraction(2)
                                            - abs(Fraction(x)) / (2 * w))
                           / (2 * w)) for x in xs])
    peak = float(want.max())
    assert np.all(np.abs(got - want) <= 1e-15 * peak)
    core = np.abs(xs) <= 0.9 * s
    assert np.all(np.abs(got - want)[core] <= 1e-13 * want[core])


# ----------------------------------------------------------------------
# frequency side
# ----------------------------------------------------------------------

def test_fourier_normalization_and_parity():
    assert float(BUMP.fourier(0.0)) == 1.0
    xi = np.linspace(0.0, 500.0, 4001)
    f = BUMP.fourier(xi)
    assert np.array_equal(f, BUMP.fourier(-xi))
    assert np.max(np.abs(f)) <= 1.0


def test_fourier_matches_direct_integral():
    # oracle: quadrature of value(x) * e(-2 pi i xi x) on a fine grid
    x = np.linspace(-0.99, 0.99, 160_001)
    v = BUMP.value(x)
    for xi in (0.5, 1.0, 3.25, 10.0):
        direct = np.trapezoid(v * np.exp(-2j * math.pi * xi * x), x)
        assert abs(direct.imag) < 1e-9
        assert BUMP.fourier(xi) == pytest.approx(direct.real, abs=1e-9)


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_envelope_majorizes_transform(xi):
    assert BUMP.envelope(xi) + 1e-15 >= abs(BUMP.fourier(xi))


def test_envelope_tail_sum_is_a_true_bound():
    rate = 0.5
    start = 10
    ls = np.arange(start + 1, 200_001)
    partial = float(np.sum(BUMP.envelope(rate * ls)))
    assert partial <= BUMP.envelope_tail_sum(rate, start)
    assert BUMP.envelope_tail_sum(0.0, 3) == math.inf
    # shrinking the rate can only inflate the tail
    assert BUMP.envelope_tail_sum(0.25, start) >= BUMP.envelope_tail_sum(0.5, start)


# ----------------------------------------------------------------------
# the unit-interval window
# ----------------------------------------------------------------------

def test_window_transform_matches_direct_integral():
    x = np.linspace(0.0, 1.0, 160_001)
    w = BUMP.window_value(x)
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)
    for xi in (0.0, 0.5, 1.0, 3.25):
        direct = np.trapezoid(w * np.exp(-2j * math.pi * xi * x), x)
        got = complex(BUMP.window_transform(xi))
        assert got == pytest.approx(direct, abs=1e-8)


def test_window_envelope_and_tail():
    xi = np.concatenate([np.linspace(0.0, 50.0, 2001), [123.25, 1000.0]])
    assert np.all(BUMP.window_envelope(xi) + 1e-15
                  >= np.abs(BUMP.window_transform(xi)))
    ls = np.arange(31, 100_001)
    partial = float(np.sum(BUMP.window_envelope(ls)))
    assert partial <= BUMP.window_tail_sum(30)


def test_window_kernel_layout():
    kern = BUMP.window_kernel(0.25, 8)
    assert kern.shape == (17,)
    for n in (-8, -3, 0, 5, 8):
        want = complex(BUMP.window_transform(n + 0.25))
        assert kern[8 + n] == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_h0_series_frozen_anchor():
    h0 = h0_series(BUMP, 1e-13)
    assert h0.half_bandwidth == 57
    assert h0.tail_bound == pytest.approx(8.499441290116247e-14, rel=1e-9)
    assert h0.coeff(0) == 1.0 + 0.0j
    assert h0.hermitian_defect() == 0.0
    assert np.max(np.abs(h0.coeffs.imag)) < 1e-15
    # integer samples of the window transform alternate in sign
    for l in range(1, 6):
        assert h0.coeff(l).real * (-1.0) ** l > 0.0
    band = np.arange(-57, 58)
    assert np.all(np.abs(h0.coeffs) <= BUMP.window_envelope(band) + 1e-15)


def test_h0_series_unreachable_tolerance():
    with pytest.raises(ValueError):
        h0_series(BUMP, 0.0)


def test_h0_series_band_search_matches_the_linear_scan():
    # the least L >= 1 with 2 * window_tail_sum(L) <= tol, within 10**6
    for tol, want in ((1e-13, 57), (1e-8, 20), (1e-3, 7), (1e-20, 244),
                      (1e-40, 15996), (1e-55, 369520), (1.0, 4), (1e6, 1)):
        assert h0_series(BUMP, tol).half_bandwidth == want
        assert want == 1 or 2.0 * BUMP.window_tail_sum(want - 1) > tol
    with pytest.raises(ProfileError, match="tail_tol"):
        h0_series(BUMP, 1e-300)


# ----------------------------------------------------------------------
# truncated series container
# ----------------------------------------------------------------------

def test_series_accessors():
    s = TruncatedFourierSeries(np.array([1 - 2j, 3.0, 1 + 2j]), tail_bound=0.5)
    assert s.half_bandwidth == 1
    assert s.coeff(-1) == 1 - 2j
    assert s.coeff(0) == 3.0 + 0j
    assert s.coeff(2) == 0.0 + 0.0j
    assert s.l1_norm() == pytest.approx(3.0 + 2.0 * math.sqrt(5.0), rel=1e-15)
    assert s.l2_norm() == pytest.approx(math.sqrt(19.0), rel=1e-15)
    assert s.sup_bound() == pytest.approx(s.l1_norm() + 0.5, rel=1e-15)
    assert s.hermitian_defect() == 0.0


def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedFourierSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TruncatedFourierSeries(np.ones((3, 3)))
    with pytest.raises(ValueError):
        TruncatedFourierSeries(np.array([1.0]), tail_bound=-1e-9)


def test_from_half_mirrors_exactly():
    rng = np.random.default_rng(3)
    half = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    half[0] = 2.5
    s = TruncatedFourierSeries.from_half(half, tail_bound=0.25)
    assert s.half_bandwidth == 5 and s.tail_bound == 0.25
    assert s.coeffs[5:].tobytes() == half.tobytes()
    assert s.coeffs[:5].tobytes() == np.conj(half[:0:-1]).tobytes()
    assert s.hermitian_defect() == 0.0
    with pytest.raises(ValueError, match="must be real"):
        TruncatedFourierSeries.from_half(np.array([1.0 + 1e-300j, 2.0]))
    # a Hermitian series is its own half's mirror, bit for bit
    h = TruncatedFourierSeries(np.array([1 - 2j, 0.5j, 3.0, complex(0, -0.5),
                                         1 + 2j]))
    back = TruncatedFourierSeries.from_half(h.coeffs[2:])
    assert back.coeffs.tobytes() == h.coeffs.tobytes()


def test_slice_to_bookkeeping():
    s = TruncatedFourierSeries(np.array([0.5j, 1.0, 2.0, 1.0, -0.5j]),
                               tail_bound=0.25)
    narrowed = s.slice_to(1)
    assert narrowed.half_bandwidth == 1
    assert narrowed.tail_bound == pytest.approx(0.25 + 1.0, rel=1e-15)
    assert narrowed.coeff(0) == 2.0 + 0j
    assert s.slice_to(2) is s
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            s.slice_to(bad)


def test_evaluate_on_regular_grid_matches_direct_sum():
    rng = np.random.default_rng(7)
    half = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    half[0] = half[0].real
    s = TruncatedFourierSeries.from_half(half)
    c = s.coeffs
    L = s.half_bandwidth
    ls = np.arange(-L, L + 1)
    for n in (4, 9, 16):  # folding kicks in for n < 2L+1
        got = s.evaluate_on_regular_grid(n)
        assert got.dtype == np.float64
        x = np.arange(n) / n
        direct = (c[None, :] * np.exp(2j * math.pi * x[:, None] * ls)).sum(axis=1)
        assert np.max(np.abs(got - direct)) < 1e-12
    with pytest.raises(ValueError):
        s.evaluate_on_regular_grid(0)


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------

# [0, L] halves of real functions: a real c(0), then complex c(1..L)
half_lines = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0),
    st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                allow_infinity=False), max_size=4),
).map(lambda h: [complex(h[0])] + h[1])


@given(half_lines, half_lines)
def test_multiply_matches_convolution(a, b):
    sa = TruncatedFourierSeries.from_half(np.array(a), tail_bound=0.125)
    sb = TruncatedFourierSeries.from_half(np.array(b), tail_bound=0.0625)
    prod = series_multiply(sa, sb)
    assert prod.half_bandwidth == sa.half_bandwidth + sb.half_bandwidth
    oracle = np.convolve(sa.coeffs, sb.coeffs)
    assert np.max(np.abs(prod.coeffs - oracle)) <= 1e-9 * (1.0 + np.max(np.abs(oracle)))
    want_tail = (0.125 * sb.l1_norm() + 0.0625 * sa.l1_norm() + 0.125 * 0.0625)
    assert prod.tail_bound == pytest.approx(want_tail, rel=1e-12)


def test_multiply_respects_budget():
    a = TruncatedFourierSeries(np.ones(101, dtype=complex))
    b = TruncatedFourierSeries(np.ones(101, dtype=complex))
    with pytest.raises(BandwidthBudgetError) as err:
        series_multiply(a, b, budget=150, where="unit test")
    assert str(err.value) == ("bandwidth budget exceeded: need 201 "
                              "coefficients, cap 150 (unit test)")


def test_multiply_rejects_a_non_hermitian_factor():
    real = TruncatedFourierSeries(np.array([1.0, 2.0, 1.0]))
    skew = TruncatedFourierSeries(np.array([1j, 2.0, 1j]))
    for a, b in ((real, skew), (skew, real), (constant_series(), skew)):
        with pytest.raises(ValueError, match="not the series of a real"):
            series_multiply(a, b)


def test_constant_series_is_multiplicative_identity():
    one = constant_series()
    assert one.half_bandwidth == 0
    s = TruncatedFourierSeries(np.array([1j, 2.0, -1j]), tail_bound=0.5)
    prod = series_multiply(one, s)
    assert np.array_equal(prod.coeffs, s.coeffs)
    assert prod.tail_bound == pytest.approx(0.5, rel=1e-15)
