"""Compactly supported bump kernels with closed-form Fourier envelopes.

The smoothing kernel used throughout is an m-fold self-convolution of a
centred box of half-width ``w = shrink / m``.  That makes it a cardinal
B-spline of order m squeezed so its support ``[-shrink, shrink]`` stays
strictly inside (-1, 1), while its transform is exactly ``sinc(2*w*xi)**m``
and therefore obeys the elementary envelope ``min(1, (2*pi*w*|xi|)**-m)``.
Every decay estimate downstream reduces to sums of that envelope, so the
tail helpers here are the single source of truth for truncation bounds.

On the space side the kernel is an exact piecewise polynomial: its
pieces come from the truncated-power formula in exact rationals, and
only the rising half is stored because the kernel is even.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def _libm_pow(x: np.ndarray, e: int) -> np.ndarray:
    """x**e entry by entry through the C library's pow, as Python floats do.

    ``np.power`` may take a SIMD pow that differs in the last bit, and a
    last bit can move a certified band edge.
    """
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


@lru_cache(maxsize=64)
def _rising_pieces(m: int) -> np.ndarray:
    """Horner coefficients of the rising half of the cardinal B-spline.

    At distance t from its left edge the m-fold self-convolution of the
    unit box is sum_k (-1)^k C(m, k) (t - k)_+^(m-1) / (m-1)!.  Column j,
    j < (m + 1) // 2, is that polynomial on [j, j+1) in u = t - j,
    highest power first; for odd m the last column is the centre piece.
    """
    rows = []
    for j in range((m + 1) // 2):
        coef = [Fraction(0)] * m  # coef[i] multiplies u**i
        for k in range(j + 1):
            sign = (-1) ** k * math.comb(m, k)
            for i in range(m):
                coef[i] += (sign * math.comb(m - 1, i)
                            * Fraction(j - k) ** (m - 1 - i))
        rows.append([float(c / math.factorial(m - 1)) for c in reversed(coef)])
    return np.array(rows).T


@dataclass(frozen=True)
class BumpSpec:
    """Smoothness budget and support shrink factor for the mollifier.

    Parameters
    ----------
    smoothness : int
        Number K of continuous derivatives requested.  The convolution
        order is ``m = K + 2`` so the kernel lands in C^K.
    shrink : float
        Support half-width of the kernel, strictly between 0 and 1.

    Notes
    -----
    ``value`` integrates to one; ``fourier`` is real, even, equals 1 at 0
    and vanishes to order m at infinity.
    """

    smoothness: int = 10
    shrink: float = 0.99

    def __post_init__(self) -> None:
        if self.smoothness < 1:
            raise ValueError("smoothness must be a positive integer")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie strictly between 0 and 1")

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Convolution order m = smoothness + 2."""
        return self.smoothness + 2

    @property
    def box_halfwidth(self) -> float:
        """Half-width w of each convolved box; support is [-m*w, m*w]."""
        return self.shrink / self.order

    def check_smoothness(self, s_exponent: float) -> bool:
        """True when the smoothness margin K > s + 4 holds."""
        return self.smoothness > s_exponent + 4.0

    # ------------------------------------------------------------------
    # space side
    # ------------------------------------------------------------------

    def value(self, x):
        """Evaluate the kernel; zero outside (-shrink, shrink).

        Exact piecewise polynomial in t = m/2 - |x|/(2w), the distance
        in box widths from the nearer support edge, by Horner's rule, so
        values keep relative accuracy up to the edge.  Accepts scalars
        or arrays and returns matching float64 output.
        """
        m = self.order
        w = self.box_halfwidth
        t = m / 2.0 - np.abs(np.asarray(x, dtype=float)) / (2.0 * w)
        j = np.clip(np.floor(t), 0, (m - 1) // 2)
        u = t - j
        j = j.astype(np.intp)
        pieces = _rising_pieces(m)
        acc = pieces[0][j]
        for row in pieces[1:]:
            acc = acc * u + row[j]
        out = np.where(t > 0.0, acc, 0.0) / (2.0 * w)
        if out.ndim == 0:
            return float(out)
        return out

    # ------------------------------------------------------------------
    # frequency side
    # ------------------------------------------------------------------

    def fourier(self, xi):
        """Transform at frequency xi: sinc(2*w*xi)**m (real, even)."""
        w = self.box_halfwidth
        return np.sinc(2.0 * w * np.asarray(xi, dtype=float)) ** self.order

    def envelope(self, xi):
        """Pointwise majorant min(1, (2*pi*w*|xi|)**-m) of |fourier|."""
        m = self.order
        w = self.box_halfwidth
        t = TWO_PI * w * np.abs(np.asarray(xi, dtype=float))
        return np.where(t > 1.0, np.maximum(t, 1.0) ** (-m), 1.0)

    def envelope_tail_sum(self, rate, start):
        """One-sided envelope tail sum_{l > start} envelope(rate * l).

        Counts the flat region exactly and bounds the decaying part by
        the integral comparison swap, so the result is a true upper
        bound; a rate <= 0 has no decay and gives inf.  Arrays of rates
        and starts broadcast, and every entry is the float that the
        formula gives in Python floats.
        """
        m = self.order
        rate = np.asarray(rate, dtype=float)
        start = np.maximum(np.asarray(start, dtype=np.int64), 0)
        decays = rate > 0.0
        # envelope reaches 1 below x0
        x0 = 1.0 / (TWO_PI * self.box_halfwidth * np.where(decays, rate, 1.0))
        flat_top = np.floor(x0)
        n_flat = np.maximum(flat_top - start, 0.0)
        t0 = np.maximum(np.maximum(start, flat_top), 1.0)
        # sum_{l > t0} (l/x0)^-m  <=  x0^m * t0^(1-m) / (m-1)
        decay = _libm_pow(x0, m) * _libm_pow(t0, 1 - m) / (m - 1)
        out = np.where(decays, n_flat + decay, math.inf)
        return float(out) if out.ndim == 0 else out

    # ------------------------------------------------------------------
    # the unit-interval window h0
    # ------------------------------------------------------------------
    # h0(x) = 2*shrink*value(shrink*(2x-1)): supported exactly on [0, 1],
    # positive on the open interval, unit integral.

    def window_value(self, x):
        """The window h0 on [0, 1]; zero outside."""
        s = self.shrink
        return 2.0 * s * self.value(s * (2.0 * np.asarray(x, dtype=float) - 1.0))

    def window_transform(self, xi):
        """Transform of h0: exp(-i*pi*xi) * fourier(xi / (2*shrink))."""
        xi = np.asarray(xi, dtype=float)
        return np.exp(-1j * math.pi * xi) * self.fourier(xi / (2.0 * self.shrink))

    def window_envelope(self, xi):
        """Majorant min(1, (pi*|xi|/m)**-m) of |window_transform|."""
        m = self.order
        t = math.pi * np.abs(np.asarray(xi, dtype=float)) / m
        return np.where(t > 1.0, np.maximum(t, 1.0) ** (-m), 1.0)

    def window_tail_sum(self, start: int) -> float:
        """One-sided tail of the window envelope beyond ``start``."""
        return self.envelope_tail_sum(1.0 / (2.0 * self.shrink), start)

    def window_kernel(self, frac: float, halfwidth: int) -> np.ndarray:
        """Window transform sampled at n + frac, n in [-halfwidth, halfwidth]."""
        n = np.arange(-halfwidth, halfwidth + 1, dtype=float)
        return self.window_transform(n + frac)
