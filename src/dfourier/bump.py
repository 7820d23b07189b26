"""Compactly supported bump kernels with closed-form Fourier envelopes.

The smoothing kernel used throughout is an m-fold self-convolution of a
centred box of half-width ``w = shrink / m``.  That makes it a cardinal
B-spline of order m squeezed so its support ``[-shrink, shrink]`` stays
strictly inside (-1, 1), while its transform is exactly ``sinc(2*w*xi)**m``
and therefore obeys the elementary envelope ``min(1, (2*pi*w*|xi|)**-m)``.
Every decay estimate downstream reduces to sums of that envelope, so the
tail helpers here are the single source of truth for truncation bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import BSpline

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=64)
def _cardinal_spline(order: int) -> BSpline:
    # B-spline basis element on uniform knots -m/2 .. m/2 is exactly the
    # m-fold self-convolution of the unit box 1_{[-1/2,1/2]}.
    knots = np.arange(order + 1, dtype=float) - order / 2.0
    return BSpline.basis_element(knots, extrapolate=False)


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

        Accepts scalars or arrays and returns matching float64 output.
        """
        m = self.order
        w = self.box_halfwidth
        t = np.asarray(x, dtype=float) / (2.0 * w)
        out = np.asarray(_cardinal_spline(m)(t), dtype=float)
        out = np.where(np.isnan(out), 0.0, out) / (2.0 * w)
        # basis_element can return tiny negatives at the support edge
        out = np.maximum(out, 0.0)
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

    def envelope_tail_sum(self, rate: float, start: int) -> float:
        """One-sided envelope tail sum_{l > start} envelope(rate * l).

        Counts the flat region exactly and bounds the decaying part by
        the integral comparison swap, so the result is a true upper
        bound.  ``rate`` must be positive (a zero rate has no decay).
        """
        if rate <= 0.0:
            return math.inf
        m = self.order
        start = max(int(start), 0)
        x0 = 1.0 / (TWO_PI * self.box_halfwidth * rate)  # envelope reaches 1 below x0
        flat_top = math.floor(x0)
        n_flat = max(0, flat_top - start)
        t0 = max(start, flat_top, 1)
        # sum_{l > t0} (l/x0)^-m  <=  x0^m * t0^(1-m) / (m-1)
        decay = (x0**m) * float(t0) ** (1 - m) / (m - 1)
        return n_flat + decay

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
