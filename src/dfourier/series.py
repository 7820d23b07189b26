"""Banded Fourier series of real functions, with explicit tail bookkeeping.

Coefficients live on the integer band [-L, L] as a dense complex array
of odd length 2L+1, c(-l) = conj c(l) written by ``from_half`` alone;
``tail_bound`` is a certified bound on the l1 mass outside the band.
Products multiply the [0, L] halves with real FFTs and bound the tail by
tail_a*l1_b + tail_b*l1_a + tail_a*tail_b, true under truncation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthBudgetError


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-7-11-smooth integer >= n, a fast FFT length."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


@dataclass(frozen=True)
class TruncatedFourierSeries:
    """Dense coefficient band [-L, L] plus an l1 tail certificate.

    Parameters
    ----------
    coeffs : np.ndarray
        Complex coefficients, index i holding frequency i - L; the
        length must be odd.
    tail_bound : float
        Upper bound on sum of |c(l)| over |l| > L.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or len(c) % 2 == 0:
            raise ValueError("coefficient array must be 1-d with odd length")
        object.__setattr__(self, "coeffs", c)
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be nonnegative")

    @classmethod
    def from_half(cls, half, tail_bound: float = 0.0) -> "TruncatedFourierSeries":
        """c(l) = half[l] on [0, L], c(-l) = conj c(l); c(0) must be real."""
        half = np.asarray(half, dtype=np.complex128)
        if half[0].imag != 0.0:
            raise ValueError(f"c(0) = {half[0]!r} must be real")
        L = len(half) - 1
        full = np.empty(2 * L + 1, dtype=np.complex128)
        full[L:] = half
        np.conjugate(half[:0:-1], out=full[:L])
        return cls(full, tail_bound)

    @property
    def half_bandwidth(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def coeff(self, l: int) -> complex:
        """Coefficient at frequency l (zero outside the stored band)."""
        L = self.half_bandwidth
        if abs(l) > L:
            return 0.0 + 0.0j
        return complex(self.coeffs[l + L])

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def sup_bound(self) -> float:
        """Upper bound on the sup of the underlying periodic function."""
        return self.l1_norm() + self.tail_bound

    def hermitian_defect(self) -> float:
        """Max deviation from c(-l) == conj(c(l)); 0 for real densities.

        Read on l >= 0 only, c[L:] against conj c[L::-1]: the deviation
        at -l is the same number."""
        L = self.half_bandwidth
        return float(np.max(np.abs(self.coeffs[L:]
                                   - np.conj(self.coeffs[L::-1]))))

    def slice_to(self, half_bandwidth: int) -> "TruncatedFourierSeries":
        """Restrict to [-half_bandwidth, half_bandwidth] within the band.

        The dropped mass is added to the tail bound.
        """
        L, Lnew = self.half_bandwidth, int(half_bandwidth)
        if not 0 <= Lnew <= L:
            raise ValueError(f"half_bandwidth {Lnew} outside [0, {L}]")
        if Lnew == L:
            return self
        cut = L - Lnew
        dropped = float(np.sum(np.abs(self.coeffs[:cut]))
                        + np.sum(np.abs(self.coeffs[-cut:])))
        return TruncatedFourierSeries(self.coeffs[cut:-cut],
                                      self.tail_bound + dropped)

    def evaluate_on_regular_grid(self, n: int) -> np.ndarray:
        """Real values at x = j/n, j = 0..n-1, via band folding and one irfft.

        Exact for the banded part; the neglected tail is bounded by
        ``tail_bound`` uniformly in x.
        """
        if n < 1:
            raise ValueError("grid size must be positive")
        L = self.half_bandwidth
        width = 2 * L + 1
        pad = (-width) % n
        folded = np.pad(self.coeffs, (0, pad)).reshape(-1, n).sum(axis=0)
        # stored index 0 is frequency -L; realign to frequency 0 mod n
        folded = np.roll(folded, -(L % n))
        return np.fft.irfft(folded[:n // 2 + 1], n, norm="forward")


def constant_series() -> TruncatedFourierSeries:
    """The series of the constant function 1 (single coefficient at 0)."""
    return TruncatedFourierSeries(np.array([1.0], dtype=np.complex128))


def series_multiply(a: TruncatedFourierSeries, b: TruncatedFourierSeries,
                    budget: int | None = None,
                    where: str = "series product") -> TruncatedFourierSeries:
    """Product of two banded series of real functions.

    The result band is [-(La+Lb), La+Lb]; a band of more than
    ``budget`` coefficients raises ``BandwidthBudgetError`` before any
    allocation, a non-Hermitian factor ``ValueError``.  The [0, La+Lb]
    half is the ``rfft`` of the product of the ``irfft`` samples of the
    two [0, L] halves at the next fast length (a direct convolution when
    a factor is one coefficient); the tail is the cross formula.
    """
    width = len(a.coeffs) + len(b.coeffs) - 1
    if budget is not None and width > budget:
        raise BandwidthBudgetError(width, budget, where)
    if a.hermitian_defect() or b.hermitian_defect():
        raise ValueError(f"{where}: a factor is not the series of a real function")
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        half = np.convolve(a.coeffs, b.coeffs)[width // 2:]
    else:
        n = _fast_len(width)
        samples = (np.fft.irfft(a.coeffs[a.half_bandwidth:], n, norm="forward")
                   * np.fft.irfft(b.coeffs[b.half_bandwidth:], n, norm="forward"))
        half = np.fft.rfft(samples, norm="forward")[:width // 2 + 1]
    tail = (a.tail_bound * b.l1_norm() + b.tail_bound * a.l1_norm()
            + a.tail_bound * b.tail_bound)
    return TruncatedFourierSeries.from_half(half, tail)
