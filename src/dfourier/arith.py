"""Arithmetic kernel: restricted residue sets and their exponential sums.

The central object is the set of residues ``p`` in ``[0, q)`` with
``gcd(b*p + a, q) == 1`` for a fixed integer pair ``(a, b)`` with
``gcd(a, b) == 1``.  The exponential sum of that set,

    S(q, k) = sum over members p of exp(-2*pi*i * k * p / q),

generalizes the classical Ramanujan sum (the pair ``(0, 1)``) and is what
every downstream Fourier coefficient is assembled from.  Two independent
evaluation routes are provided: a direct enumeration of the residue set and
a divisor-sum formula that costs ``O(d(q))`` per frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# factorization is trial division; fine for the moduli this pipeline meets
_FACTOR_LIMIT = 10**12


# ---------------------------------------------------------------------------
# multiplicative basics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``n >= 1`` as a tuple of (prime, exponent).

    Trial division over 2, 3 and the 6k+-1 wheel.  Results are cached; the
    pipeline hits the same moduli many times.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n > _FACTOR_LIMIT:
        raise ValueError(f"refusing to factor n > {_FACTOR_LIMIT}")
    out: list[tuple[int, int]] = []
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


def mobius(n: int) -> int:
    """Moebius function: 0 unless squarefree, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisor_count(n: int) -> int:
    """Number of positive divisors of ``n``."""
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def divisor_sum(n: int) -> int:
    """Sum of the positive divisors of ``n``."""
    out = 1
    for p, e in factorize(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, sorted ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def squarefree_divisors(n: int) -> list[int]:
    """Squarefree divisors of ``n``, sorted ascending."""
    out = [1]
    for p, _ in factorize(n):
        out = out + [d * p for d in out]
    return sorted(out)


# ---------------------------------------------------------------------------
# restricted residue sets
# ---------------------------------------------------------------------------


def _validate_pair(a: int, b: int) -> None:
    if b < 1:
        raise ValueError(f"pair requires b >= 1, got b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"pair ({a}, {b}) must be coprime")


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Residues ``p`` in ``[0, q)`` with ``gcd(b*p + a, q) == 1``."""

    q: int
    a: int
    b: int
    members: np.ndarray  # sorted int64 residues
    mask: np.ndarray  # bool, length q

    @property
    def count(self) -> int:
        return int(self.members.size)


def residue_set(q: int, a: int = 0, b: int = 1) -> ResidueSet:
    """Enumerate the restricted residue set for modulus ``q`` and pair ``(a, b)``.

    Parameters
    ----------
    q : modulus, >= 1.
    a, b : the affine pair; must satisfy gcd(a, b) == 1 and b >= 1.

    Returns
    -------
    ResidueSet with the sorted member array and a boolean membership mask.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    _validate_pair(a, b)
    p = np.arange(q, dtype=np.int64)
    mask = np.gcd(b * p + a, q) == 1
    members = p[mask]
    return ResidueSet(q=q, a=a, b=b, members=members, mask=mask)


def coprime_density(q: int, b: int) -> Fraction:
    """Exact density of the restricted residue set in ``[0, q)``.

    Equals the product of (1 - 1/p) over primes p dividing q but not b.
    Valid for any pair (a, b) with gcd(a, b) == 1; the density does not
    depend on a.
    """
    out = Fraction(1)
    for p, _ in factorize(q):
        if b % p != 0:
            out *= Fraction(p - 1, p)
    return out


def residue_count(q: int, b: int) -> int:
    """Exact size of the restricted residue set (q times its density)."""
    n = q * coprime_density(q, b)
    assert n.denominator == 1
    return int(n)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------


def divisor_hits(q: int, a: int = 0, b: int = 1) -> list[tuple[int, int, int, int]]:
    """The terms of the divisor formula for S(q, .) as exact integers.

    One ``(l, g, mu(l), p0)`` per squarefree divisor ``l`` of q with
    gcd(l, b) == 1, where ``g = q / l`` and ``p0`` is the residue mod l
    with ``b * p0 + a == 0 (mod l)``.  The term touches the frequencies
    ``k = g * j`` with weight ``mu(l) * g * exp(-2*pi*i * j * p0 / l)``.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    _validate_pair(a, b)
    return [(lp, q // lp, mobius(lp), (-a * pow(b, -1, lp)) % lp)
            for lp in squarefree_divisors(q) if math.gcd(lp, b) == 1]


def ramanujan_sum_bruteforce(q: int, k: int, a: int = 0, b: int = 1) -> complex:
    """S(q, k) by direct summation over the residue set.  Test oracle."""
    rs = residue_set(q, a, b)
    phase = np.exp(-2j * np.pi * k * rs.members.astype(np.float64) / q)
    return complex(phase.sum())


def ramanujan_sum(q: int, k: int, a: int = 0, b: int = 1) -> complex:
    """S(q, k) for the pair (a, b) via the divisor formula: the
    ``divisor_hits`` terms whose stride ``g`` divides k."""
    total = 0.0 + 0.0j
    for _, g, mu, p0 in divisor_hits(q, a, b):
        if k % g == 0:
            total += mu * g * np.exp(-2j * np.pi * k * p0 / q)
    return complex(total)


def ramanujan_period(q: int, a: int = 0, b: int = 1) -> np.ndarray:
    """One full period ``S(q, 0), ..., S(q, q-1)`` as a complex array.

    Assembled divisor by divisor with strided writes: the divisor ``l`` of q
    touches exactly the frequencies that are multiples of ``q / l``.
    Cost is O(q * d(q) / average stride), far below the O(q^2) direct sum.
    """
    out = np.zeros(q, dtype=np.complex128)
    for lp, g, mu, p0 in divisor_hits(q, a, b):
        # frequencies g*t for t in [0, lp); phase reduces to -t*p0/lp
        phases = np.exp(-2j * np.pi * p0 * np.arange(lp, dtype=np.float64) / lp)
        out[::g] += mu * g * phases
    return out


def ramanujan_period_dense(q: int, a: int = 0, b: int = 1) -> np.ndarray:
    """One full period of S(q, .) via an FFT of the membership mask.

    Independent of the divisor assembly; used as an oracle against it.
    """
    rs = residue_set(q, a, b)
    return np.fft.fft(rs.mask.astype(np.float64))


def grs_bound_ratio(q: int, k: int, a: int = 0, b: int = 1) -> float:
    """The ratio |S(q, k)| / (gcd(q, k) * log q).

    Normalizes the exponential sum by the growth envelope that matters
    for the decay analysis.  Requires q >= 2 (the log) and k >= 1.
    """
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    if k < 1:
        raise ValueError(f"frequency must be >= 1, got {k}")
    s = ramanujan_sum(q, k, a, b)
    return abs(s) / (math.gcd(q, k) * math.log(q))


def bound_ratio_scan(
    q_max: int, k_max: int, pairs: list[tuple[int, int]]
) -> dict[str, float | int | list]:
    """Worst |S(q, k)| / (gcd(q, k) * log q) over 2 <= q <= q_max, 1 <= k <= k_max.

    Both the sum and gcd(q, k) are periodic in k with period q, so each
    modulus is scanned over one period (capped at k_max).  Returns the
    worst ratio, where it occurred, and the per-pair maxima.
    """
    worst = 0.0
    argmax = (0, 0, (0, 1))
    rows: list[dict] = []
    for a, b in pairs:
        pair_worst = 0.0
        for q in range(2, q_max + 1):
            period = ramanujan_period(q, a, b)
            kk = np.arange(1, min(k_max, q) + 1)
            ratios = np.abs(period[kk % q]) / (np.gcd(q, kk) * math.log(q))
            i = int(np.argmax(ratios))
            if ratios[i] > pair_worst:
                pair_worst = float(ratios[i])
            if ratios[i] > worst:
                worst = float(ratios[i])
                argmax = (q, int(kk[i]), (a, b))
        rows.append({"pair": [a, b], "max_ratio": pair_worst})
    return {
        "worst_ratio": worst,
        "q": argmax[0],
        "k": argmax[1],
        "pair": list(argmax[2]),
        "pairs_scanned": rows,
    }
