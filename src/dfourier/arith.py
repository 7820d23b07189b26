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
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# multiplicative basics
# ---------------------------------------------------------------------------

# One table of smallest prime factors serves the multiplicative helpers: a
# cache grown in powers of two as far as the largest n asked for, up to
# _SIEVE_CAP int32 entries (8 MB), whose primes reach sqrt(_FACTOR_LIMIT).
# divisor_count reads its own uint16 table of tau(n), grown by the same rule.
_FACTOR_LIMIT = 10**12
_SIEVE_CAP = 1 << 21
_table = (memoryview(b""), memoryview(b""))  # (smallest factor, primes)
_tau = memoryview(b"")  # divisor counts of 0 .. len - 1 (tau(0) = 0)


def _checked(n: int) -> int:
    """``n`` as an int in [1, 10**12]."""
    n = operator.index(n)
    if not 1 <= n <= _FACTOR_LIMIT:
        raise ValueError(f"refusing to factor n={n} outside [1, 10**12]")
    return n


def _table_size(n: int) -> int:
    """Entries of a table that reaches ``n``: a power of two in [2**12, cap]."""
    return min(max(1 << n.bit_length(), 1 << 12), _SIEVE_CAP)


def _sieve_for(n: int) -> tuple[int, memoryview, memoryview]:
    """``n`` as an int in [1, 10**12], and the table grown to reach it."""
    global _table
    n = _checked(n)
    spf, primes = _table
    if len(spf) <= n and len(spf) < _SIEVE_CAP:
        size = _table_size(n)
        sieve = np.zeros(size, dtype=np.int32)
        for p in range(2, math.isqrt(size - 1) + 1):
            if sieve[p] == 0:
                row = sieve[p * p::p]
                row[row == 0] = p
        fixed = np.flatnonzero(sieve == 0)  # 0, 1 and the primes
        sieve[fixed] = fixed
        _table = spf, primes = memoryview(sieve), memoryview(fixed[2:])
    return n, spf, primes


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``n >= 1`` as a tuple of (prime, exponent).

    Read off the smallest-factor table, above its cap after dividing by its
    primes; ``n`` must be an integer.  Cached: the pipeline repeats moduli.
    """
    n, spf, primes = _sieve_for(n)
    out: dict[int, int] = {}
    for p in primes:
        if n < len(spf) or p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    while 1 < n < len(spf):
        p = spf[n]
        n //= p
        out[p] = out.get(p, 0) + 1
    if n > 1:  # above the cap, and no prime up to its square root divides it
        out[n] = 1
    return tuple(out.items())


def mobius(n: int) -> int:
    """Moebius function: 0 unless squarefree, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisor_count(n: int) -> int:
    """Number of positive divisors of ``n``, one read of the tau table below
    the cap, the product over ``factorize(n)`` at or above it."""
    global _tau
    n = operator.index(n)
    if 0 < n < len(_tau):  # the hot path: no further call
        return _tau[n]
    n = _checked(n)
    if n >= _SIEVE_CAP:
        return math.prod(e + 1 for _, e in factorize(n))
    size = _table_size(n)
    # divisor pairs (d, n/d), d <= n/d: (1, n) counts 2 for every n > 1,
    # each 1 < d <= sqrt(n) with d | n counts 2 more, 1 if d * d == n
    tau = np.full(size, 2, dtype=np.uint16)
    tau[:2] = (0, 1)
    for d in range(2, math.isqrt(size - 1) + 1):
        tau[d * d::d] += 2
        tau[d * d] -= 1
    _tau = memoryview(tau)
    return _tau[n]


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


def validate_pair(a: int, b: int) -> None:
    """Raise ``ValueError`` unless b >= 1 and gcd(a, b) == 1."""
    if b < 1:
        raise ValueError(f"pair requires b >= 1, got b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"pair ({a}, {b}) must be coprime")


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Residues ``p`` in ``[0, q)`` with ``gcd(b*p + a, q) == 1``."""

    members: np.ndarray  # sorted int64 residues
    mask: np.ndarray  # bool, length q

    @property
    def count(self) -> int:
        return int(self.members.size)


def admissible(p, q: int, a: int, b: int) -> np.ndarray:
    """Whether gcd(b*p + a, q) == 1 at the residues p in [0, q); a and b
    enter reduced mod q, which leaves the gcd unchanged."""
    return np.gcd((b % q) * p + a % q, q) == 1


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
    validate_pair(a, b)
    p = np.arange(q, dtype=np.int64)
    mask = admissible(p, q, a, b)
    return ResidueSet(members=p[mask], mask=mask)


def residue_count(q: int, b: int) -> int:
    """Exact size of the restricted residue set, in integers: q times
    (1 - 1/p) for each prime p of q that does not divide b."""
    n = q
    for p, _ in factorize(q):
        if b % p:
            n = n // p * (p - 1)
    return n


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
    validate_pair(a, b)
    return [(lp, q // lp, mobius(lp), (-a * pow(b, -1, lp)) % lp)
            for lp in squarefree_divisors(q) if math.gcd(lp, b) == 1]


def ramanujan_sum_bruteforce(q: int, k: int, a: int = 0, b: int = 1) -> complex:
    """S(q, k) by direct summation over the residue set.  Test oracle."""
    rs = residue_set(q, a, b)
    phase = np.exp(-2j * np.pi * (k % q) * rs.members.astype(np.float64) / q)
    return complex(phase.sum())


def ramanujan_sum(q: int, k: int, a: int = 0, b: int = 1) -> complex:
    """S(q, k) for the pair (a, b) via the divisor formula: the
    ``divisor_hits`` terms whose stride ``g`` divides k (k mod q in the
    phase: S(q, .) has period q)."""
    total = 0.0 + 0.0j
    for _, g, mu, p0 in divisor_hits(q, a, b):
        if k % g == 0:
            total += mu * g * np.exp(-2j * np.pi * (k % q) * p0 / q)
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
