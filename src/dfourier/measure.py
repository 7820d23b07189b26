"""Stagewise construction of the smoothed measure and its coefficient bands.

One stage multiplies the running density by the bucket average

    g_M(x) = (1/#Q) sum over q in the bucket of Phi_q(x),

where Phi_q places the mollifier on every admissible rational (p+theta)/q
at width psi(q)/q.  In frequency space each Phi_q contributes

    c_q(l) = (1/#I_q) * e(-l*theta/q) * S(q, l) * fhat(l*psi(q)/q),

so a factor is assembled member by member.  The divisor-sum form of
S(q, .) is nonzero only on multiples of the member's least hit stride
g_min = q/lp_max, lp_max the largest squarefree divisor of q coprime to
B_q, which keeps the cost proportional to the nonzero terms rather than
to the band width times the bucket size.  Every hit's lp divides lp_max
and its residue p0 is p0_max mod lp, so at l = g_min*j the hits share
one twist: S(q, l) = e(-j*p0_max/lp_max) times the real sum of the
weights mu(lp)*g of the hits whose stride g divides l.  Along the
member's line, l = g_min*j thus carries the phase
e(-j*(theta + p0_max)/lp_max) and the kernel fhat(l*psi(q)/q), both
read off one pair of short tables whose arguments are reduced exactly
(theta split in two 26-bit halves, p0_max*j mod lp_max in integers),
and the divisor hits only add their weights to the real sum, each at
its own stride.  The kernel's sine comes off the same split as the
phase, sin(x_a + x_b) from the cosines and sines of the two table
angles, so a term calls no trigonometric function, and each member
walks its terms in runs of table rows whose buffers stay in the L2
cache.  The rows are 4096 columns wide because numpy buffers a
row-by-column broadcast whose rows are shorter.  A member adds its
terms into separate real and imaginary planes, at its stride g_min
rather than 2*g_min, and the planes become the complex line once per
call.  Every term depends on j alone, so a line is cut once into
contiguous pieces, up to one per available CPU, and the bucket into
fixed blocks of members whose partial lines are added in block order;
the (block, piece) jobs run on threads (numpy releases the GIL in its
loops).  Blocks split the members, so no member's tables are built
twice in one piece, which is what makes the short gap-probe lines worth
running on several CPUs.  The coefficients are the same bits whatever
the CPU count or the run length.

Scale selection walks the admissible dyadic scales and accepts the first
candidate whose stability gap (the weighted sup of the perturbation the
candidate inflicts on the current transform, sampled on a fixed dyadic
grid) clears the stage threshold.  All truncation is certified: every
stored series carries an l1 tail bound derived from the divisor-sum
envelope sigma(gcd) and the kernel envelope.
"""
from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .arith import TWO_PI, divisor_hits, divisor_sum, divisors
from .bump import BumpSpec
from .errors import (ArtifactError, BandwidthBudgetError, ProfileError,
                     WindowExhaustedError)
from .profile import ApproximationProfile
from .series import TruncatedFourierSeries, constant_series, series_multiply

_ARTIFACT_MAGIC = b"DFMS"
_ARTIFACT_VERSION = 2

# assemble_line cuts a half-line into one piece per available CPU, none
# shorter than _MIN_SPAN frequencies.  Each piece pays every member's
# tables again (215 to 220 us for a full-width set on 2 vCPUs), and the
# threads trade the GIL between short numpy calls.  On 2 vCPUs, with one
# table set per member, two pieces of a one-block line took 1.16, 1.09
# and 1.01 times the one-piece time at M = 8 and 0.79, 0.74 and 0.61 at
# M = 16, at 2**17, 2**18 and 2**19 frequencies (medians of 10
# alternating rounds); at M = 4 (1.23, 1.13, 1.09) and at M = 64, whose
# member blocks already share the CPUs (1.21, 1.14, 1.11; medians of 5),
# two pieces were slower throughout.  So a line is cut only from
# 2 * _MIN_SPAN = 2**18 frequencies on, which keeps the 153,285-long
# M = 8 line whole and cuts the 1,844,385-long M = 16 one.
_MIN_SPAN = 1 << 17
# assemble_line sums the members in contiguous blocks of this many, one
# job per (block, piece) pair, and adds each later block's piece to the
# result in block order.  Blocks split the members themselves, so no
# member's tables are built twice in one piece; a bucket of at most this
# many members is one block and sums as one serial pass.  On 2 vCPUs the
# four 80,961-long probe lines M = 32 to 256 took a median 0.656 s
# (quartiles 0.604 to 0.679 s) against 0.908 s on one CPU; blocks of 16
# and 64 were within the noise (0.643 and 0.650 s; 10 alternating
# rounds), and 64 would leave the 54-member M = 32 line on one CPU.
# The coefficients depend on this length, so it is a constant, not an
# option.
_BLOCK_MEMBERS = 32
# no piece is longer than this many frequencies, to bound the zeroed
# pieces that the later member blocks sum into, 16 bytes per frequency
# and at most 2 * workers of them alive
_CHUNK = 1 << 20

# phase and kernel tables: j = _BLOCK*a + b, so e(-j*phase) is
# coarse[a] * fine[b], and the kernel's sine comes from the same split.
# Rows of 4096 columns: numpy (2.4) buffers a row-by-column broadcast
# whose rows are shorter, so on 2 vCPUs a 32 x 1024 product took 34 to
# 53 us and an 8 x 4096 one 10 to 15 us.  The 1,844,385-long M = 16
# line took a median 0.67 s at 1024 columns in runs of 32 rows, 0.40 s
# at 4096 in runs of 16, and 0.48 s at 8192 in runs of 4.
_BLOCK = 4096
_FINE = np.arange(_BLOCK, dtype=np.float64)
# a member walks its terms in runs of this many table rows, so the
# per-term passes of a run work on four buffers of 512 kB each, which
# fill the 2 MB per-core L2 cache of the 2-vCPU Xeon these timings come
# from.
# On 2 vCPUs the M = 16 line took a median 0.63, 0.45, 0.40 and 0.43 s
# at 4, 8, 16 and 32 rows, and the M = 4, 8, 16 regime lines 0.45 s at
# 8 rows against 0.39 s at 16 (16 faster in 10 of 12 alternating
# rounds).  The coefficients do not depend on it.
_RUN_ROWS = 16
# below this, theta_hi*j is an exact product and |theta_lo*j| < 1/2
_J_LIMIT = 1 << 26


# ----------------------------------------------------------------------
# per-denominator assembly data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Member:
    """One denominator's kernel record, on its line l = stride*j.

    ``lp`` is lp_max, the largest squarefree divisor of q coprime to B_q,
    ``p0`` its residue, and ``stride`` g_min = q/lp_max.  Every divisor
    hit's lp divides lp_max and its residue is p0 mod lp, so a hit of
    stride g = s*g_min adds its coef at every s-th term, with no phase
    of its own: (j/s)*p0_hit/lp and j*p0/lp_max differ by an integer.
    """
    q: int
    rate: float                 # psi(q) / q
    stride: int                 # g_min = q / lp_max
    lp: int                     # lp_max
    p0: int                     # b*p0 + a == 0 (mod lp_max)
    hits: tuple                 # (s = g/g_min, coef mu(lp)*g/#I_q, lp, p0)
    theta: tuple                # theta(q) as hi + lo, 26 significant bits each


@dataclass(frozen=True)
class _MemberTable:
    """One bucket's member records and the arrays of its envelope tail.

    The arrays run over the (member, divisor d of q) pairs, each q's
    divisors ascending: ``row`` and ``col`` place a pair in a
    member-by-divisor matrix; ``div``, ``sigma_d`` and ``rate_d`` hold d,
    sigma(d) and rate*d.
    """
    members: tuple              # one _Member per q
    counts: np.ndarray          # #I_q, as floats
    sigma_q: np.ndarray         # sigma(q)
    row: np.ndarray
    col: np.ndarray
    div: np.ndarray
    sigma_d: np.ndarray
    rate_d: np.ndarray


def _member_data(profile: ApproximationProfile,
                 members: np.ndarray) -> _MemberTable:
    psi = profile.psi_values(members)
    records, counts, sigma_q, entries = [], [], [], []
    for i, (q_np, p) in enumerate(zip(members, psi)):
        q = int(q_np)
        terms = divisor_hits(q, *profile.pair(q))
        n_i = sum(mu * g for _, g, mu, _ in terms)      # S(q, 0) = #I_q
        theta = profile.theta_of(q)
        big = 134217729.0 * theta           # 2**27 + 1: Veltkamp split
        hi = big - (big - theta)
        # every lp divides the largest one, lp_max: the product of the
        # primes of q that B_q lacks
        lp_max, g_min, _, p0_max = max(terms)
        hits = tuple((g // g_min, mu * g / n_i, lp, p0)
                     for lp, g, mu, p0 in terms)
        records.append(_Member(q=q, rate=float(p) / q, stride=g_min,
                               lp=lp_max, p0=p0_max, hits=hits,
                               theta=(hi, theta - hi)))
        counts.append(n_i)
        entries += [(i, k, d, divisor_sum(d))
                    for k, d in enumerate(divisors(q))]
        sigma_q.append(entries[-1][3])              # d = q comes last
    row, col, div, sigma_d = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    rates = np.array([mem.rate for mem in records])[row]
    return _MemberTable(tuple(records), np.array(counts, dtype=float),
                        np.array(sigma_q, dtype=float), row, col, div,
                        sigma_d, rates * div)


def _bucket_data(profile: ApproximationProfile, eta: float,
                 scale: int) -> tuple:
    """The bucket at one scale and its member table; raises if it is empty."""
    bucket = profile.bucket(eta, scale)
    if bucket.count == 0:
        raise WindowExhaustedError(
            f"no denominators in the bucket at scale {scale}")
    return bucket, _member_data(profile, bucket.members)


def _fmod_product(theta_hi: float, jf: np.ndarray, lp: int,
                  out: np.ndarray) -> np.ndarray:
    """``np.fmod(theta_hi * jf, lp)`` bit for bit, into ``out``.

    For theta_hi of at most 26 significant bits, |theta_hi| < 1, whole
    jf in [0, 2**26) and an integer lp >= 1.  Then x = |theta_hi| * jf
    is exact, with at most 52 significant bits on a grid of 2**-e,
    e >= 0, so x < 2**52 * 2**-e.  k = trunc(x / lp) is the true
    quotient: x / lp could round up to an integer k only if
    0 < k*lp - x <= k*lp * 2**-53, which is below the grid step 2**-e.
    So k*lp and x - k*lp are exact, and no fix-up is needed.  fmod
    takes the sign of theta_hi * jf, so the remainder is negated for a
    negative theta_hi.  About 14 us on 4,116 entries, where ``np.fmod``
    took 27 to 132 us (the most at lp = 3).
    """
    x = np.multiply(abs(theta_hi), jf, out=out)
    k = np.divide(x, lp)
    np.trunc(k, out=k)
    k *= lp
    x -= k
    if math.copysign(1.0, theta_hi) < 0:
        np.negative(x, out=x)
    return x


def _tables(theta: tuple, lp: int, p0: int, step: float, a0: int, a1: int,
            f_lo: int, f_hi: int) -> tuple:
    """Angles, cosines and sines of one member's coarse rows and fine columns.

    The entries run over j = _BLOCK*a, a in [a0, a1], then j in
    [f_lo, f_hi), twice: first the phase angles of e(-j*(theta + p0)/lp),
    then the kernel angles j*step.  The phase arguments are reduced
    exactly: theta_hi*j is an exact product for j < 2**26 and
    ``_fmod_product`` takes its remainder mod lp exactly, p0*j mod lp is
    taken in integers, and |theta_lo*j| < 1/2 needs no reduction; only
    the sum and the division by lp round.  The kernel angle at j = 0 is
    1e-300, so that sin(x)/x is exactly 1 there.  One ``np.cos`` and one
    ``np.sin`` serve all four tables: a member over whole rows makes
    2 * (rows + 4096) entries, which took 215 to 220 us on 2 vCPUs at 1
    to 20 rows.
    """
    jf = np.concatenate((np.arange(a0 * _BLOCK, (a1 + 1) * _BLOCK, _BLOCK,
                                   dtype=np.float64), _FINE[f_lo:f_hi]))
    m = len(jf)
    ang = np.empty(2 * m)
    t, x = ang[:m], ang[m:]
    _fmod_product(theta[0], jf, lp, t)
    if p0:
        t += (p0 * jf.astype(np.int64)) % lp
    t += np.multiply(theta[1], jf, out=x)
    t /= lp
    t -= np.round(t)
    t *= -TWO_PI
    np.multiply(jf, step, out=x)
    if f_lo == 0:
        x[a1 - a0 + 1] = 1e-300         # the column b = 0
    return ang, np.cos(ang), np.sin(ang)


def _line_segment(members: tuple, bump: BumpSpec, out: np.ndarray,
                  l_lo: int, l_hi: int, scratch: tuple) -> None:
    """Add the unnormalized coefficient sum over members for l in [l_lo, l_hi].

    ``members`` is a run of ``_Member`` records, ``out`` holds the real
    and imaginary planes of the window's coefficients, shape
    (2, l_hi - l_lo + 1), and ``scratch`` is one ``_scratch``.  Per
    member, the term at l = g_min*j, j = _BLOCK*a + b, is
    e(-j*(theta + p0)/lp_max) * fhat(l*rate) * R(j), where R(j) is the sum
    of the coefs of the hits whose s divides j, so that S(q, l)/#I_q is
    e(-j*p0/lp_max) * R(j).  The phase and the kernel are read off the
    member's one ``_tables``: the phase is coarse[a] * fine[b], and the
    kernel sinc(x)**m, x = x_a + x_b, takes sin(x) as
    sin(x_a)*cos(x_b) + cos(x_a)*sin(x_b), with the power by repeated
    squaring.  Every product is spelled out in real operations, each
    rounded once whatever loop numpy picks, and R(j) adds the coefs in
    hit order, so each term depends on j alone, not on the window or the
    run length.  The member's terms are walked in runs of ``_RUN_ROWS``
    table rows: the row-by-column products fill a run's rectangle, and
    every other pass works on the run's terms inside the window, in
    buffers that stay in the L2 cache.  R is summed in the ``re`` buffer
    and multiplied by the kernel; the phase then takes the ``kern`` and
    ``im`` buffers.  A member adds its real and imaginary parts into
    their own planes, at stride g_min.  Runs on worker threads, so it
    calls nothing that the benchmark's tracer wraps
    (``ApproximationProfile.bucket``, ``BumpSpec.fourier``,
    ``BumpSpec.value``, ``residue_set``): its span stack is not
    thread-local.
    """
    # a run is whole rows of _BLOCK columns or part of one row, so its
    # rectangle and the flat buffer put every term in the same place
    flat = [buf.reshape(-1) for buf in scratch]
    width = TWO_PI * bump.box_halfwidth
    bits = bin(bump.order)[3:]          # the bits after the leading one
    for mem in members:
        g = mem.stride
        j0 = -((-l_lo) // g)            # ceil(l_lo / g)
        j1 = l_hi // g
        if j1 < j0:
            continue
        if j1 >= _J_LIMIT or mem.p0 * j1 >= 1 << 63:
            raise ValueError(f"frequency {g * j1} is beyond the exact "
                             f"phase tables (j < 2**26 at stride {g}, "
                             f"p0*j < 2**63)")
        n = j1 - j0 + 1
        a0, a1 = j0 // _BLOCK, j1 // _BLOCK
        b0 = j0 - a0 * _BLOCK
        # one block needs only its own fine entries
        f_lo, f_hi = (b0, b0 + n) if a0 == a1 else (0, _BLOCK)
        na, fw = a1 - a0 + 1, f_hi - f_lo
        ang, cos, sin = _tables(mem.theta, mem.lp, mem.p0,
                                width * (mem.rate * g), a0, a1, f_lo, f_hi)
        m = na + fw                     # the kernel entries start here
        c_re, c_im = cos[:na], sin[:na]
        f_re, f_im = cos[na:m], sin[na:m]
        c_b, s_b, x_b = cos[m + na:], sin[m + na:], ang[m + na:]
        first = b0 - f_lo               # j0's place in the flat table
        for r in range(0, na, _RUN_ROWS):
            r1 = min(r + _RUN_ROWS, na)
            kern, tmp, _, im = (buf[:r1 - r, :fw] for buf in scratch)
            # the run's terms inside the window, flat
            lo, hi = max(first, r * fw), min(first + n, r1 * fw)
            kv, tv, rv, iv = (buf[lo - r * fw:hi - r * fw] for buf in flat)
            jr = j0 + lo - first        # the run's first j
            rv.fill(0.0)
            for s, coef, _, _ in mem.hits:
                rv[-jr % s::s] += coef  # R(j) at the multiples of s
            np.multiply(sin[m + r:m + r1, None], c_b, out=kern)
            np.multiply(cos[m + r:m + r1, None], s_b, out=tmp)
            np.add(kv, tv, out=kv)
            np.add(ang[m + r:m + r1, None], x_b, out=tmp)
            acc = np.divide(kv, tv, out=tv)
            for bit in bits:
                acc = np.multiply(acc, acc, out=kv)
                if bit == "1":
                    np.multiply(kv, tv, out=kv)
            np.multiply(rv, kv, out=rv)             # kernel times R
            np.multiply(c_re[r:r1, None], f_re, out=kern)
            np.multiply(c_im[r:r1, None], f_im, out=tmp)
            np.subtract(kv, tv, out=kv)             # the phase, real
            np.multiply(c_re[r:r1, None], f_im, out=im)
            np.multiply(c_im[r:r1, None], f_re, out=tmp)
            np.add(iv, tv, out=iv)                  # and imaginary
            start = g * jr - l_lo
            for vals, plane in zip((kv, iv), out):
                plane[start::g][:hi - lo] += np.multiply(vals, rv, out=vals)


def _scratch() -> tuple:
    """One worker's buffers (kern, tmp, re, im) for one run of a member.

    Each holds ``_RUN_ROWS`` table rows of ``_BLOCK`` floats, 512 kB
    whatever the length of the piece.  ``re`` holds the run's divisor
    sum R(j) and then R times the kernel.
    """
    return tuple(np.empty((_RUN_ROWS, _BLOCK)) for _ in range(4))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def assemble_line(data: _MemberTable, bump: BumpSpec, l_lo: int,
                  l_hi: int) -> np.ndarray:
    """Bucket-averaged coefficient line on the contiguous window [l_lo, l_hi].

    Every in-window term of every member is summed, each member from one
    set of phase and kernel tables per piece.  The window is cut once
    into contiguous pieces, one per available CPU but none shorter than
    ``_MIN_SPAN`` or longer than ``_CHUNK``, and the members into
    contiguous blocks of ``_BLOCK_MEMBERS``.  Each (block, piece) pair
    is one job, submitted block by block to one thread per CPU.
    The sums run on separate real and imaginary planes.  Block 0 adds
    straight into them; every later block sums into its own zeroed
    pair of pieces.  The calling thread folds the jobs in submission
    order, each later piece added to the planes, and folds the oldest
    one whenever ``2 * workers`` jobs are pending, so no more later
    pieces than that are alive.  The planes become the complex line
    once, which is then divided by the member count.  Every term depends
    on j alone, so each coefficient's bits depend on the block length
    only: not on the CPU count, the run length, the order in which jobs
    finish, or where a piece ends.
    """
    if l_hi < l_lo:
        raise ValueError("empty frequency window")
    if not data.members:
        raise ValueError("no members to average")
    from concurrent.futures import ThreadPoolExecutor
    n = l_hi - l_lo + 1
    planes = np.zeros((2, n))
    cpus = _cpu_count()
    parts = max(1, min(cpus, n // _MIN_SPAN))
    step = min(_CHUNK, -(-n // parts))
    blocks = [data.members[i:i + _BLOCK_MEMBERS]
              for i in range(0, len(data.members), _BLOCK_MEMBERS)]
    # block-major, so every block 0 job, which writes straight into the
    # planes, is folded before any later piece is added
    jobs = [(i, a) for i in range(len(blocks)) for a in range(0, n, step)]
    workers = min(cpus, len(jobs))
    # the scratch and the later pieces are allocated here: worker threads
    # allocating their own take separate malloc arenas, which raised the
    # peak RSS of the M = 4, 8, 16 factors from 146 to 171 MB
    free = [_scratch() for _ in range(workers)]

    def run(block, out, a, b):
        scratch = free.pop()            # at most `workers` jobs run at once
        try:
            _line_segment(block, bump, out, a, b, scratch)
        finally:
            free.append(scratch)

    def fold(future, i, a, out):
        future.result()
        if i:
            planes[:, a:a + out.shape[1]] += out

    pending = []
    with ThreadPoolExecutor(workers) as pool:
        for i, a in jobs:
            b = min(a + step, n)
            out = planes[:, a:b] if i == 0 else np.zeros((2, b - a))
            pending.append((pool.submit(run, blocks[i], out, l_lo + a,
                                        l_lo + b - 1), i, a, out))
            if len(pending) == 2 * workers:
                fold(*pending.pop(0))
        while pending:
            fold(*pending.pop(0))
    line = np.empty(n, dtype=np.complex128)
    line.real, line.imag = planes
    line /= len(data.members)
    return line


def _mirror_half_line(half: np.ndarray) -> np.ndarray:
    """Extend coefficients on [0, L] to [-L, L] by Hermitian symmetry."""
    L = len(half) - 1
    full = np.empty(2 * L + 1, dtype=half.dtype)
    full[L:] = half
    np.conjugate(half[:0:-1], out=full[:L])
    return full


def envelope_tail(data: _MemberTable, bump: BumpSpec,
                  half_bandwidth: int) -> float:
    """Certified l1 bound on the bucket average outside [-L, L].

    Uses |S(q, l)| <= sigma(gcd(q, l)) and groups frequencies by the
    divisor d | q they share with q, so each group is a lacunary
    progression against the kernel envelope.  The (member, divisor)
    terms are placed in a member-by-divisor matrix padded with zeros,
    summed divisor after divisor and then member after member: the order
    of the scalar loop, so the values are the same floats.
    """
    terms = np.zeros((len(data.members), int(data.col.max()) + 1))
    terms[data.row, data.col] = data.sigma_d * bump.envelope_tail_sum(
        data.rate_d, half_bandwidth // data.div)
    per_q = np.add.accumulate(terms, axis=1)[:, -1]
    total = np.add.accumulate(per_q / data.counts)[-1]
    return 2.0 * float(total) / len(data.members)


def factor_tail_profiles(stage: MeasureStage) -> list[tuple]:
    """Per built factor: stored half-band, unnormalized l1, tail profile.

    The profile maps a half-bandwidth L to the certified ``envelope_tail``
    of that factor's bucket beyond L.
    """
    profile, bump, eta = stage.profile, stage.config.bump, stage.eta
    rows = []
    for info in stage.factor_summaries:
        _, data = _bucket_data(profile, eta, info["scale"])
        rows.append((info["half_bandwidth"], info["l1_norm"],
                     lambda L, d=data: envelope_tail(d, bump, int(L))))
    return rows


def certified_half_bandwidth(tail, tail_tol: float) -> int:
    """Smallest half-bandwidth L in [0, 2**40] with ``tail(L) <= tail_tol``.

    ``tail`` (a bucket's ``envelope_tail``, or the window's tail in
    ``h0_series``) does not increase with L, so one binary search finds
    that L whatever the caller's budget.  A tail that is still above the
    tolerance at 2**40 gives 2**40.
    """
    lo, hi = 0, 1 << 40
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ----------------------------------------------------------------------
# series-level assembly
# ----------------------------------------------------------------------

def h0_series(bump: BumpSpec, tail_tol: float) -> TruncatedFourierSeries:
    """Integer-frequency series of the unit-interval window h0.

    The half-band is the least L >= 1 whose two-sided window tail is
    within ``tail_tol``; a tolerance that needs L > 10**6 raises
    ``ProfileError``.
    """
    L = max(1, certified_half_bandwidth(
        lambda L: 2.0 * bump.window_tail_sum(L), tail_tol))
    if L > 10**6:
        raise ProfileError(f"config key tail_tol: the window tail does not "
                           f"reach {tail_tol!r} within 10**6 frequencies")
    coeffs = bump.window_transform(np.arange(-L, L + 1, dtype=float))
    return TruncatedFourierSeries(coeffs, tail_bound=2.0 * bump.window_tail_sum(L))


@dataclass(frozen=True)
class GmFactor:
    """One assembled bucket-average factor with its certificates."""
    scale: int
    k: int
    count: int
    mass: float
    series: TruncatedFourierSeries
    complete: bool

    def summary(self) -> dict:
        return {
            "scale": self.scale,
            "k": self.k,
            "count": self.count,
            "mass": self.mass,
            "half_bandwidth": self.series.half_bandwidth,
            "tail_bound": self.series.tail_bound,
            "l1_norm": self.series.l1_norm(),
            "l2_norm": self.series.l2_norm(),
            "complete": self.complete,
        }


def gm_series(profile: ApproximationProfile, bump: BumpSpec, eta: float,
              scale: int, tail_tol: float, budget: int,
              band_cap: int | None = None) -> GmFactor:
    """Assemble the factor at one dyadic scale on a certified band.

    Raises ``WindowExhaustedError`` for an empty bucket.  One band search
    sizes the band.  Without a ``band_cap``, a band past the budget raises
    ``BandwidthBudgetError`` quoting the whole certified band; with one,
    the band is cut at the cap and its (larger) envelope tail is recorded
    honestly.
    """
    bucket, data = _bucket_data(profile, eta, scale)
    budget_cap = (budget - 1) // 2
    cap = budget_cap if band_cap is None else min(band_cap, budget_cap)
    L = certified_half_bandwidth(lambda L: envelope_tail(data, bump, L),
                                 tail_tol)
    complete = L <= cap
    if not complete and band_cap is None:
        raise BandwidthBudgetError(2 * L + 1, budget,
                                   f"factor at scale {scale}")
    L = min(L, cap)
    half = assemble_line(data, bump, 0, L)
    coeffs = _mirror_half_line(half)
    # the center coefficient is exactly 1 per member (S(q,0) = #I_q), so
    # write the exact mean rather than the per-divisor rounded sum
    coeffs[L] = 1.0
    series = TruncatedFourierSeries(coeffs,
                                    tail_bound=envelope_tail(data, bump, L))
    return GmFactor(scale=scale, k=bucket.k, count=bucket.count,
                    mass=bucket.mass, series=series, complete=complete)


# ----------------------------------------------------------------------
# stability gap and scale selection
# ----------------------------------------------------------------------

def build_xi_grid(xi_max: float, samples_per_band: int = 32) -> np.ndarray:
    """Dyadic sampling grid on [0, xi_max], snapped to quarter integers.

    Holds {0, 1/4, 1/2, 3/4} plus ``samples_per_band`` log-spaced points
    per octave, each rounded to the nearest quarter integer; duplicates
    collapse.  Quarter-integer alignment lets ``window_samples`` read
    every transform value off one window kernel per quarter offset.
    """
    if xi_max < 1:
        raise ValueError("xi_max must be at least 1")
    pts = [np.array([0.0, 0.25, 0.5, 0.75])]
    j = 0
    while (1 << j) < xi_max:
        top = min(2.0 ** (j + 1), float(xi_max))
        raw = 2.0 ** (j + np.arange(samples_per_band) / samples_per_band)
        raw = raw[raw <= top]
        pts.append(np.round(raw * 4.0) / 4.0)
        j += 1
    pts.append(np.array([float(xi_max)]))
    grid = np.sort(np.concatenate(pts))   # np.unique would import numpy.ma
    return grid[np.diff(grid, prepend=-1.0) > 0]


def window_samples(coeffs: np.ndarray, xi_grid: np.ndarray, bump: BumpSpec,
                   kernel_halfwidth: int) -> np.ndarray:
    """Transform of (periodic series times h0) at quarter-integer frequencies.

    The value at n + f/4 is the sum over m in [-d_h, d_h] of
    coeffs(n - m) * h0-hat(m + f/4), summed directly per sample with one
    gather of the block per quarter offset f.  Each sample's rounding
    error is relative to its own terms, not to the whole block, so small
    samples far out keep their digits; the kernel cut at d_h is the only
    truncation.
    """
    d_h = int(kernel_halfwidth)
    xi = np.asarray(xi_grid, dtype=float)
    quarters = np.round(xi * 4.0).astype(np.int64)
    if not np.allclose(quarters / 4.0, xi, rtol=0.0, atol=1e-9):
        raise ValueError("grid points must be quarter integers")
    ns, fracs = quarters // 4, quarters % 4
    L = (len(coeffs) - 1) // 2
    if len(ns) and int(np.max(np.abs(ns))) > L + d_h:
        raise ValueError(f"frequency beyond stored coverage {L + d_h}")
    # zero padding lets every n - m with |n| <= L + d_h index the block
    padded = np.pad(coeffs, 2 * d_h)
    offsets = L + 2 * d_h - np.arange(-d_h, d_h + 1)
    out = np.empty(len(ns), dtype=np.complex128)
    for fi in range(4):
        sel = fracs == fi
        if not sel.any():
            continue
        kern = bump.window_kernel(fi / 4.0, d_h)
        out[sel] = (padded[ns[sel][:, None] + offsets] * kern).sum(axis=1)
    return out


@dataclass(frozen=True)
class GapResult:
    """Weighted perturbation sup over the grid plus coverage remainder."""
    value: float
    xi_argmax: float
    remainder_bound: float
    scale: int


def stability_gap(profile: ApproximationProfile, bump: BumpSpec, eta: float,
                  eps: float, scale: int, periodic: TruncatedFourierSeries,
                  xi_grid: np.ndarray, kernel_halfwidth: int) -> GapResult:
    """Weighted sup over the grid of the candidate-induced perturbation.

    ``periodic`` is the series of the g-product accumulated so far,
    without the window h0 (the constant series on the opening stage).
    The perturbation at xi is sum over l != 0 of ghat_M(l) * hhat(xi - l)
    where hhat is the transform of (g-product times h0), so the window
    enters exactly once, through its closed-form transform: the
    candidate-times-periodic product is formed once and sampled by
    ``window_samples``.  The weight is (1 + |xi|)**(eta - eps).
    """
    _, data = _bucket_data(profile, eta, scale)
    d_h = int(kernel_halfwidth)
    l_g = periodic.half_bandwidth
    xi_top = int(math.ceil(float(xi_grid[-1])))
    l_c = xi_top + l_g + d_h

    half = assemble_line(data, bump, 0, l_c)
    cand = _mirror_half_line(half)
    cand[l_c] = 0.0                      # remove the l = 0 term
    cand_l1 = float(np.sum(np.abs(cand)))

    prod = series_multiply(TruncatedFourierSeries(cand), periodic)
    vals = np.abs(window_samples(prod.coeffs, xi_grid, bump, d_h))
    weights = (1.0 + xi_grid) ** (eta - eps)
    weighted = vals * weights
    i = int(np.argmax(weighted))

    # coverage remainders, both through the window envelope: candidate
    # coefficients beyond the probe band sit at distance > d_h from every
    # grid point after the periodic band is accounted for, and the kernel
    # lines themselves are cut at d_h
    w_max = float(weights.max())
    cur_l1 = periodic.sup_bound()
    linf = float(np.mean(data.sigma_q / data.counts))
    rem = (2.0 * linf * cur_l1 * bump.window_tail_sum(d_h - 1)
           + cand_l1 * cur_l1 * float(bump.window_envelope(d_h))) * w_max
    return GapResult(value=float(weighted[i]), xi_argmax=float(xi_grid[i]),
                     remainder_bound=rem, scale=scale)


def select_next_scale(profile: ApproximationProfile, bump: BumpSpec, eta: float,
                      eps: float, scale_entries, prev_scale: int,
                      threshold: float | None,
                      periodic: TruncatedFourierSeries, xi_grid: np.ndarray,
                      kernel_halfwidth: int, gap_log: list) -> GapResult:
    """First admissible scale past 2*prev_scale whose gap clears the threshold.

    ``threshold`` is None on the opening stage, where the first candidate
    is accepted unconditionally and its gap calibrates the later stages.
    The stage's probe rows go to ``gap_log`` before the first probe, so
    the log holds them however the selection ends.  Exhausting the
    admissible list raises ``WindowExhaustedError`` with the largest
    scale tried and its gap.
    """
    tried: list[dict] = []
    gap_log.append(tried)
    for entry in scale_entries:
        if entry.scale <= 2 * prev_scale:
            continue
        gap = stability_gap(profile, bump, eta, eps, entry.scale, periodic,
                            xi_grid, kernel_halfwidth)
        tried.append({"threshold": threshold, "scale": entry.scale,
                      "gap": gap.value, "xi_argmax": gap.xi_argmax,
                      "remainder_bound": gap.remainder_bound})
        if threshold is None or gap.value <= threshold:
            return gap
    message = "no admissible scale satisfies the stability threshold"
    if tried:
        message += (f" (largest scale tried: {tried[-1]['scale']}, "
                    f"gap {tried[-1]['gap']:.6g})")
    raise WindowExhaustedError(message)


# ----------------------------------------------------------------------
# build driver
# ----------------------------------------------------------------------

# integer build keys and their least valid values
_INT_FLOORS = (("bandwidth_budget", 1), ("samples_per_band", 1),
               ("kernel_halfwidth", 1), ("band_margin", 0))


@dataclass(frozen=True)
class BuildConfig:
    """Parameters of the stage builder; defaults match the reference pipeline.

    The one owner of the build keys: CLI configs, library callers and
    artifact headers all pass its checks, which raise ``ProfileError``
    naming the key.  An integral float ``xi_max`` is stored as an int.
    """
    xi_max: int = 65536
    samples_per_band: int = 32
    tail_tol: float = 1e-8
    bandwidth_budget: int = 1 << 20
    bump: BumpSpec = field(default_factory=BumpSpec)
    kernel_halfwidth: int = 64
    band_margin: int = 512

    def __post_init__(self) -> None:
        for name, least in _INT_FLOORS:
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ProfileError(
                    f"config key {name} must be an integer >= {least}")
        x, t = self.xi_max, self.tail_tol
        if type(x) not in (int, float) or not (x >= 1 and x % 1 == 0):
            raise ProfileError("config key xi_max must be a whole number >= 1")
        if type(t) not in (int, float) or not 0.0 < t < math.inf:
            raise ProfileError("config key tail_tol must be a number in (0, inf)")
        object.__setattr__(self, "xi_max", int(x))
        if (self.xi_max + (self.bandwidth_budget - 1) // 2
                + self.kernel_halfwidth >= _J_LIMIT):
            raise ProfileError(
                "config keys xi_max + (bandwidth_budget - 1) // 2 + "
                "kernel_halfwidth must stay below 2**26, the reach of the "
                "exact phase tables")

    def h0(self) -> TruncatedFourierSeries:
        """Window series at the build tolerance, never coarser than 1e-13."""
        return h0_series(self.bump, min(self.tail_tol, 1e-13))


# artifact header keys that are MeasureStage fields of the same name
_HEADER_FIELDS = ("eta", "eps", "stages", "requested_stages", "s_value",
                  "s_mode", "scales", "c_stab", "gap_log", "normalization",
                  "uniform_error_bound", "nonneg_min")


@dataclass(frozen=True)
class MeasureStage:
    """Finished build artifact: one coefficient block plus certificates.

    ``gfactors`` is the series of the periodic g-product, normalized so
    the density has mean exactly 1; the analyzer pairs it with the
    closed-form window transform to evaluate the measure transform off
    the integers.  ``density`` (g-product times the window h0) is derived
    from it on first use.  ``gap_log`` holds each stage's probe rows and
    ``factor_summaries`` each factor's ``GmFactor.summary()``, as dicts.
    ``nonneg_min`` is an uncertified diagnostic, the minimum of a 2**16-point
    FFT evaluation of the density; its trailing digits move with coefficient
    rounding (2.0e-5 relative for coefficient moves of 1.1e-16), so compare
    it only at a loose tolerance.
    """
    profile: ApproximationProfile
    eta: float
    eps: float
    stages: int
    requested_stages: int
    config: BuildConfig
    s_value: float
    s_mode: str
    scales: tuple
    c_stab: float
    gap_log: tuple
    factor_summaries: tuple
    gfactors: TruncatedFourierSeries
    normalization: float
    uniform_error_bound: float
    nonneg_min: float

    def __post_init__(self) -> None:
        # the build's lists and a header's JSON arrays, as tuples
        object.__setattr__(self, "scales", tuple(self.scales))
        object.__setattr__(self, "gap_log",
                           tuple(tuple(stage) for stage in self.gap_log))
        object.__setattr__(self, "factor_summaries",
                           tuple(self.factor_summaries))

    @property
    def complete(self) -> bool:
        return self.stages == self.requested_stages

    @cached_property
    def density(self) -> TruncatedFourierSeries:
        """Series of the normalized density, ``gfactors`` times h0.

        Cut at the export band like ``gfactors``.  Where ``gfactors`` is
        itself cut there (two stages and up), the outermost h0 half-band
        of coefficients on each side misses the product terms beyond the
        cut; the product's tail bound prices that.
        """
        h0 = self.config.h0()
        full = series_multiply(self.gfactors, h0).symmetrized()
        return full.slice_to(min(_export_band(self.config, h0),
                                 full.half_bandwidth))

    # -- persistence -----------------------------------------------------

    def _header(self) -> dict:
        return {
            **{key: getattr(self, key) for key in _HEADER_FIELDS},
            "format": _ARTIFACT_VERSION,
            "profile": self.profile.to_descriptor(),
            "factors": self.factor_summaries,
            "gfactors_tail_bound": self.gfactors.tail_bound,
            "config": asdict(self.config),
        }

    def save(self, path) -> None:
        """Write the stage to one self-describing binary file.

        Magic, header length, JSON header, the ``gfactors`` block as
        little-endian complex128, then a CRC-32 of every byte before it.
        """
        header = json.dumps(self._header(), sort_keys=True,
                            separators=(",", ":")).encode()
        body = b"".join((_ARTIFACT_MAGIC, struct.pack("<Q", len(header)),
                         header, self.gfactors.coeffs.astype("<c16").tobytes()))
        with open(path, "wb") as fh:
            fh.write(body + zlib.crc32(body).to_bytes(4, "little"))

    @staticmethod
    def load(path) -> "MeasureStage":
        """Read a stage written by ``save``.

        Raises ``ArtifactError`` for anything but one intact artifact: a
        bad magic, an undecodable or malformed header, another format, a
        block of the wrong size, or a checksum mismatch.
        """
        raw = Path(path).read_bytes()
        if raw[:4] != _ARTIFACT_MAGIC:
            raise ArtifactError(f"{path}: not a stage artifact")
        try:
            return MeasureStage._parse(raw)
        except ArtifactError as exc:
            raise ArtifactError(f"{path}: {exc}") from None
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError, struct.error) as exc:
            raise ArtifactError(f"{path}: malformed header "
                                f"({type(exc).__name__}: {exc})") from exc

    @staticmethod
    def _parse(raw: bytes) -> "MeasureStage":
        (hlen,) = struct.unpack_from("<Q", raw, 4)
        pos = 12 + hlen
        if pos > len(raw):
            raise ArtifactError("header runs past the end of the file")
        header = json.loads(raw[12:pos].decode())
        fmt = header.get("format")      # AttributeError unless an object
        if fmt != _ARTIFACT_VERSION:
            raise ArtifactError(f"artifact format {fmt!r} is not "
                                f"{_ARTIFACT_VERSION}; rebuild the stage")
        n, rest = divmod(len(raw) - pos - 4, 16)
        if n < 1 or n % 2 == 0 or rest:
            raise ArtifactError(f"{len(raw) - pos} bytes after the header "
                                f"are not one coefficient block and checksum")
        if zlib.crc32(raw[:-4]).to_bytes(4, "little") != raw[-4:]:
            raise ArtifactError("checksum mismatch")
        # a missing key must not silently take its default
        cfg_d, keys = header["config"], asdict(BuildConfig())
        if set(cfg_d) != set(keys) or set(cfg_d["bump"]) != set(keys["bump"]):
            raise ArtifactError("header config keys differ from BuildConfig")
        cfg = BuildConfig(**{**cfg_d, "bump": BumpSpec(**cfg_d["bump"])})
        block = np.frombuffer(raw, dtype="<c16", count=n, offset=pos)
        return MeasureStage(
            profile=ApproximationProfile.from_descriptor(header["profile"]),
            **{key: header[key] for key in _HEADER_FIELDS}, config=cfg,
            factor_summaries=header["factors"],
            gfactors=TruncatedFourierSeries(block.astype(np.complex128),
                                            header["gfactors_tail_bound"]))


def _export_band(cfg: BuildConfig, h0: TruncatedFourierSeries) -> int:
    """Half-band of the stored blocks: what the analyzer's window consumes."""
    return (cfg.xi_max + cfg.kernel_halfwidth + cfg.band_margin
            + h0.half_bandwidth)


def _product_sup_bound(parts: list[TruncatedFourierSeries]) -> float:
    """Upper bound on the sup of a product of real periodic functions.

    Uses sup <= l1 of the convolved coefficients, improved by replacing
    the two heaviest factors with the Cauchy-Schwarz pairing of their l2
    norms.  All norms include the certified tails.
    """
    if not parts:
        return 1.0
    l1 = [p.sup_bound() for p in parts]
    best = math.prod(l1)
    if len(parts) >= 2:
        l2 = [p.l2_norm() + p.tail_bound for p in parts]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                rest = math.prod(l1[k] for k in range(len(parts))
                                 if k not in (i, j))
                best = min(best, l2[i] * l2[j] * rest)
    return best


def _finalize(profile: ApproximationProfile, eta: float, eps: float,
              requested: int, cfg: BuildConfig, s_res,
              factors: list[GmFactor], gap_log: list, gprod, h0,
              c_stab: float) -> MeasureStage:
    """Assemble the artifact for whatever prefix of stages completed."""
    current = series_multiply(gprod, h0, cfg.bandwidth_budget,
                              where="density product").symmetrized()

    # normalization: the density series mean must be exactly 1
    z = current.coeff(0).real
    if z <= 0.0:
        raise ProfileError("density normalization is not positive")
    gf = TruncatedFourierSeries(gprod.coeffs / z, gprod.tail_bound / z)

    # uniform certified error of the banded density (and of transform
    # values computed from it): each factor's envelope tail multiplies a
    # sup bound of the product of all other factors
    series_list = [f.series for f in factors]
    err = h0.tail_bound * _product_sup_bound(series_list)
    for i, f in enumerate(series_list):
        others = series_list[:i] + series_list[i + 1:] + [h0]
        err += f.tail_bound * _product_sup_bound(others)
    uniform_error = err / z

    density = TruncatedFourierSeries(current.coeffs / z)
    nonneg_min = float(density.evaluate_on_regular_grid(1 << 16).real.min())
    return MeasureStage(
        profile=profile, eta=float(eta), eps=float(eps),
        stages=len(factors), requested_stages=requested,
        config=cfg, s_value=s_res.value, s_mode=s_res.mode,
        scales=[f.scale for f in factors], c_stab=c_stab, gap_log=gap_log,
        factor_summaries=[f.summary() for f in factors],
        gfactors=gf.slice_to(min(_export_band(cfg, h0), gf.half_bandwidth)),
        normalization=float(z),
        uniform_error_bound=float(uniform_error),
        nonneg_min=nonneg_min)


def build_measure(profile: ApproximationProfile, eta: float | None = None,
                  eps: float = 0.05, stages: int = 3,
                  config: BuildConfig | None = None) -> MeasureStage:
    """Run the staged construction and return the finished artifact.

    ``eta = None`` resolves to 0.9 times the critical series exponent.
    Every factor except the last is assembled on a band certified to the
    tail tolerance; the last factor is cut at the core band that the
    analysis window actually consumes, with the dropped mass reaching the
    window only through the kernel envelope across the guard margin.

    A build stops in one place: a budget overflow or an exhausted scale
    window, at any stage, escapes with the artifact of the completed
    stages attached as ``partial``, its gap log still carrying the
    failing stage's probe record.
    """
    cfg = config or BuildConfig()
    bump = cfg.bump
    s_res = profile.s_exponent("auto")
    if eta is None:
        eta = 0.9 * s_res.value
    if not 0.0 < eta < 1.0:
        raise ProfileError(f"weight exponent eta={eta} outside (0, 1)")
    if not 0.0 < eps < math.inf:
        raise ProfileError("config key eps must be a finite number > 0")
    if not bump.check_smoothness(s_res.value):
        raise ProfileError(
            f"kernel smoothness {bump.smoothness} too low for exponent "
            f"{s_res.value:.4f}; need smoothness > s + 4")
    if stages < 0:
        raise ProfileError("stage count must be nonnegative")
    h0 = cfg.h0()                       # raises on an unreachable tail_tol

    entries = profile.scale_set(eta).admissible()
    xi_grid = build_xi_grid(cfg.xi_max, cfg.samples_per_band)
    # non-final products reserve the window band so the density product
    # in _finalize can never be the first thing to overflow
    prod_budget = cfg.bandwidth_budget - 2 * h0.half_bandwidth

    factors: list[GmFactor] = []
    gap_log: list[list] = []
    c_stab = 0.0
    gprod = constant_series()

    try:
        for stage in range(1, stages + 1):
            threshold = None if stage == 1 else c_stab * 2.0 ** (-stage)
            gap = select_next_scale(
                profile, bump, eta, eps, entries,
                factors[-1].scale if factors else 0, threshold, gprod,
                xi_grid, cfg.kernel_halfwidth, gap_log)
            if stage == 1:
                c_stab = 2.0 * gap.value
            band_cap = None
            if stage == stages:
                # the analyzer consumes |xi| <= xi_max; anything the final
                # factor would add beyond the core band reaches that window
                # only through the kernel envelope across the guard margin
                reach = gprod.half_bandwidth + h0.half_bandwidth
                band_cap = (reach + cfg.xi_max + 2 * cfg.kernel_halfwidth
                            + cfg.band_margin)
                if (cfg.bandwidth_budget - 1) // 2 < reach + band_cap:
                    raise BandwidthBudgetError(2 * (reach + band_cap) + 1,
                                               cfg.bandwidth_budget,
                                               "final stage product")
            factor = gm_series(profile, bump, eta, gap.scale, cfg.tail_tol,
                               cfg.bandwidth_budget, band_cap=band_cap)
            gprod = series_multiply(gprod, factor.series, prod_budget,
                                    where=f"stage {stage} product").symmetrized()
            factors.append(factor)
    except (BandwidthBudgetError, WindowExhaustedError) as exc:
        exc.partial = _finalize(profile, eta, eps, stages, cfg, s_res,
                                factors, gap_log, gprod, h0, c_stab)
        raise
    return _finalize(profile, eta, eps, stages, cfg, s_res, factors,
                     gap_log, gprod, h0, c_stab)
