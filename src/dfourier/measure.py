"""Stagewise construction of the smoothed measure and its coefficient bands.

One stage multiplies the running density by the bucket average

    g_M(x) = (1/#Q) sum over q in the bucket of Phi_q(x),

where Phi_q places the mollifier on every admissible rational (p+theta)/q
at width psi(q)/q.  In frequency space each Phi_q contributes

    c_q(l) = (1/#I_q) * e(-l*theta/q) * S(q, l) * fhat(l*psi(q)/q),

so a factor is assembled divisor by divisor: the divisor-sum form of
S(q, .) touches only frequencies that are multiples of q/lp, which keeps
the cost proportional to the number of nonzero hits rather than to the
band width times the bucket size.  Along one hit, l = g*j carries the
phase e(-j*(theta + p0)/lp); it is read off two short tables whose
arguments are reduced exactly (theta split in two 26-bit halves, p0*j
mod lp in integers), one complex product per term, and the kernel
factor costs one sine per term.  Every term depends on j alone, so a
line is cut into one contiguous span per available CPU and the spans run
on threads (numpy releases the GIL in its loops); the coefficients are
the same bits whatever the CPU count.

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

from .arith import TWO_PI, divisor_hits, divisor_sum, divisors, residue_count
from .bump import BumpSpec
from .errors import (ArtifactError, BandwidthBudgetError, ProfileError,
                     WindowExhaustedError)
from .profile import ApproximationProfile
from .series import TruncatedFourierSeries, constant_series, series_multiply

_ARTIFACT_MAGIC = b"DFMS"
_ARTIFACT_VERSION = 2

# assemble_line runs one span of a half-line per available CPU, none
# shorter than _MIN_SPAN frequencies.  On 2 vCPUs, two spans of a window
# below 2**17 frequencies mostly ran slower than one (0.8 to 1.3 times
# the serial time at M = 4 to 256): the threads keep trading the GIL
# between short numpy calls.  From 2**17 on they took 0.5 to 0.8 times.
_MIN_SPAN = 1 << 16
# each span works through sequential chunks of at most this many
# frequencies to bound its scratch buffers, 32 bytes per frequency plus
# an 8-byte ramp that the spans share: one pass over the 22.5M-long M=32
# half-line would take 0.9 GB of them
_CHUNK = 1 << 20

# phase tables: j = _BLOCK*a + b, so e(-j*phase) = coarse[a] * fine[b]
_BLOCK = 1024
# below this, theta_hi*j and theta_lo*j are exact products
_J_LIMIT = 1 << 26


# ----------------------------------------------------------------------
# per-denominator assembly data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Member:
    q: int
    rate: float                 # psi(q) / q
    count: int                  # #I_q
    hits: tuple                 # (stride g, coef mu(lp)*g/#I_q, lp, p0)
    theta: tuple                # theta(q) as hi + lo, 26 significant bits each
    sigma_divisors: tuple       # (d, sigma(d)) over divisors of q


def _member_data(profile: ApproximationProfile, members: np.ndarray) -> list[_Member]:
    psi = profile.psi_values(members)
    data = []
    for q_np, p in zip(members, psi):
        q = int(q_np)
        a, b = profile.pair(q)
        n_i = residue_count(q, b)
        theta = profile.theta_of(q)
        big = 134217729.0 * theta           # 2**27 + 1: Veltkamp split
        hi = big - (big - theta)
        # frequency l = g*j carries phase e(-j*(theta + p0)/lp)
        hits = tuple((g, mu * g / n_i, lp, p0)
                     for lp, g, mu, p0 in divisor_hits(q, a, b))
        sig = tuple((d, divisor_sum(d)) for d in divisors(q))
        data.append(_Member(q=q, rate=float(p) / q, count=n_i, hits=hits,
                            theta=(hi, theta - hi), sigma_divisors=sig))
    return data


def _phases(theta: tuple, lp: int, p0: int, j: np.ndarray) -> tuple:
    """Real and imaginary parts of e(-j*(theta + p0)/lp) at int64 j < 2**26.

    The argument is reduced exactly: theta_hi*j and theta_lo*j are exact
    products, their remainders mod lp are exact, and so is p0*j mod lp in
    integers; only the sum and the division by lp round.
    """
    jf = j.astype(np.float64)
    t = np.fmod(theta[0] * jf, lp)
    if p0:
        t += (p0 * j) % lp
    t += np.fmod(theta[1] * jf, lp)
    t /= lp
    t -= np.round(t)
    t *= -TWO_PI
    return np.cos(t), np.sin(t)


def _phase_run(theta: tuple, lp: int, p0: int, coef: float, j0: int, n: int,
               re: np.ndarray, im: np.ndarray, tmp: np.ndarray) -> int:
    """coef * e(-j*(theta + p0)/lp) for j in [j0, j0 + n) into re and im.

    The values are coarse[a] * fine[b] at j = _BLOCK*a + b, with the two
    short tables taken on the absolute j and the complex product spelled
    out in real operations, each rounded once whatever loop numpy picks;
    so every value depends on j alone.  Returns the offset of j0 in the
    buffers.
    """
    a0, a1 = j0 // _BLOCK, (j0 + n - 1) // _BLOCK
    b0 = j0 - a0 * _BLOCK
    # one block needs only its own fine entries
    f_lo, f_hi = (b0, b0 + n) if a0 == a1 else (0, _BLOCK)
    na = a1 - a0 + 1
    p_re, p_im = _phases(theta, lp, p0, np.concatenate(
        (_BLOCK * np.arange(a0, a1 + 1), np.arange(f_lo, f_hi))))
    c_re, c_im = coef * p_re[:na, None], coef * p_im[:na, None]
    f_re, f_im = p_re[na:], p_im[na:]
    shape = (na, f_hi - f_lo)
    t_re, t_im, t_tmp = (buf[:shape[0] * shape[1]].reshape(shape)
                         for buf in (re, im, tmp))
    np.multiply(c_re, f_re, out=t_re)
    np.subtract(t_re, np.multiply(c_im, f_im, out=t_tmp), out=t_re)
    np.multiply(c_re, f_im, out=t_im)
    np.add(t_im, np.multiply(c_im, f_re, out=t_tmp), out=t_im)
    return b0 - f_lo


def _line_segment(data: list[_Member], bump: BumpSpec, out: np.ndarray,
                  l_lo: int, l_hi: int, scratch: tuple) -> None:
    """Add the unnormalized coefficient sum over members for l in [l_lo, l_hi].

    ``out`` holds the window's coefficients and ``scratch`` is
    ``_scratch`` for at least its length.  Per hit, the terms j of
    l = g*j take their phase from ``_phase_run`` and their kernel factor
    from one sine per term; each term depends on j alone, not on the
    window.  Runs on worker threads, so it calls nothing that the
    benchmark's tracer wraps (``ApproximationProfile.bucket``,
    ``BumpSpec.fourier``, ``BumpSpec.value``, ``residue_set``): its span
    stack is not thread-local.
    """
    out_f = out.view(np.float64)
    ramp, re, im, tmp, kern = scratch
    for mem in data:
        for g, coef, lp, p0 in mem.hits:
            j0 = -((-l_lo) // g)        # ceil(l_lo / g)
            j1 = l_hi // g
            if j1 < j0:
                continue
            if j1 >= _J_LIMIT or p0 * j1 >= 1 << 63:
                raise ValueError(f"frequency {g * j1} is beyond the exact "
                                 f"phase tables (j < 2**26 at stride {g}, "
                                 f"p0*j < 2**63)")
            n = j1 - j0 + 1
            k = _phase_run(mem.theta, lp, p0, coef, j0, n, re, im, tmp)
            w = bump.fourier_steps(mem.rate * g,
                                   np.add(ramp[:n], j0, out=tmp[:n]),
                                   kern[:n])
            start = 2 * (g * j0 - l_lo)
            for part, pos in ((re, start), (im, start + 1)):
                vals = np.multiply(part[k:k + n], w, out=part[k:k + n])
                out_f[pos::2 * g][:n] += vals


def _scratch(ramp: np.ndarray, n: int) -> tuple:
    """Buffers (ramp, re, im, tmp, kern) for pieces of up to n frequencies.

    ``ramp`` is 0, 1, 2, ... and only read, so spans share it.
    """
    return (ramp, *(np.empty(n + 2 * _BLOCK) for _ in range(3)), np.empty(n))


def _assemble_span(data: list[_Member], bump: BumpSpec, out: np.ndarray,
                   l_lo: int, l_hi: int, scratch: tuple) -> None:
    """``_line_segment`` over [l_lo, l_hi] in sequential ``_CHUNK`` pieces."""
    for a in range(l_lo, l_hi + 1, _CHUNK):
        b = min(a + _CHUNK - 1, l_hi)
        _line_segment(data, bump, out[a - l_lo:b - l_lo + 1], a, b, scratch)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def assemble_line(data: list[_Member], bump: BumpSpec, l_lo: int,
                  l_hi: int) -> np.ndarray:
    """Bucket-averaged coefficient line on the contiguous window [l_lo, l_hi].

    Every in-window term of every divisor hit is summed.  The window is
    cut into one contiguous span per available CPU, none shorter than
    ``_MIN_SPAN``, and the spans run on threads, each through its own
    sequential ``_CHUNK``-long pieces into its own slice of the line.
    Every term depends on j alone and every coefficient sums its terms
    in the same order, so the result does not move a bit with the CPU
    count or with where a span or a chunk ends.
    """
    if l_hi < l_lo:
        raise ValueError("empty frequency window")
    n = l_hi - l_lo + 1
    line = np.zeros(n, dtype=np.complex128)
    parts = max(1, min(_cpu_count(), n // _MIN_SPAN))
    edges = [n * i // parts for i in range(parts + 1)]
    ramp = np.arange(min(_CHUNK, -(-n // parts)), dtype=np.float64)
    # the scratch is allocated here: worker threads allocating their own
    # take separate malloc arenas, which raised the peak RSS of the M = 4,
    # 8, 16 factors from 146 to 171 MB
    jobs = [(line[a:b], l_lo + a, l_lo + b - 1,
             _scratch(ramp, min(_CHUNK, b - a)))
            for a, b in zip(edges, edges[1:])]
    if parts == 1:
        _assemble_span(data, bump, *jobs[0])
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(parts) as pool:
            for done in [pool.submit(_assemble_span, data, bump, *job)
                         for job in jobs]:
                done.result()
    line /= len(data)
    return line


def _mirror_half_line(half: np.ndarray) -> np.ndarray:
    """Extend coefficients on [0, L] to [-L, L] by Hermitian symmetry."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def _tail_function(data: list[_Member], bump: BumpSpec):
    """``envelope_tail(data, bump, .)`` with its member arrays built once.

    The (member, divisor d) entries carry rate*d, sigma(d) and d.  Each
    evaluation places their terms in a member-by-divisor matrix padded
    with zeros, sums it column by column and then the members one after
    another: the order of the scalar loop, so the values are the same
    floats.
    """
    rows, cols, rate_d, sig, div = (np.array(c) for c in zip(*(
        (i, k, mem.rate * d, s, d) for i, mem in enumerate(data)
        for k, (d, s) in enumerate(mem.sigma_divisors))))
    counts = np.array([mem.count for mem in data], dtype=float)
    terms = np.zeros((len(data), cols.max() + 1))

    def tail(half_bandwidth: int) -> float:
        terms[rows, cols] = sig * bump.envelope_tail_sum(
            rate_d, half_bandwidth // div)
        per_q = np.add.accumulate(terms, axis=1)[:, -1]
        total = np.add.accumulate(per_q / counts)[-1]
        return 2.0 * float(total) / len(data)
    return tail


def envelope_tail(data: list[_Member], bump: BumpSpec, half_bandwidth: int) -> float:
    """Certified l1 bound on the bucket average outside [-L, L].

    Uses |S(q, l)| <= sigma(gcd(q, l)) and groups frequencies by the
    divisor d | q they share with q, so each group is a lacunary
    progression against the kernel envelope.
    """
    return _tail_function(data, bump)(half_bandwidth)


def factor_tail_profiles(stage: MeasureStage) -> list[tuple]:
    """Per built factor: stored half-band, unnormalized l1, tail profile.

    The profile maps a half-bandwidth L to the certified ``envelope_tail``
    of that factor's bucket beyond L.
    """
    profile, bump, eta = stage.profile, stage.config.bump, stage.eta
    rows = []
    for summary in stage.factor_summaries:
        info = dict(summary)
        data = _member_data(profile,
                            profile.bucket(eta, int(info["scale"])).members)
        rows.append((int(info["half_bandwidth"]), float(info["l1_norm"]),
                     lambda L, d=data: envelope_tail(d, bump, int(L))))
    return rows


def certified_half_bandwidth(data: list[_Member], bump: BumpSpec,
                             tail_tol: float, cap: int) -> tuple[int, float, bool]:
    """Smallest half-bandwidth whose envelope tail is below ``tail_tol``.

    Returns (L, tail_at_L, complete); ``complete`` is False when even the
    cap does not reach the tolerance, in which case L is the cap.
    """
    tail = _tail_function(data, bump)
    if tail(cap) > tail_tol:
        return cap, tail(cap), False
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo, tail(lo), True


# ----------------------------------------------------------------------
# series-level assembly
# ----------------------------------------------------------------------

def h0_series(bump: BumpSpec, tail_tol: float) -> TruncatedFourierSeries:
    """Integer-frequency series of the unit-interval window h0."""
    # the tail decreases with L, so the far end decides reachability
    if 2.0 * bump.window_tail_sum(10**6) > tail_tol:
        raise ValueError("window tail does not reach the tolerance")
    L = 1
    while 2.0 * bump.window_tail_sum(L) > tail_tol:
        L += 1
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

    Raises ``WindowExhaustedError`` for an empty bucket.  Without a
    ``band_cap`` the band must reach ``tail_tol`` inside the budget or
    ``BandwidthBudgetError`` is raised; with a cap the band is truncated
    there and the (larger) envelope tail is recorded honestly.
    """
    bucket = profile.bucket(eta, scale)
    if bucket.count == 0:
        raise WindowExhaustedError(
            f"no denominators in the bucket at scale {scale}")
    data = _member_data(profile, bucket.members)
    budget_cap = (budget - 1) // 2
    cap = budget_cap if band_cap is None else min(band_cap, budget_cap)
    L, tail, complete = certified_half_bandwidth(data, bump, tail_tol, cap)
    if not complete and band_cap is None:
        need, _, _ = certified_half_bandwidth(data, bump, tail_tol, 1 << 40)
        raise BandwidthBudgetError(2 * need + 1, budget,
                                   f"factor at scale {scale}")
    half = assemble_line(data, bump, 0, L)
    coeffs = _mirror_half_line(half)
    # the center coefficient is exactly 1 per member (S(q,0) = #I_q), so
    # write the exact mean rather than the per-divisor rounded sum
    coeffs[L] = 1.0
    series = TruncatedFourierSeries(coeffs, tail_bound=tail)
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
    return np.unique(np.concatenate(pts))


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
    bucket = profile.bucket(eta, scale)
    if bucket.count == 0:
        raise WindowExhaustedError(
            f"no denominators in the bucket at scale {scale}")
    data = _member_data(profile, bucket.members)
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
    cur_l1 = periodic.l1_norm() + periodic.tail_bound
    linf = float(np.mean([divisor_sum(m.q) / m.count for m in data]))
    rem = (2.0 * linf * cur_l1 * bump.window_tail_sum(d_h - 1)
           + cand_l1 * cur_l1 * float(bump.window_envelope(d_h))) * w_max
    return GapResult(value=float(weighted[i]), xi_argmax=float(xi_grid[i]),
                     remainder_bound=rem, scale=scale)


def select_next_scale(profile: ApproximationProfile, bump: BumpSpec, eta: float,
                      eps: float, scale_entries, prev_scale: int,
                      threshold: float | None,
                      periodic: TruncatedFourierSeries, xi_grid: np.ndarray,
                      kernel_halfwidth: int) -> tuple[GapResult, list]:
    """First admissible scale past 2*prev_scale whose gap clears the threshold.

    ``threshold`` is None on the opening stage, where the first candidate
    is accepted unconditionally and its gap calibrates the later stages.
    Exhausting the admissible list raises ``WindowExhaustedError`` with
    the largest scale tried and its gap.
    """
    tried: list[dict] = []
    last: GapResult | None = None
    for entry in scale_entries:
        if entry.scale <= 2 * prev_scale:
            continue
        gap = stability_gap(profile, bump, eta, eps, entry.scale, periodic,
                            xi_grid, kernel_halfwidth)
        tried.append({"scale": entry.scale, "gap": gap.value,
                      "xi_argmax": gap.xi_argmax,
                      "remainder_bound": gap.remainder_bound})
        last = gap
        if threshold is None or gap.value <= threshold:
            return gap, tried
    raise WindowExhaustedError(
        "no admissible scale satisfies the stability threshold",
        last_scale=None if last is None else last.scale,
        last_gap=None if last is None else last.value,
        tried=tried)


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

    def h0(self) -> TruncatedFourierSeries:
        """Window series at the build tolerance, never coarser than 1e-13."""
        return h0_series(self.bump, min(self.tail_tol, 1e-13))


@dataclass(frozen=True)
class MeasureStage:
    """Finished build artifact: one coefficient block plus certificates.

    ``gfactors`` is the series of the periodic g-product, normalized so
    the density has mean exactly 1; the analyzer pairs it with the
    closed-form window transform to evaluate the measure transform off
    the integers.  ``density`` (g-product times the window h0) is derived
    from it on first use.
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
            "format": _ARTIFACT_VERSION,
            "profile": self.profile.to_descriptor(),
            "eta": self.eta,
            "eps": self.eps,
            "stages": self.stages,
            "requested_stages": self.requested_stages,
            "s_value": self.s_value,
            "s_mode": self.s_mode,
            "scales": list(self.scales),
            "c_stab": self.c_stab,
            "gap_log": [list(stage) for stage in self.gap_log],
            "factors": [dict(f) for f in self.factor_summaries],
            "normalization": self.normalization,
            "uniform_error_bound": self.uniform_error_bound,
            "nonneg_min": self.nonneg_min,
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
            eta=header["eta"], eps=header["eps"], stages=header["stages"],
            requested_stages=header["requested_stages"],
            config=cfg, s_value=header["s_value"], s_mode=header["s_mode"],
            scales=tuple(header["scales"]), c_stab=header["c_stab"],
            gap_log=tuple(tuple(stage) for stage in header["gap_log"]),
            factor_summaries=tuple(tuple(sorted(f.items()))
                                   for f in header["factors"]),
            gfactors=TruncatedFourierSeries(block.astype(np.complex128),
                                            header["gfactors_tail_bound"]),
            normalization=header["normalization"],
            uniform_error_bound=header["uniform_error_bound"],
            nonneg_min=header["nonneg_min"])


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
    l1 = [p.l1_norm() + p.tail_bound for p in parts]
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
        scales=tuple(f.scale for f in factors), c_stab=c_stab,
        gap_log=tuple(gap_log),
        factor_summaries=tuple(tuple(sorted(f.summary().items()))
                               for f in factors),
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

    On a budget overflow or an exhausted scale window the error escapes
    with the artifact of the completed stages attached as ``partial``,
    its gap log still carrying the failing stage's probe record.
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

    entries = profile.scale_set(eta).admissible()
    xi_grid = build_xi_grid(cfg.xi_max, cfg.samples_per_band)
    h0 = cfg.h0()
    # non-final products reserve the window band so the density product
    # in _finalize can never be the first thing to overflow
    prod_budget = cfg.bandwidth_budget - 2 * h0.half_bandwidth

    factors: list[GmFactor] = []
    gap_log: list[tuple] = []
    c_stab = 0.0
    prev_scale = 0
    gprod = constant_series()

    for stage in range(1, stages + 1):
        threshold = None if stage == 1 else c_stab * 2.0 ** (-stage)
        try:
            gap, tried = select_next_scale(
                profile, bump, eta, eps, entries, prev_scale, threshold,
                gprod, xi_grid, cfg.kernel_halfwidth)
        except WindowExhaustedError as exc:
            gap_log.append(tuple({"threshold": threshold, **t}
                                 for t in exc.tried))
            exc.partial = _finalize(profile, eta, eps, stages, cfg, s_res,
                                    factors, gap_log, gprod, h0, c_stab)
            raise
        if stage == 1:
            c_stab = 2.0 * gap.value
        chosen = gap.scale
        final = stage == stages
        gap_log.append(tuple({"threshold": threshold, **t} for t in tried))

        try:
            band_cap = None
            if final:
                # the analyzer consumes |xi| <= xi_max; anything the final
                # factor would add beyond the core band reaches that window
                # only through the kernel envelope across the guard margin
                band_cap = (cfg.xi_max + gprod.half_bandwidth
                            + h0.half_bandwidth + 2 * cfg.kernel_halfwidth
                            + cfg.band_margin)
                room = ((cfg.bandwidth_budget - 1) // 2
                        - gprod.half_bandwidth - h0.half_bandwidth)
                if room < band_cap:
                    need = 2 * (gprod.half_bandwidth + h0.half_bandwidth
                                + band_cap) + 1
                    raise BandwidthBudgetError(need, cfg.bandwidth_budget,
                                               "final stage product")
            factor = gm_series(profile, bump, eta, chosen, cfg.tail_tol,
                               cfg.bandwidth_budget, band_cap=band_cap)
            gprod = series_multiply(gprod, factor.series, prod_budget,
                                    where=f"stage {stage} product").symmetrized()
        except BandwidthBudgetError as exc:
            exc.partial = _finalize(profile, eta, eps, stages, cfg, s_res,
                                    factors, gap_log, gprod, h0, c_stab)
            raise
        factors.append(factor)
        prev_scale = chosen

    return _finalize(profile, eta, eps, stages, cfg, s_res, factors,
                     gap_log, gprod, h0, c_stab)
