"""Decay measurement and the support side of a built measure.

The transform side samples nu-hat on a dyadic grid straight from the
artifact's periodic coefficient block and the closed-form window
transform, then fits a per-band supremum slope against the target
exponent.  The space side never touches the truncated series: factor
densities are evaluated exactly from their defining bump combs, so
support witnesses, interval masses, and the upper-bound comparison
carry no truncation error beyond quadrature.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import admissible, residue_count, residue_set
from .bump import BumpSpec
from .measure import (MeasureStage, build_xi_grid, factor_tail_profiles,
                      window_samples)
# kept importable from here: bench/spans.py rebinds every module's copy of
# envelope_tail, and bench/selftest.py checks this one
from .measure import envelope_tail  # noqa: F401
from .profile import ApproximationProfile

_SPIKE_CHUNK = 4096         # spikes integrated per batch
# residues (the sum of q) per batch of target unions.  A batch's cells,
# ends and merge temporaries set the upper report's peak: on the one-stage
# reference build (q <= 500, 8 batches) tracemalloc reads 3.9 MB for the
# whole report, against 13.9 MB with one batch of 2**17.  Each row's
# mass is the same bits in any batch.
_UNION_CHUNK = 1 << 14
_INCREMENT_CUTOFF = 400     # the upper report's increments are taken past it
_WITNESS_GRID = 1 << 14     # points of the support witness scan


# ----------------------------------------------------------------------
# transform sampling
# ----------------------------------------------------------------------

def transform_samples(stage: MeasureStage, xi_grid: np.ndarray) -> np.ndarray:
    """Measure transform at quarter-integer frequencies.

    nu-hat is the transform of the stored g-product times the window h0,
    so ``window_samples`` of the gfactors block gives it directly; exact
    for the stored block up to the kernel cut (see
    ``sampling_remainder``).
    """
    return window_samples(stage.gfactors.coeffs, xi_grid, BumpSpec(),
                          stage.config.kernel_halfwidth)


def sampling_remainder(stage: MeasureStage) -> float:
    """Bound on the part of each sample lost to the kernel cut.

    Only stored coefficients enter the convolution, so the cut loses
    in-band mass paired with far window values; the stored tail's
    absence is priced separately by the slice term in
    ``pointwise_error_bound``.
    """
    d_h = stage.config.kernel_halfwidth
    gf = stage.gfactors
    bump = BumpSpec()
    linf = float(np.max(np.abs(gf.coeffs)))
    return min(gf.l1_norm() * float(bump.window_envelope(d_h)),
               2.0 * linf * bump.window_tail_sum(d_h - 1))


def pointwise_error_bound(stage: MeasureStage, xi_top: float) -> float:
    """Certified |sampled - true| bound valid at every |xi| <= xi_top.

    A factor coefficient dropped at frequency l only reaches a probe
    frequency xi after pairing with the other factors' in-band mass and
    the window transform, so it is damped by the window envelope of the
    distance it still has to cover.  Single-tail terms use that reach
    directly; double-tail terms split the second tail into octaves
    against the first tail's profile; deeper interactions fall back to
    the crude product bound.  The normalization constant's own
    uncertainty (the same bound at frequency 0) is folded in last.
    """
    bump = BumpSpec()
    rows = factor_tail_profiles(stage)
    d_h = stage.config.kernel_halfwidth
    w_l1 = float(np.sum(np.abs(bump.window_kernel(0.0, 4 * d_h)))) \
        + 2.0 * bump.window_tail_sum(4 * d_h - 1)

    n = len(rows)
    bands = [r[0] for r in rows]
    l1s = [r[1] for r in rows]
    tails = [r[2](r[0] + 1) for r in rows]

    def unnorm_bound(top: float) -> float:
        total = 0.0
        # one dropped tail, everything else in band
        for i in range(n):
            rest = math.prod(l1s[j] for j in range(n) if j != i)
            reach = bands[i] + 1 - sum(bands[j] for j in range(n)
                                       if j != i) - top
            damp = float(bump.window_envelope(reach)) if reach > 0 else 1.0
            total += tails[i] * rest * damp
        # two dropped tails: octave-split one against the other's profile
        def split_pair(i: int, j: int) -> float:
            T_i, T_j = rows[i][2], rows[j][2]
            acc = 0.0
            lo, t_lo = bands[j] + 1, tails[j]
            for _ in range(40):
                hi = 2 * lo
                t_hi = T_j(hi)
                start = max(bands[i] + 1, int(lo - top) - d_h)
                acc += (t_lo - t_hi) * T_i(start)
                lo, t_lo = hi, t_hi
                if t_lo <= 0.0:
                    break
            return acc + t_lo * T_i(max(bands[i] + 1, int(lo - top) - d_h))

        for i in range(n):
            for j in range(i + 1, n):
                rest = math.prod(l1s[k] for k in range(n) if k not in (i, j))
                # whichever tail is split, the result bounds the same
                # content; keep the sharper ordering
                pair = min(tails[i] * tails[j], split_pair(i, j),
                           split_pair(j, i))
                total += pair * rest * w_l1
        # three or more dropped tails: crude inclusion-exclusion remainder
        if n >= 3:
            full = math.prod(l1 + t for l1, t in zip(l1s, tails))
            low = math.prod(l1s)
            for i in range(n):
                low += tails[i] * math.prod(l1s[j] for j in range(n)
                                            if j != i)
            for i in range(n):
                for j in range(i + 1, n):
                    low += tails[i] * tails[j] * math.prod(
                        l1s[k] for k in range(n) if k not in (i, j))
            total += max(0.0, full - low) * w_l1
        return total

    z = stage.normalization
    b_top = unnorm_bound(float(xi_top))
    b_zero = unnorm_bound(0.0)
    denom = z - b_zero
    if denom <= 0.0:
        return math.inf
    # sliced-off stored coefficients sit beyond the export band
    gf = stage.gfactors
    reach = gf.half_bandwidth + 1 - xi_top
    slice_term = gf.tail_bound * (float(bump.window_envelope(reach))
                                  if reach > 0 else 1.0)
    return ((b_top + b_zero) / denom + sampling_remainder(stage)
            + slice_term)


# ----------------------------------------------------------------------
# decay report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayBand:
    j: int
    lo: float
    hi: float
    samples: int
    sup_abs: float
    xi_argmax: float
    certified: bool


@dataclass(frozen=True)
class DecayReport:
    """Per-band suprema of |nu-hat| with the fitted log-log slope."""
    bands: tuple
    fitted_slope: float
    fit_bands_used: tuple
    target_exponent: float
    predicted_dimension: float
    nu_hat_zero: float
    pointwise_error_bound: float
    sampling_remainder: float
    scales: tuple
    stages: int
    requested_stages: int


def predicted_dimension(profile: ApproximationProfile) -> float:
    """min(2 s, 1) from the profile's critical series exponent."""
    s = profile.s_exponent().value
    return min(2.0 * s, 1.0)


def _fit_slope(bands) -> float:
    """Least-squares slope of log2 band suprema against log2 band centres."""
    if len(bands) < 2:
        return math.nan
    xs = np.array([0.5 * (math.log2(b.lo) + math.log2(b.hi)) for b in bands])
    ys = np.array([math.log2(b.sup_abs) for b in bands])
    return float(np.polyfit(xs, ys, 1)[0])


def decay_report(stage: MeasureStage) -> DecayReport:
    """Band suprema of |nu-hat|, slope fit, and the headline comparison.

    The grid is the build's own (``xi_max`` and ``samples_per_band`` of
    ``stage.config``), so the report depends only on the artifact.  The
    fit uses the bands 4 <= j < j_max, the top band j_max left out.
    Bands whose supremum does not clear the certified pointwise error
    floor, or that the stored block cannot cover, are flagged
    uncertified; they and bands of fewer than 4 samples stay out of the
    fit.
    """
    cfg = stage.config
    xi_max = float(cfg.xi_max)
    coverage = stage.gfactors.half_bandwidth + cfg.kernel_halfwidth
    grid = build_xi_grid(xi_max, cfg.samples_per_band)
    grid = grid[grid <= coverage]
    vals = np.abs(transform_samples(stage, grid))
    nu0 = float(vals[0])                # the grid always starts at 0.0
    floor = pointwise_error_bound(stage, min(xi_max, float(coverage)))
    rem = sampling_remainder(stage)

    bands = []
    j = 0
    while 2.0 ** j < xi_max:
        lo, hi = 2.0 ** j, min(2.0 ** (j + 1), xi_max)
        last = hi >= xi_max
        sel = (grid >= lo) & ((grid <= hi) if last else (grid < hi))
        count = int(sel.sum())
        if count:
            sub = vals[sel]
            arg = int(np.argmax(sub))
            sup, xi_arg = float(sub[arg]), float(grid[sel][arg])
        else:
            sup, xi_arg = 0.0, lo
        covered = hi <= coverage + 1
        certified = covered and count > 0 and sup > floor
        bands.append(DecayBand(j=j, lo=lo, hi=hi, samples=count,
                               sup_abs=sup, xi_argmax=xi_arg,
                               certified=certified))
        j += 1

    j_max = bands[-1].j if bands else 0
    used = [b for b in bands
            if 4 <= b.j < j_max and b.certified
            and b.samples >= 4 and b.sup_abs > 0.0]
    return DecayReport(
        bands=tuple(bands), fitted_slope=_fit_slope(used),
        fit_bands_used=tuple(b.j for b in used),
        target_exponent=stage.eta - stage.eps,
        predicted_dimension=predicted_dimension(stage.profile),
        nu_hat_zero=nu0, pointwise_error_bound=float(floor),
        sampling_remainder=float(rem), scales=stage.scales,
        stages=stage.stages, requested_stages=stage.requested_stages)


def compare_with_window_only(report: DecayReport, base: DecayReport) -> dict:
    """Sanity ordering of a staged fit against the window-only report.

    Refits the window-only band suprema over exactly the staged fit's
    bands.  The staged slope must be strictly steeper only when the
    window-only restriction is flat there, meaning its certified values
    show no real decay or sit entirely below the certification floor
    (then flat at the floor, slope 0).
    """
    sel = [b for b in base.bands
           if b.j in report.fit_bands_used and b.certified
           and b.sup_abs > 0.0]
    base_slope = _fit_slope(sel)
    flat = math.isnan(base_slope) or base_slope >= -0.05
    ordered = None
    if flat and not math.isnan(report.fitted_slope):
        effective = 0.0 if math.isnan(base_slope) else base_slope
        ordered = report.fitted_slope < effective
    return {
        "base_slope_restricted": base_slope,
        "base_flat_on_fit_bands": flat,
        "ordering_applies": flat,
        "ordered": ordered,
        "staged_slope": report.fitted_slope,
    }


# ----------------------------------------------------------------------
# direct (series-free) density evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _FactorComb:
    """One bucket factor as the exact average of per-q bump combs."""
    scale: int
    qs: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    counts: np.ndarray
    pairs: tuple                # (A_q, B_q) per member


def _factor_comb(profile: ApproximationProfile, qs,
                 scale: int) -> _FactorComb:
    """The moduli qs and their cells; one with psi = 0 (any q off the
    members) gets count 0."""
    qs = np.asarray(qs, dtype=np.int64)
    psi = profile.psi_values(qs)
    pairs = tuple(map(profile.pair, qs.tolist()))
    counts = [residue_count(q, b) if r > 0.0 else 0
              for q, (_, b), r in zip(qs.tolist(), pairs, psi.tolist())]
    return _FactorComb(scale=scale, qs=qs, psi=psi,
                       theta=profile.theta_values(qs),
                       counts=np.array(counts, dtype=np.int64), pairs=pairs)


def _offset(x, q: int, theta: float):
    """Nearest integer p to x*q - theta and the offset x*q - theta - p.

    The offset is formed from the exact product x*q = hi + lo (Veltkamp
    split of x; q < 2**26 needs no split), so near p it carries one
    rounding of its own size instead of the rounding of x*q, which near
    q ~ 1000 is ~1e-13 against spike radii ~1e-6.
    """
    big = 134217729.0 * x               # 2**27 + 1
    x_hi = big - (big - x)
    hi = x * q
    lo = (x_hi * q - hi) + (x - x_hi) * q
    pr = np.rint(hi - theta)
    return pr, ((hi - pr) - theta) + lo


def _comb_hits(comb: _FactorComb, x, reach: float):
    """Per member with psi > 0: index i, q, psi, and at the points x (1-D)
    the residue p and offset d of ``_offset`` and whether |d| < reach * psi
    with p admissible, tested only there.  Bumps have radius shrink *
    psi(q)/q < 1/(2q), so the nearest p is the only candidate at any reach
    up to the full radius."""
    for i in range(len(comb.qs)):
        q = int(comb.qs[i])
        psi = float(comb.psi[i])
        if psi <= 0.0:
            continue
        pr, d = _offset(x, q, float(comb.theta[i]))
        p = pr.astype(np.int64) % q
        hit = np.abs(d) < reach * psi
        hit[hit] = admissible(p[hit], q, *comb.pairs[i])
        yield i, q, psi, p, d, hit


def _comb_value(comb: _FactorComb, bump: BumpSpec, x: np.ndarray) -> np.ndarray:
    """Exact factor density at the points x (vectorized)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i, q, psi, _, d, active in _comb_hits(comb, x, bump.shrink):
        if active.any():
            out[active] += (bump.value(d[active] / psi)
                            * (q / psi) / float(comb.counts[i]))
    return out / len(comb.qs)


def _comb_witness(comb: _FactorComb, x: float) -> dict | None:
    """A pair (q, p) whose full-radius interval contains x, if any."""
    for _, q, psi, p, d, hit in _comb_hits(comb, np.array([x]), 1.0):
        if hit[0]:
            return {"scale": comb.scale, "q": q, "p": int(p[0]),
                    "distance": float(abs(d[0])) / q, "radius": psi / q}
    return None


def _merge_intervals(lo: np.ndarray, hi: np.ndarray):
    """Merge an interval family into a disjoint sorted union.

    Touching intervals merge: after sorting by lo, a piece starts
    wherever lo passes the running max of every earlier hi.
    """
    if len(lo) == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    return lo[first], np.maximum.reduceat(hi, first)


def _clip_to_union(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray):
    """Nonempty pieces of each [a[k], b[k]] inside each [lo[j], hi[j]]:
    owner k, interval j and the piece's ends, by owner, then j.  An
    interval's candidates run, in order of a, from the first owner whose
    running max of b passes lo[j] to the last with a below hi[j]."""
    order = np.argsort(a, kind="stable")
    first = np.searchsorted(np.maximum.accumulate(b[order]), lo, side="right")
    n = np.maximum(np.searchsorted(a[order], hi, side="left") - first, 0)
    piece = np.repeat(np.arange(len(lo)), n)
    owner = order[np.arange(int(n.sum()))
                  + np.repeat(first - np.cumsum(n) + n, n)]
    seg_lo = np.maximum(lo[piece], a[owner])
    seg_hi = np.minimum(hi[piece], b[owner])
    keep = np.flatnonzero(seg_lo < seg_hi)
    keep = keep[np.lexsort((piece[keep], owner[keep]))]
    return owner[keep], piece[keep], seg_lo[keep], seg_hi[keep]


def _cells(comb: _FactorComb, reach: float):
    """Modulus index, centre c = (p + theta)/q mod 1, shift (0, 1 or -1)
    and rate psi/q of every wrap copy that meets (0, 1) of the comb's
    cells |x - c| < reach * psi/q, p admissible; by shift, then q and p."""
    live = np.flatnonzero(comb.psi > 0.0)
    p = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        residue_set(int(comb.qs[i]), *comb.pairs[i]).members for i in live])
    own = np.repeat(live, comb.counts[live])
    q = comb.qs[own]
    c = np.mod((p + comb.theta[own]) / q, 1.0)
    rate = comb.psi[own] / q
    k = np.tile(np.arange(len(c)), 3)
    shift = np.repeat([0.0, 1.0, -1.0], len(c))
    r = reach * rate[k]
    live = (c[k] - r + shift < 1.0) & (c[k] + r + shift > 0.0)
    k = k[live]
    return own[k], c[k], shift[live], rate[k]


def _comb_spikes(comb: _FactorComb, shrink: float):
    """Centre, rate psi/q and weight 1/(#I_q * #bucket) of every wrap
    copy of the comb's bumps, in centre order; a bump spans
    c + rate * [-shrink, shrink]."""
    own, c, shift, rate = _cells(comb, shrink)
    centre = c + shift
    order = np.argsort(centre, kind="stable")
    own = own[order]
    return (centre[order], rate[order],
            1.0 / (comb.counts[own] * float(len(comb.qs))))


def _fine_spikes(combs: list, shrink: float):
    """Spike table of the product: the finest comb's spikes that meet
    the next-coarser comb's (the product vanishes off either), or the
    bare window as the one spike when there is no factor."""
    if not combs:
        return np.array([0.5]), np.array([0.5 / shrink]), np.array([1.0])
    c, rate, weight = _comb_spikes(combs[-1], shrink)
    if len(combs) > 1:
        cc, rr, _ = _comb_spikes(combs[-2], shrink)
        lo, hi = _merge_intervals(cc - shrink * rr, cc + shrink * rr)
        keep = _clip_to_union(c - shrink * rate, c + shrink * rate, lo, hi)[0]
        keep = keep[np.diff(keep, prepend=-1) > 0]      # sorted by owner
        c, rate, weight = c[keep], rate[keep], weight[keep]
    return c, rate, weight


class DirectDensity:
    """Series-free evaluator and integrator for a built measure.

    Point values multiply the exact factor combs with the base window.
    The product vanishes off the finest factor's spikes (the bare window
    is the one spike of a measure without factors), so every mass is a
    sum of per-spike masses.  A spike at centre c with rate psi/q is
    bump(u) / rate in the coordinate u = (x - c) / rate, and its mass is
    an 8-node Gauss-Legendre rule on each of the bump's polynomial pieces,
    clipped to the target, of bump(u) times the window and the coarser
    combs at x = c + rate * u, evaluated only on the pieces the target
    meets and summed in a fixed order, whatever the batch.

    Whole-spike masses are computed once: they sum to ``z``, and a
    target interval that holds a spike whole reuses its mass, so only
    spikes that cross a target edge are integrated again.
    """

    def __init__(self, stage: MeasureStage):
        self.stage = stage
        self.bump = BumpSpec()
        self.combs = [_factor_comb(stage.profile, stage.profile.bucket(
            stage.eta, s).members, s) for s in stage.scales]
        self._nodes, self._weights = leggauss(8)
        self._knots = np.linspace(-self.bump.shrink, self.bump.shrink,
                                  self.bump.order + 1)
        self._c, self._rate, self._weight = _fine_spikes(self.combs,
                                                         self.bump.shrink)
        self._mass = None

    # -- evaluation ---------------------------------------------------------

    def _product(self, x: np.ndarray, combs) -> np.ndarray:
        """Window times the given factor combs."""
        out = np.asarray(self.bump.window_value(x), dtype=float).copy()
        for comb in combs:
            live = out > 0.0
            if not live.any():
                break
            vals = np.zeros_like(out)
            vals[live] = _comb_value(comb, self.bump, x[live])
            out = out * vals
        return out

    def raw_value(self, x) -> np.ndarray:
        """Unnormalized density: window times every factor comb."""
        return self._product(np.atleast_1d(np.asarray(x, dtype=float)),
                             self.combs)

    # -- integration ----------------------------------------------------

    def _spike_mass(self, rows: np.ndarray, ua: np.ndarray,
                    ub: np.ndarray) -> np.ndarray:
        """Mass of each listed spike over u in [ua, ub], from its pieces
        of positive width only; nodes are summed in order and pieces by
        ``np.sum`` over the spike's row, the same bits in any batch."""
        out = np.empty(len(rows))
        for s in range(0, len(rows), _SPIKE_CHUNK):
            sl = slice(s, s + _SPIKE_CHUNK)
            a = np.maximum(self._knots[:-1], ua[sl, None])
            b = np.minimum(self._knots[1:], ub[sl, None])
            half = np.maximum(0.5 * (b - a), 0.0)
            live = np.nonzero(half > 0.0)
            u = (0.5 * (a + b))[live] + half[live] * self._nodes[:, None]
            f = self.bump.value(u)
            if self.combs:
                r = rows[sl][live[0]]
                x = (self._c[r] + self._rate[r] * u).ravel()
                f = f * self._product(x, self.combs[:-1]).reshape(u.shape)
            half[live] *= sum(fi * wi for fi, wi in zip(f, self._weights))
            out[sl] = self._weight[rows[sl]] * np.sum(half, axis=1)
        return out

    @property
    def z(self) -> float:
        """Normalization integral: the sum of the whole-spike masses."""
        if self._mass is None:
            n, s = len(self._c), self.bump.shrink
            self._mass = (self._spike_mass(np.arange(n), np.full(n, -s),
                                           np.full(n, s))
                          if self.combs else np.ones(1))  # h0 has mass 1
        return float(np.sum(self._mass))

    def measure_of_intervals(self, lo, hi):
        """Normalized mass of a disjoint sorted interval union in [0, 1],
        or of every row of a 2-D stack of them (padded with empty
        intervals) from one ``_spike_mass`` call, each row as if alone."""
        one = np.ndim(lo) < 2
        lo, hi = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (lo, hi))
        z = self.z  # also caches the whole-spike masses
        r = self.bump.shrink * self._rate
        s_lo, s_hi = self._c - r, self._c + r
        j = np.flatnonzero(lo < hi)
        k, i, a, b = _clip_to_union(s_lo, s_hi, lo.ravel()[j], hi.ravel()[j])
        whole = (a == s_lo[k]) & (b == s_hi[k])
        cut = k[~whole]
        rate = self._rate[cut]
        mass = self._mass[k]
        mass[~whole] = self._spike_mass(cut, (a[~whole] - self._c[cut]) / rate,
                                        (b[~whole] - self._c[cut]) / rate)
        # per row: its whole spikes, then its cut ones, each in spike order
        key = 2 * (j[i] // max(lo.shape[1], 1)) + ~whole
        part = np.split(mass[np.argsort(key, kind="stable")], np.cumsum(
            np.bincount(key, minlength=2 * len(lo)))[:-1])
        out = np.array([np.sum(w) + np.sum(m) for w, m in zip(part[::2],
                                                            part[1::2])]) / z
        return float(out[0]) if one else out


# ----------------------------------------------------------------------
# support witnesses
# ----------------------------------------------------------------------

def support_witnesses(stage: MeasureStage, x: float,
                      threshold: float = 0.0,
                      evaluator: DirectDensity | None = None) -> dict:
    """Per-stage approximation witnesses at one point.

    For every built stage the witness is a pair (q, p) with q in that
    stage's bucket, p admissible, and x within the full radius
    psi(q)/q of (p + theta(q))/q.  Points whose exact density does not
    exceed ``threshold`` get a refusal verdict instead of witnesses.
    """
    x = float(x) % 1.0
    dd = evaluator or DirectDensity(stage)
    dens = float(dd.raw_value(x)[0])
    if dens <= threshold:
        return {"x": x, "density": dens, "verdict": "below-threshold",
                "witnesses": []}
    witnesses = []
    for comb in dd.combs:
        found = _comb_witness(comb, x)
        if found is None:
            return {"x": x, "density": dens, "verdict": "missing-witness",
                    "witnesses": witnesses}
        witnesses.append(found)
    return {"x": x, "density": dens, "verdict": "witnessed",
            "witnesses": witnesses}


def support_witness_scan(stage: MeasureStage,
                         threshold: float = 0.0) -> dict:
    """Witness check over the ``_WITNESS_GRID`` midpoints; every positive
    point must produce a witness at every stage."""
    dd = DirectDensity(stage)
    x = (np.arange(_WITNESS_GRID) + 0.5) / _WITNESS_GRID
    dens = dd.raw_value(x)
    positive = np.nonzero(dens > threshold)[0]
    failures = []
    for idx in positive.tolist():
        for comb in dd.combs:
            if _comb_witness(comb, float(x[idx])) is None:
                failures.append({"x": float(x[idx]),
                                 "density": float(dens[idx]),
                                 "scale": comb.scale})
    return {"grid": _WITNESS_GRID, "positive_points": int(len(positive)),
            "failures": failures, "zero_failures": not failures}


# ----------------------------------------------------------------------
# interval masses and the upper-bound comparison
# ----------------------------------------------------------------------

def _target_unions(profile: ApproximationProfile, qs: np.ndarray):
    """Full-radius interval unions of every modulus in qs at once: rows
    padded with empty intervals, each row's interval count, and #I_q (0
    where psi = 0).  Each q's wrap copies merge as for a lone q: the ends
    are ranked once and each q lifted above the last, so one merge does."""
    comb = _factor_comb(profile, qs, 0)
    own, c, shift, r = _cells(comb, 1.0)
    ends, rank = np.unique(np.concatenate([
        np.maximum(c - r + shift, 0.0),
        np.minimum(c + r + shift, 1.0)]), return_inverse=True)
    m = max(len(ends), 1)
    lo, hi = _merge_intervals(*np.split(rank + m * np.tile(own, 2), 2))
    n = np.bincount(lo // m, minlength=len(comb.qs))
    out = np.zeros((2, len(comb.qs), n.max(initial=0)))
    out[:, lo // m, np.arange(len(lo)) - np.repeat(np.cumsum(n) - n, n)] = \
        ends[lo % m], ends[hi % m]
    return out[0], out[1], n, comb.counts


def measure_of_Aq(stage: MeasureStage, q: int,
                  evaluator: DirectDensity | None = None) -> float:
    """Mass the built measure gives the modulus-q approximation set: the
    upper report's route for one q, ``_target_unions`` then
    ``DirectDensity.measure_of_intervals``, the same bits as its row."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if q % 1 != 0:                      # also nan and inf
        raise ValueError(f"modulus must be a whole number, got {q}")
    if q > stage.profile.q_max:         # no member: psi = 0 past the window
        return 0.0
    lo, hi, n, _count = _target_unions(stage.profile, np.array([q]))
    if n[0] == 0:
        return 0.0
    dd = evaluator or DirectDensity(stage)
    return dd.measure_of_intervals(lo[0, :n[0]], hi[0, :n[0]])


@dataclass(frozen=True)
class UpperBoundReport:
    """Measured interval-union masses against the averaged-density bound."""
    per_q: tuple
    constant: float
    series_partial: float
    measured_partial: float
    max_increment_beyond: float
    increment_cutoff: int
    s_used: float
    eps_used: float
    z_direct: float


def borel_cantelli_report(stage: MeasureStage,
                          n_max: int) -> UpperBoundReport:
    """Per-q masses against 2 psi (#I_q / q) + (psi/q)^(s - eps), with s
    and eps the stage's own.

    Records the one empirical constant (largest measured-to-bound
    ratio), partial sums of both sides, and the largest measured
    increment past q = ``_INCREMENT_CUTOFF``.  The moduli go in
    1 + sum(q) // ``_UNION_CHUNK`` batches, at most one per modulus, and
    each batch takes one ``_target_unions`` and one ``measure_of_intervals``.
    """
    profile = stage.profile
    s, eps = stage.s_value, stage.eps
    dd = DirectDensity(stage)
    rows = []
    constant = 0.0
    measured_sum = 0.0
    bound_sum = 0.0
    worst_inc = 0.0
    qs = profile.members(n_max)
    batches = min(1 + int(qs.sum()) // _UNION_CHUNK, max(len(qs), 1))
    for block in np.array_split(qs, batches):
        lo, hi, n, count = _target_unions(profile, block)
        masses = dd.measure_of_intervals(lo, hi)
        psis = profile.psi_values(block)
        for t, q in enumerate(block.tolist()):
            if n[t] == 0:
                continue
            psi, measured = float(psis[t]), float(masses[t])
            bound = 2.0 * psi * (int(count[t]) / q) + (psi / q) ** (s - eps)
            ratio = measured / bound if bound > 0.0 else math.inf
            constant = max(constant, ratio)
            measured_sum += measured
            bound_sum += bound
            if q > _INCREMENT_CUTOFF:
                worst_inc = max(worst_inc, measured)
            rows.append({"q": q, "intervals": int(n[t]),
                         "total_length": float((hi[t, :n[t]]
                                                - lo[t, :n[t]]).sum()),
                         "measured": measured, "bound": float(bound),
                         "ratio": float(ratio)})
    return UpperBoundReport(
        per_q=tuple(rows), constant=float(constant),
        series_partial=float(bound_sum),
        measured_partial=float(measured_sum),
        max_increment_beyond=float(worst_inc),
        increment_cutoff=_INCREMENT_CUTOFF,
        s_used=float(s), eps_used=float(eps), z_direct=float(dd.z))


# ----------------------------------------------------------------------
# report writers
# ----------------------------------------------------------------------

_UPPER_COLUMNS = ("q", "intervals", "total_length", "measured", "bound",
                  "ratio")


def write_report_json(report, path) -> None:
    """One report or log as sorted JSON, each dataclass as its fields."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, default=vars, sort_keys=True, indent=2)
        fh.write("\n")


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, columns, rows) -> None:
    """A table of dict rows: floats by repr (every bit), bools as 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(columns)
        out.writerows([_cell(row[c]) for c in columns] for row in rows)


def write_decay_csv(report: DecayReport, path) -> None:
    write_csv(path, [f.name for f in fields(DecayBand)],
              map(asdict, report.bands))


def write_upper_csv(report: UpperBoundReport, path) -> None:
    write_csv(path, _UPPER_COLUMNS, report.per_q)
