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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import residue_set
from .bump import BumpSpec
from .measure import (MeasureStage, build_xi_grid, factor_tail_profiles,
                      window_samples)
# kept importable from here: bench/spans.py rebinds every module's copy of
# envelope_tail, and bench/selftest.py checks this one
from .measure import envelope_tail  # noqa: F401
from .profile import ApproximationProfile


# ----------------------------------------------------------------------
# transform sampling
# ----------------------------------------------------------------------

def transform_samples(stage: MeasureStage, xi_grid: np.ndarray,
                      kernel_halfwidth: int | None = None) -> np.ndarray:
    """Measure transform at quarter-integer frequencies.

    nu-hat is the transform of the stored g-product times the window h0,
    so ``window_samples`` of the gfactors block gives it directly; exact
    for the stored block up to the kernel cut (see
    ``sampling_remainder``).
    """
    d_h = kernel_halfwidth or stage.config.kernel_halfwidth
    return window_samples(stage.gfactors.coeffs, xi_grid, stage.config.bump,
                          d_h)


def sampling_remainder(stage: MeasureStage,
                       kernel_halfwidth: int | None = None) -> float:
    """Bound on the part of each sample lost to the kernel cut.

    Only stored coefficients enter the convolution, so the cut loses
    in-band mass paired with far window values; the stored tail's
    absence is priced separately by the slice term in
    ``pointwise_error_bound``.
    """
    d_h = int(kernel_halfwidth or stage.config.kernel_halfwidth)
    gf = stage.gfactors
    bump = stage.config.bump
    linf = float(np.max(np.abs(gf.coeffs)))
    return min(gf.l1_norm() * float(bump.window_envelope(d_h)),
               2.0 * linf * bump.window_tail_sum(d_h - 1))


def pointwise_error_bound(stage: MeasureStage, xi_top: float | None = None,
                          octaves: int = 40) -> float:
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
    cfg = stage.config
    bump = cfg.bump
    if xi_top is None:
        xi_top = float(cfg.xi_max)
    rows = factor_tail_profiles(stage)
    if not rows:
        return sampling_remainder(stage)
    d_h = cfg.kernel_halfwidth
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
            for _ in range(octaves):
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

    def to_dict(self) -> dict:
        return {
            "bands": [{"j": b.j, "lo": b.lo, "hi": b.hi,
                       "samples": b.samples, "sup_abs": b.sup_abs,
                       "xi_argmax": b.xi_argmax, "certified": b.certified}
                      for b in self.bands],
            "fitted_slope": self.fitted_slope,
            "fit_bands_used": list(self.fit_bands_used),
            "target_exponent": self.target_exponent,
            "predicted_dimension": self.predicted_dimension,
            "nu_hat_zero": self.nu_hat_zero,
            "pointwise_error_bound": self.pointwise_error_bound,
            "sampling_remainder": self.sampling_remainder,
            "scales": list(self.scales),
            "stages": self.stages,
            "requested_stages": self.requested_stages,
        }


def predicted_dimension(profile: ApproximationProfile) -> float:
    """min(2 s, 1) from the profile's critical series exponent."""
    s = profile.s_exponent("auto").value
    return min(2.0 * s, 1.0)


def decay_report(stage: MeasureStage, xi_max: float | None = None,
                 samples_per_band: int | None = None,
                 fit_range: tuple = (4, None),
                 fit_min_samples: int = 4) -> DecayReport:
    """Band suprema of |nu-hat|, slope fit, and the headline comparison.

    Bands whose supremum does not clear the certified pointwise error
    floor, or that the stored block cannot cover, are flagged
    uncertified and excluded from the fit.
    """
    cfg = stage.config
    if xi_max is None:
        xi_max = float(cfg.xi_max)
    if samples_per_band is None:
        samples_per_band = cfg.samples_per_band

    coverage = stage.gfactors.half_bandwidth + cfg.kernel_halfwidth
    grid = build_xi_grid(xi_max, samples_per_band)
    grid = grid[grid <= coverage]
    vals = np.abs(transform_samples(stage, grid))
    nu0 = float(np.abs(transform_samples(stage, np.array([0.0]))[0]))
    floor = pointwise_error_bound(stage, min(float(xi_max), float(coverage)))
    rem = sampling_remainder(stage)

    bands = []
    j = 0
    while 2.0 ** j < xi_max:
        lo, hi = 2.0 ** j, min(2.0 ** (j + 1), float(xi_max))
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
    fit_lo = fit_range[0]
    fit_hi = fit_range[1] if fit_range[1] is not None else j_max - 1
    used = [b for b in bands
            if fit_lo <= b.j <= fit_hi and b.certified
            and b.samples >= fit_min_samples and b.sup_abs > 0.0]
    if len(used) >= 2:
        xs = np.array([0.5 * (math.log2(b.lo) + math.log2(b.hi))
                       for b in used])
        ys = np.array([math.log2(b.sup_abs) for b in used])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.nan

    return DecayReport(
        bands=tuple(bands), fitted_slope=slope,
        fit_bands_used=tuple(b.j for b in used),
        target_exponent=stage.eta - stage.eps,
        predicted_dimension=predicted_dimension(stage.profile),
        nu_hat_zero=nu0, pointwise_error_bound=float(floor),
        sampling_remainder=float(rem), scales=stage.scales,
        stages=stage.stages, requested_stages=stage.requested_stages)


def compare_with_window_only(report: DecayReport, base: DecayReport,
                             flat_cut: float = -0.05) -> dict:
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
    if len(sel) >= 2:
        xs = np.array([0.5 * (math.log2(b.lo) + math.log2(b.hi))
                       for b in sel])
        ys = np.array([math.log2(b.sup_abs) for b in sel])
        base_slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        base_slope = math.nan
    flat = math.isnan(base_slope) or base_slope >= flat_cut
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
    masks: tuple


def _factor_comb(profile: ApproximationProfile, eta: float,
                 scale: int) -> _FactorComb:
    bucket = profile.bucket(eta, scale)
    qs = bucket.members.astype(np.int64)
    psi = profile.psi_values(qs)
    theta = profile.theta_values(qs)
    masks = []
    counts = np.empty(len(qs), dtype=np.int64)
    for i, q in enumerate(qs.tolist()):
        a, b = profile.pair(int(q))
        rs = residue_set(int(q), a, b)
        masks.append(rs.mask)
        counts[i] = rs.count
    return _FactorComb(scale=scale, qs=qs, psi=psi, theta=theta,
                       counts=counts, masks=tuple(masks))


def _comb_value(comb: _FactorComb, bump: BumpSpec, x: np.ndarray) -> np.ndarray:
    """Exact factor density at the points x (vectorized).

    Bumps have radius shrink * psi(q) / q < 1/(2q), so the nearest
    integer to x*q - theta is the only candidate residue.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(comb.qs)):
        q = int(comb.qs[i])
        psi = float(comb.psi[i])
        if psi <= 0.0:
            continue
        y = x * q - float(comb.theta[i])
        pr = np.rint(y)
        d = y - pr
        active = comb.masks[i][pr.astype(np.int64) % q]
        active &= np.abs(d) < bump.shrink * psi
        if active.any():
            out[active] += (bump.value(d[active] / psi)
                            * (q / psi) / float(comb.counts[i]))
    return out / len(comb.qs)


def _comb_witness(comb: _FactorComb, x: float) -> dict | None:
    """A pair (q, p) whose full-radius interval contains x, if any."""
    for i in range(len(comb.qs)):
        q = int(comb.qs[i])
        psi = float(comb.psi[i])
        if psi <= 0.0:
            continue
        y = x * q - float(comb.theta[i])
        pr = round(y)
        p = pr % q
        if comb.masks[i][p] and abs(y - pr) < psi:
            return {"scale": comb.scale, "q": q, "p": int(p),
                    "distance": abs(y - pr) / q, "radius": psi / q}
    return None


def _merge_intervals(lo: np.ndarray, hi: np.ndarray):
    """Merge a lo-sorted interval family into a disjoint union.

    Touching intervals merge.  Returns the pieces' (lo, hi) and the index
    of each piece's first member: a piece starts wherever lo passes the
    running max of every earlier hi.
    """
    if len(lo) == 0:
        return lo, hi, np.zeros(0, dtype=np.intp)
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    return lo[first], np.maximum.reduceat(hi, first), first


def _clip_to_union(a: float, b: float, lo: np.ndarray, hi: np.ndarray):
    """Nonempty pieces of [a, b] inside a disjoint sorted interval union."""
    i = np.searchsorted(hi, a, side="right")
    j = np.searchsorted(lo, b, side="left")
    seg_lo = np.maximum(lo[i:j], a)
    seg_hi = np.minimum(hi[i:j], b)
    keep = seg_lo < seg_hi
    return seg_lo[keep], seg_hi[keep]


class DirectDensity:
    """Series-free evaluator and integrator for a built measure.

    Point values multiply the exact factor combs with the base window.
    Since the product vanishes off the finest factor's support, interval
    masses integrate over its spike intervals, on one of two paths:

    * the rectangular batch, for an isolated unclipped spike that lies
      wholly inside the target: the substitution u = (x - c) q / psi
      turns the spike's own bump into one fixed normalized rule, so the
      bulk of the work is one batch over all such spikes;
    * the knot path, for everything else (merged or clipped spike
      groups, and spikes that cross a target edge): a Gauss-Legendre
      rule between the spline knots of every factor on each piece of
      the group clipped to the target union.
    """

    def __init__(self, stage: MeasureStage, gl_order: int = 8):
        self.stage = stage
        self.bump = stage.config.bump
        self.gl_order = int(gl_order)
        self.combs = [_factor_comb(stage.profile, stage.eta, s)
                      for s in stage.scales]
        self._nodes, self._weights = leggauss(self.gl_order)
        self._u, self._wf = self._own_bump_rule()
        self._geom = self._fine_geometry() if self.combs else None
        self._z = None

    # -- fixed rule for one bump in normalized coordinates ----------------

    def _own_bump_rule(self):
        m = self.bump.order
        w = self.bump.box_halfwidth
        edges = 2.0 * w * (np.arange(m + 1, dtype=float) - m / 2.0)
        mids = 0.5 * (edges[:-1] + edges[1:])
        u = (mids[:, None] + w * self._nodes[None, :]).ravel()
        wf = np.tile(w * self._weights, m) * self.bump.value(u)
        return u, wf

    # -- finest-factor geometry --------------------------------------------

    def _fine_geometry(self):
        """Merged spike intervals of the finest factor, split by kind.

        Each spike is an admissible bump interval clipped to [0, 1]
        (wrapping spikes appear once per side).  Isolated unclipped
        spikes feed the rectangular fast path; merged or clipped ones
        keep an explicit bump list for the generic knot path.
        """
        fine = self.combs[-1]
        cs, qs, psis, cnts = [], [], [], []
        for i in range(len(fine.qs)):
            q = int(fine.qs[i])
            psi = float(fine.psi[i])
            if psi <= 0.0:
                continue
            p = np.nonzero(fine.masks[i])[0].astype(float)
            c = np.mod((p + float(fine.theta[i])) / q, 1.0)
            r = self.bump.shrink * psi / q
            for shift in (0.0, 1.0, -1.0):
                cc = c + shift
                live = (cc + r > 0.0) & (cc - r < 1.0)
                if live.any():
                    cs.append(cc[live])
                    qs.append(np.full(int(live.sum()), q, dtype=float))
                    psis.append(np.full(int(live.sum()), psi))
                    cnts.append(np.full(int(live.sum()),
                                        float(fine.counts[i])))
        c = np.concatenate(cs)
        q = np.concatenate(qs)
        psi = np.concatenate(psis)
        cnt = np.concatenate(cnts)
        r = self.bump.shrink * psi / q
        lo = np.maximum(c - r, 0.0)
        hi = np.minimum(c + r, 1.0)
        order = np.argsort(lo, kind="stable")
        c, q, psi, cnt = c[order], q[order], psi[order], cnt[order]
        lo, hi, r = lo[order], hi[order], r[order]

        merged_lo, merged_hi, first = _merge_intervals(lo, hi)
        ends = np.r_[first[1:], len(lo)]
        clipped = (c - r < 0.0) | (c + r > 1.0)
        single = (ends - first == 1) & ~clipped[first]
        slow = [(float(merged_lo[g]), float(merged_hi[g]),
                 tuple((float(c[k]), float(q[k]), float(psi[k]),
                        float(cnt[k])) for k in range(first[g], ends[g])))
                for g in np.flatnonzero(~single)]
        return {
            "c": c, "q": q, "psi": psi, "cnt": cnt,
            "fast": first[single],
            "slow": slow,
            "n_members": len(fine.qs),
        }

    # -- evaluation ---------------------------------------------------------

    def raw_value(self, x) -> np.ndarray:
        """Unnormalized density: window times every factor comb."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.asarray(self.bump.window_value(x), dtype=float).copy()
        for comb in self.combs:
            live = out > 0.0
            if not live.any():
                break
            vals = np.zeros_like(out)
            vals[live] = _comb_value(comb, self.bump, x[live])
            out = out * vals
        return out

    def value(self, x) -> np.ndarray:
        """Normalized density (unit total mass)."""
        return self.raw_value(x) / self.z

    def _rest_value(self, x: np.ndarray) -> np.ndarray:
        """Window times every comb except the finest."""
        out = np.asarray(self.bump.window_value(x), dtype=float).copy()
        for comb in self.combs[:-1]:
            live = out > 0.0
            if not live.any():
                break
            vals = np.zeros_like(out)
            vals[live] = _comb_value(comb, self.bump, x[live])
            out = out * vals
        return out

    # -- integration ----------------------------------------------------

    def _fast_batch(self, rows: np.ndarray, chunk: int = 16384) -> float:
        if len(rows) == 0:
            return 0.0
        g = self._geom
        total = 0.0
        for start in range(0, len(rows), chunk):
            sel = rows[start:start + chunk]
            rate = g["psi"][sel] / g["q"][sel]
            x = g["c"][sel][:, None] + rate[:, None] * self._u[None, :]
            rest = self._rest_value(np.mod(x, 1.0).ravel())
            per = rest.reshape(len(sel), -1) @ self._wf
            total += float(np.sum(per / (g["cnt"][sel] * g["n_members"])))
        return total

    def _knots_in(self, a: float, b: float, own=()) -> np.ndarray:
        """Spline knots of the window, coarse combs, and listed bumps."""
        m = self.bump.order
        w = self.bump.box_halfwidth
        kk = np.arange(-(m // 2), m // 2 + 1, dtype=float)
        pts = [np.array([a, b])]
        for (c, q, psi, _cnt) in own:
            pts.append(c + (psi / q) * 2.0 * w * kk)
        for comb in self.combs[:-1]:
            for i in range(len(comb.qs)):
                q = int(comb.qs[i])
                psi = float(comb.psi[i])
                if psi <= 0.0:
                    continue
                th = float(comb.theta[i])
                spacing = 2.0 * w * psi / q
                for pr in range(math.floor(a * q - th) - 1,
                                math.ceil(b * q - th) + 2):
                    pts.append((pr + th) / q + spacing * kk)
        pts.append((2.0 * w * kk / self.bump.shrink + 1.0) / 2.0)
        cat = np.concatenate(pts)
        cat = cat[(cat >= a) & (cat <= b)]
        return np.unique(cat)

    def _generic_segment(self, a: float, b: float, own) -> float:
        """Integrate window * coarse combs * listed fine bumps on [a, b]."""
        if b <= a:
            return 0.0
        knots = self._knots_in(a, b, own)
        if len(knots) < 2:
            knots = np.array([a, b])
        x0, x1 = knots[:-1], knots[1:]
        half = 0.5 * (x1 - x0)
        mid = 0.5 * (x1 + x0)
        nodes = (mid[:, None] + half[:, None] * self._nodes[None, :]).ravel()
        vals = self._rest_value(nodes)
        if own:
            fine_vals = np.zeros_like(nodes)
            for (c, q, psi, cnt) in own:
                u = (nodes - c) * q / psi
                inside = np.abs(u) < self.bump.shrink
                if inside.any():
                    fine_vals[inside] += (self.bump.value(u[inside])
                                          * (q / psi) / cnt)
            vals = vals * fine_vals / self._geom["n_members"]
        vals = vals.reshape(len(mid), -1)
        return float(np.sum(half * (vals @ self._weights)))

    @property
    def z(self) -> float:
        """Normalization integral of the unnormalized product."""
        if self._z is None:
            if self._geom is None:
                self._z = 1.0  # the bare window integrates to one
            else:
                total = self._fast_batch(self._geom["fast"])
                for (a, b, own) in self._geom["slow"]:
                    total += self._generic_segment(a, b, own)
                self._z = total
        return self._z

    def measure_of_intervals(self, lo, hi) -> float:
        """Normalized mass of a disjoint sorted interval union in [0, 1]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if len(lo) == 0:
            return 0.0
        g = self._geom
        if g is None:
            total, groups = 0.0, [(0.0, 1.0, ())]
        else:
            # spikes wholly inside one target interval go to the batch;
            # those that cross an edge join the merged groups as
            # one-member groups and take the knot path clipped to the union
            fast = g["fast"]
            r = self.bump.shrink * g["psi"][fast] / g["q"][fast]
            s_lo = g["c"][fast] - r
            s_hi = g["c"][fast] + r
            j = np.searchsorted(lo, s_lo, side="right") - 1
            jj = np.maximum(j, 0)
            inside = (j >= 0) & (lo[jj] <= s_lo) & (s_hi <= hi[jj])
            overlaps = np.flatnonzero(
                ~inside & (np.searchsorted(lo, s_hi, "left")
                           > np.searchsorted(hi, s_lo, "right")))
            total = self._fast_batch(fast[inside])
            groups = [(s_lo[i], s_hi[i],
                       ((float(g["c"][k]), float(g["q"][k]),
                         float(g["psi"][k]), float(g["cnt"][k])),))
                      for i, k in zip(overlaps, fast[overlaps])] + g["slow"]
        for a, b, own in groups:
            for aa, bb in zip(*_clip_to_union(a, b, lo, hi)):
                total += self._generic_segment(float(aa), float(bb), own)
        return total / self.z


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


def support_witness_scan(stage: MeasureStage, n_grid: int = 1 << 14,
                         threshold: float = 0.0) -> dict:
    """Witness check over a regular grid; every positive point must
    produce a witness at every stage."""
    dd = DirectDensity(stage)
    x = (np.arange(n_grid) + 0.5) / n_grid
    dens = dd.raw_value(x)
    positive = np.nonzero(dens > threshold)[0]
    failures = []
    for idx in positive.tolist():
        for comb in dd.combs:
            if _comb_witness(comb, float(x[idx])) is None:
                failures.append({"x": float(x[idx]),
                                 "density": float(dens[idx]),
                                 "scale": comb.scale})
    return {"grid": int(n_grid), "positive_points": int(len(positive)),
            "failures": failures, "zero_failures": not failures}


# ----------------------------------------------------------------------
# interval masses and the upper-bound comparison
# ----------------------------------------------------------------------

def _target_intervals(profile: ApproximationProfile, q: int):
    """Union of full-radius approximation intervals at modulus q."""
    psi = float(profile.psi_values(np.array([q]))[0])
    if psi <= 0.0:
        return np.array([]), np.array([]), 0
    theta = float(profile.theta_of(q))
    a, b = profile.pair(q)
    rs = residue_set(q, a, b)
    if rs.count == 0:
        return np.array([]), np.array([]), 0
    c = np.mod((rs.members.astype(float) + theta) / q, 1.0)
    r = psi / q
    lo, hi = c - r, c + r
    parts_lo = [np.maximum(lo, 0.0),
                np.where(lo < 0.0, lo + 1.0, 2.0),
                np.where(hi > 1.0, 0.0, 2.0)]
    parts_hi = [np.minimum(hi, 1.0),
                np.where(lo < 0.0, 1.0, 2.0),
                np.where(hi > 1.0, hi - 1.0, 2.0)]
    lo = np.concatenate(parts_lo)
    hi = np.concatenate(parts_hi)
    keep = (lo < 1.5) & (hi > lo)
    lo, hi = lo[keep], hi[keep]
    order = np.argsort(lo, kind="stable")
    lo, hi, _ = _merge_intervals(lo[order], hi[order])
    return lo, hi, rs.count


def measure_of_Aq(stage: MeasureStage, q: int, method: str = "direct",
                  evaluator: DirectDensity | None = None,
                  mc_samples: int = 0, seed: int = 0) -> float:
    """Mass the built measure gives the modulus-q approximation set.

    ``direct`` integrates the exact product density piecewise over the
    interval union and is the certified route.  ``series`` pairs the
    stored density block with the closed-form interval transform; it
    inherits the block's truncation error and is kept as a cross-check.
    A positive ``mc_samples`` switches to a seeded stratified
    Monte-Carlo estimate.
    """
    lo, hi, _count = _target_intervals(stage.profile, q)
    if len(lo) == 0:
        return 0.0
    if mc_samples:
        rng = np.random.default_rng(seed)
        dd = evaluator or DirectDensity(stage)
        acc = 0.0
        span = float((hi - lo).sum())
        for a, b in zip(lo, hi):
            n = max(1, int(round(mc_samples * (b - a) / span)))
            xs = rng.uniform(a, b, size=n)
            acc += (b - a) * float(np.mean(dd.value(xs)))
        return acc
    if method == "direct":
        dd = evaluator or DirectDensity(stage)
        return dd.measure_of_intervals(lo, hi)
    if method == "series":
        dens = stage.density
        L = dens.half_bandwidth
        ls = np.arange(1, L + 1, dtype=float)
        hats0 = float((hi - lo).sum())
        phase_hi = np.exp(2j * np.pi * np.outer(ls, hi)).sum(axis=1)
        phase_lo = np.exp(2j * np.pi * np.outer(ls, lo)).sum(axis=1)
        hats = (phase_hi - phase_lo) / (2j * np.pi * ls)
        pos = dens.coeffs[L + 1:]
        return float(dens.coeffs[L].real) * hats0 + 2.0 * float(
            np.sum(pos.real * hats.real - pos.imag * hats.imag))
    raise ValueError(f"unknown method: {method!r}")


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

    def to_dict(self) -> dict:
        return {
            "per_q": [dict(r) for r in self.per_q],
            "constant": self.constant,
            "series_partial": self.series_partial,
            "measured_partial": self.measured_partial,
            "max_increment_beyond": self.max_increment_beyond,
            "increment_cutoff": self.increment_cutoff,
            "s_used": self.s_used,
            "eps_used": self.eps_used,
            "z_direct": self.z_direct,
        }


def borel_cantelli_report(stage: MeasureStage, s: float | None = None,
                          eps: float | None = None, n_max: int = 500,
                          increment_cutoff: int = 400,
                          gl_order: int = 8) -> UpperBoundReport:
    """Per-q masses against 2 psi (#I_q / q) + (psi/q)^(s - eps).

    Records the one empirical constant (largest measured-to-bound
    ratio), partial sums of both sides, and the largest measured
    increment past the cutoff.
    """
    profile = stage.profile
    if s is None:
        s = stage.s_value
    if eps is None:
        eps = stage.eps
    dd = DirectDensity(stage, gl_order=gl_order)
    rows = []
    constant = 0.0
    measured_sum = 0.0
    bound_sum = 0.0
    worst_inc = 0.0
    qs = profile.members()
    qs = qs[qs <= n_max]
    for q in qs.tolist():
        lo, hi, count = _target_intervals(profile, int(q))
        if len(lo) == 0:
            continue
        psi = float(profile.psi_values(np.array([q]))[0])
        measured = measure_of_Aq(stage, int(q), evaluator=dd)
        bound = 2.0 * psi * (count / q) + (psi / q) ** (s - eps)
        ratio = measured / bound if bound > 0.0 else math.inf
        constant = max(constant, ratio)
        measured_sum += measured
        bound_sum += bound
        if q > increment_cutoff:
            worst_inc = max(worst_inc, measured)
        rows.append({"q": int(q), "intervals": int(len(lo)),
                     "total_length": float((hi - lo).sum()),
                     "measured": float(measured), "bound": float(bound),
                     "ratio": float(ratio)})
    return UpperBoundReport(
        per_q=tuple(rows), constant=float(constant),
        series_partial=float(bound_sum),
        measured_partial=float(measured_sum),
        max_increment_beyond=float(worst_inc),
        increment_cutoff=int(increment_cutoff),
        s_used=float(s), eps_used=float(eps), z_direct=float(dd.z))


# ----------------------------------------------------------------------
# report writers
# ----------------------------------------------------------------------

_DECAY_COLUMNS = ("j", "lo", "hi", "samples", "sup_abs", "xi_argmax",
                  "certified")
_UPPER_COLUMNS = ("q", "intervals", "total_length", "measured", "bound",
                  "ratio")


def write_report_json(report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_decay_csv(report: DecayReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(_DECAY_COLUMNS)
        for b in report.bands:
            out.writerow([b.j, repr(b.lo), repr(b.hi), b.samples,
                          repr(b.sup_abs), repr(b.xi_argmax),
                          int(b.certified)])


def write_upper_csv(report: UpperBoundReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(_UPPER_COLUMNS)
        for row in report.per_q:
            out.writerow([row["q"], row["intervals"],
                          repr(row["total_length"]), repr(row["measured"]),
                          repr(row["bound"]), repr(row["ratio"])])
