"""Stagewise construction of the smoothed measure and its coefficient bands.

One stage multiplies the running density by the bucket average

    g_M(x) = (1/#Q) sum over q in the bucket of Phi_q(x),

where Phi_q places the mollifier on every admissible rational (p+theta)/q
at width psi(q)/q.  In frequency space each Phi_q contributes

    c_q(l) = (1/#I_q) * e(-l*theta/q) * S(q, l) * fhat(l*psi(q)/q),

so a factor is assembled divisor by divisor: the divisor-sum form of
S(q, .) touches only frequencies that are multiples of q/lp, which keeps
the cost proportional to the number of nonzero hits rather than to the
band width times the bucket size.

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
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .arith import (
    TWO_PI,
    divisor_sum,
    divisors,
    mobius,
    residue_count,
    squarefree_divisors,
)
from .bump import BumpSpec
from .errors import (ArtifactError, BandwidthBudgetError, ProfileError,
                     WindowExhaustedError)
from .profile import ApproximationProfile
from .series import TruncatedFourierSeries, constant_series, series_multiply

_ARTIFACT_MAGIC = b"DFMS"
_ARTIFACT_VERSION = 1
_RECORD = np.dtype([("l", "<i8"), ("re", "<f8"), ("im", "<f8")])

# assemble_line works through a half-line in sequential chunks of this many
# frequencies to bound its per-(member, hit) temporaries: one pass over the
# 1.84M-long M=16 half-line takes gm_series from 147 to 221 MB peak RSS
_CHUNK = 1 << 20


# ----------------------------------------------------------------------
# per-denominator assembly data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Member:
    q: int
    rate: float                 # psi(q) / q
    count: int                  # #I_q
    hits: tuple                 # (stride g, coef mu(lp)*g/#I_q, phase shift)
    sigma_divisors: tuple       # (d, sigma(d)) over divisors of q


def _member_data(profile: ApproximationProfile, members: np.ndarray) -> list[_Member]:
    psi = profile.psi_values(members)
    data = []
    for q_np, p in zip(members, psi):
        q = int(q_np)
        a, b = profile.pair(q)
        n_i = residue_count(q, b)
        theta = profile.theta_of(q)
        hits = []
        for lp in squarefree_divisors(q):
            if math.gcd(lp, b) != 1:
                continue
            g = q // lp
            p0 = (-a * pow(b, -1, lp)) % lp
            # frequency l = g*j carries phase e(-j*(theta + p0)/lp)
            hits.append((g, mobius(lp) * g / n_i, (theta + p0) / lp))
        sig = tuple((d, divisor_sum(d)) for d in divisors(q))
        data.append(_Member(q=q, rate=float(p) / q, count=n_i,
                            hits=tuple(hits), sigma_divisors=sig))
    return data


def _line_segment(data: list[_Member], bump: BumpSpec,
                  l_lo: int, l_hi: int) -> np.ndarray:
    """Unnormalized coefficient sum over members for l in [l_lo, l_hi]."""
    out = np.zeros(l_hi - l_lo + 1, dtype=np.complex128)
    for mem in data:
        for g, coef, shift in mem.hits:
            j0 = -((-l_lo) // g)        # ceil(l_lo / g)
            j1 = l_hi // g
            if j1 < j0:
                continue
            j = np.arange(j0, j1 + 1, dtype=np.float64)
            u = -shift * j
            u -= np.round(u)
            vals = coef * np.exp((TWO_PI * 1j) * u)
            vals *= bump.fourier(mem.rate * g * j)
            idx = (g * np.arange(j0, j1 + 1, dtype=np.int64)) - l_lo
            out[idx] += vals
    return out


def assemble_line(data: list[_Member], bump: BumpSpec, l_lo: int,
                  l_hi: int) -> np.ndarray:
    """Bucket-averaged coefficient line on the contiguous window [l_lo, l_hi].

    Every in-window term of every divisor hit is summed; the window is
    worked through in sequential ``_CHUNK``-long pieces, each summed in
    the same order, so the result does not depend on where a chunk ends.
    """
    if l_hi < l_lo:
        raise ValueError("empty frequency window")
    return np.concatenate([
        _line_segment(data, bump, a, min(a + _CHUNK - 1, l_hi))
        for a in range(l_lo, l_hi + 1, _CHUNK)]) / len(data)


def _mirror_half_line(half: np.ndarray) -> np.ndarray:
    """Extend coefficients on [0, L] to [-L, L] by Hermitian symmetry."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def envelope_tail(data: list[_Member], bump: BumpSpec, half_bandwidth: int) -> float:
    """Certified l1 bound on the bucket average outside [-L, L].

    Uses |S(q, l)| <= sigma(gcd(q, l)) and groups frequencies by the
    divisor d | q they share with q, so each group is a lacunary
    progression against the kernel envelope.
    """
    total = 0.0
    for mem in data:
        per_q = 0.0
        for d, sig in mem.sigma_divisors:
            per_q += sig * bump.envelope_tail_sum(mem.rate * d,
                                                  half_bandwidth // d)
        total += per_q / mem.count
    return 2.0 * total / len(data)


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
    if envelope_tail(data, bump, cap) > tail_tol:
        return cap, envelope_tail(data, bump, cap), False
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if envelope_tail(data, bump, mid) <= tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo, envelope_tail(data, bump, lo), True


# ----------------------------------------------------------------------
# series-level assembly
# ----------------------------------------------------------------------

def h0_series(bump: BumpSpec, tail_tol: float = 1e-13) -> TruncatedFourierSeries:
    """Integer-frequency series of the unit-interval window h0."""
    L = 1
    while 2.0 * bump.window_tail_sum(L) > tail_tol:
        L += 1
        if L > 10**6:
            raise ValueError("window tail does not reach the tolerance")
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
                  xi_grid: np.ndarray, kernel_halfwidth: int = 64) -> GapResult:
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
                      kernel_halfwidth: int = 64) -> tuple[GapResult, list]:
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

@dataclass(frozen=True)
class BuildConfig:
    """Knobs of the stage builder; defaults match the reference pipeline."""
    xi_max: int = 65536
    samples_per_band: int = 32
    tail_tol: float = 1e-8
    bandwidth_budget: int = 1 << 20
    bump: BumpSpec = field(default_factory=BumpSpec)
    kernel_halfwidth: int = 64
    band_margin: int = 512


@dataclass(frozen=True)
class MeasureStage:
    """Finished build artifact: two coefficient blocks plus certificates.

    ``density`` is the series of the full normalized density (g-product
    times the window h0); ``gfactors`` is the series of the periodic
    g-product alone, which the analyzer pairs with the closed-form window
    transform to evaluate the measure transform off the integers.  Both
    are normalized by the same constant so the density has mean exactly 1.
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
    density: TruncatedFourierSeries
    gfactors: TruncatedFourierSeries
    normalization: float
    uniform_error_bound: float
    nonneg_min: float

    @property
    def complete(self) -> bool:
        return self.stages == self.requested_stages

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
            "density_tail_bound": self.density.tail_bound,
            "gfactors_tail_bound": self.gfactors.tail_bound,
            "config": asdict(self.config),
            "blocks": {"density": len(self.density.coeffs),
                       "gfactors": len(self.gfactors.coeffs)},
        }

    def save(self, path) -> None:
        """Write the stage to one self-describing binary file."""
        header = json.dumps(self._header(), sort_keys=True,
                            separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(_ARTIFACT_MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for series in (self.density, self.gfactors):
                L = series.half_bandwidth
                rec = np.empty(len(series.coeffs), dtype=_RECORD)
                rec["l"] = np.arange(-L, L + 1)
                rec["re"] = series.coeffs.real
                rec["im"] = series.coeffs.imag
                fh.write(rec.tobytes())

    @staticmethod
    def load(path) -> "MeasureStage":
        """Read a stage written by ``save``.

        Raises ``ArtifactError`` for anything but one intact artifact: a
        bad magic, an undecodable or malformed header, an unsupported
        format, a short or corrupt coefficient block, or trailing bytes.
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
        if not isinstance(header, dict) \
                or header.get("format") != _ARTIFACT_VERSION:
            raise ArtifactError("unsupported artifact format")
        blocks = {}
        for name in ("density", "gfactors"):
            n = int(header["blocks"][name])
            if n < 1 or pos + n * _RECORD.itemsize > len(raw):
                raise ArtifactError(f"{name} block cut short")
            rec = np.frombuffer(raw, dtype=_RECORD, count=n, offset=pos)
            pos += n * _RECORD.itemsize
            L = (n - 1) // 2
            if not np.array_equal(rec["l"], np.arange(-L, L + 1)):
                raise ArtifactError("corrupt coefficient block")
            blocks[name] = rec["re"] + 1j * rec["im"]
        if pos != len(raw):
            raise ArtifactError(f"{len(raw) - pos} trailing bytes")
        # a missing key must not silently take its default
        cfg_d, keys = header["config"], asdict(BuildConfig())
        if set(cfg_d) != set(keys) or set(cfg_d["bump"]) != set(keys["bump"]):
            raise ArtifactError("header config keys differ from BuildConfig")
        cfg = BuildConfig(**{**cfg_d, "bump": BumpSpec(**cfg_d["bump"])})
        return MeasureStage(
            profile=ApproximationProfile.from_descriptor(header["profile"]),
            eta=header["eta"], eps=header["eps"], stages=header["stages"],
            requested_stages=header["requested_stages"],
            config=cfg, s_value=header["s_value"], s_mode=header["s_mode"],
            scales=tuple(header["scales"]), c_stab=header["c_stab"],
            gap_log=tuple(tuple(stage) for stage in header["gap_log"]),
            factor_summaries=tuple(tuple(sorted(f.items()))
                                   for f in header["factors"]),
            density=TruncatedFourierSeries(
                blocks["density"], header["density_tail_bound"]),
            gfactors=TruncatedFourierSeries(
                blocks["gfactors"], header["gfactors_tail_bound"]),
            normalization=header["normalization"],
            uniform_error_bound=header["uniform_error_bound"],
            nonneg_min=header["nonneg_min"])


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
    density_full = TruncatedFourierSeries(current.coeffs / z,
                                          current.tail_bound / z)
    gfactors_full = TruncatedFourierSeries(gprod.coeffs / z,
                                           gprod.tail_bound / z)

    # uniform certified error of the banded density (and of transform
    # values computed from it): each factor's envelope tail multiplies a
    # sup bound of the product of all other factors
    series_list = [f.series for f in factors]
    err = h0.tail_bound * _product_sup_bound(series_list)
    for i, f in enumerate(series_list):
        others = series_list[:i] + series_list[i + 1:] + [h0]
        err += f.tail_bound * _product_sup_bound(others)
    uniform_error = err / z

    grid_vals = density_full.evaluate_on_regular_grid(1 << 16).real
    nonneg_min = float(grid_vals.min())

    export = (cfg.xi_max + cfg.kernel_halfwidth + cfg.band_margin
              + h0.half_bandwidth)
    return MeasureStage(
        profile=profile, eta=float(eta), eps=float(eps),
        stages=len(factors), requested_stages=requested,
        config=cfg, s_value=s_res.value, s_mode=s_res.mode,
        scales=tuple(f.scale for f in factors), c_stab=c_stab,
        gap_log=tuple(gap_log),
        factor_summaries=tuple(tuple(sorted(f.summary().items()))
                               for f in factors),
        density=density_full.slice_to(min(export, density_full.half_bandwidth)),
        gfactors=gfactors_full.slice_to(min(export, gfactors_full.half_bandwidth)),
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
    if not bump.check_smoothness(s_res.value):
        raise ProfileError(
            f"kernel smoothness {bump.smoothness} too low for exponent "
            f"{s_res.value:.4f}; need smoothness > s + 4")
    if stages < 0:
        raise ProfileError("stage count must be nonnegative")

    entries = profile.scale_set(eta).admissible()
    xi_grid = build_xi_grid(cfg.xi_max, cfg.samples_per_band)
    h0 = h0_series(bump, min(cfg.tail_tol, 1e-13))
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
