"""Transform sampling, decay reports, support witnesses, interval masses."""
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfourier import (
    ApproximationProfile,
    BumpSpec,
    DecayBand,
    DecayReport,
    borel_cantelli_report,
    build_measure,
    compare_with_window_only,
    decay_report,
    measure_of_Aq,
    pointwise_error_bound,
    power_law_profile,
    predicted_dimension,
    sampling_remainder,
    support_witness_scan,
    support_witnesses,
    transform_samples,
    write_csv,
    write_decay_csv,
    write_report_json,
    write_upper_csv,
)
from dfourier import analyze
from dfourier.analyze import (DirectDensity, _clip_to_union, _merge_intervals,
                              _target_unions)
from dfourier.arith import residue_set
from dfourier.measure import BuildConfig, build_xi_grid


@pytest.fixture(scope="module")
def r0(st0):
    return decay_report(st0)


@pytest.fixture(scope="module")
def r1(st1):
    return decay_report(st1)


@pytest.fixture(scope="module")
def r2(st2):
    return decay_report(st2)


@pytest.fixture(scope="module")
def dd1(st1):
    return DirectDensity(st1)


# ----------------------------------------------------------------------
# transform sampling
# ----------------------------------------------------------------------

def test_transform_at_integers_matches_stored_density(st0, st1, density):
    # window-only: the sampled line IS the stored block
    ns = np.arange(0, 58, dtype=float)
    got = transform_samples(st0, ns)
    dens = density(st0)
    want = np.array([dens.coeff(int(n)) for n in ns])
    assert np.array_equal(got, want)
    ns = np.arange(0, 201, dtype=float)
    got = transform_samples(st1, ns)
    dens = density(st1)
    want = np.array([dens.coeff(int(n)) for n in ns])
    assert float(np.max(np.abs(got - want))) < 1e-14


def test_transform_matches_exact_windowed_sum(st1, r1):
    # Far-out samples are ~5e-7 against a block of l1 norm ~1, so each one
    # must be accurate relative to its own terms, not to the whole block.
    # Oracle: the same 2 d_h + 1 products of stored floats, summed exactly.
    gf, d_h = st1.gfactors, st1.config.kernel_halfwidth
    L = gf.half_bandwidth
    x0 = next(b for b in r1.bands if b.j == 12).xi_argmax
    xi = x0 + np.array([-1.0, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    got = transform_samples(st1, xi)
    for x, g in zip(xi, got):
        n, frac = math.floor(x), x - math.floor(x)
        kern = BumpSpec().window_kernel(frac, d_h)
        re = im = Fraction(0)
        for m, k in zip(range(-d_h, d_h + 1), kern):
            if abs(n - m) <= L:
                c = gf.coeffs[n - m + L]
                a, b, kr, ki = map(Fraction, (c.real, c.imag, k.real, k.imag))
                re += a * kr - b * ki
                im += a * ki + b * kr
        want = complex(float(re), float(im))
        assert abs(g - want) <= 1e-13 * abs(want)


def test_transform_is_hermitian(st1):
    xi = np.array([0.25, 1.75, 33.5, 1000.25])
    plus = transform_samples(st1, xi)
    minus = transform_samples(st1, -xi)
    assert float(np.max(np.abs(minus - np.conj(plus)))) < 1e-13


def test_transform_rejects_uncovered_frequency(st0):
    # st0 stores no periodic part, so coverage ends at the kernel cut
    with pytest.raises(ValueError, match="coverage 64"):
        transform_samples(st0, np.array([400.0]))
    transform_samples(st0, np.array([64.0]))  # boundary itself is fine


def test_total_mass_at_zero(st0, st1, st2):
    assert complex(transform_samples(st0, np.array([0.0]))[0]) == 1.0 + 0.0j
    for st in (st1, st2):
        v = complex(transform_samples(st, np.array([0.0]))[0])
        assert v == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# certified error terms
# ----------------------------------------------------------------------

def test_sampling_remainder_frozen(st1, st2):
    assert sampling_remainder(st1) == pytest.approx(3.587610754515098e-14,
                                                    rel=1e-9)
    assert sampling_remainder(st2) == pytest.approx(3.576669289868045e-14,
                                                    rel=1e-9)


def test_pointwise_floor_frozen(st0, st1, st2):
    # no factors: the floor is exactly the kernel-cut remainder
    assert pointwise_error_bound(st0, 64.0) == sampling_remainder(st0)
    assert pointwise_error_bound(st0, 64.0) == pytest.approx(
        2.0427574000287833e-15, rel=1e-9)
    for st, floor in ((st1, 2.5295283055197997e-08),
                      (st2, 0.00027238338261970226)):
        assert pointwise_error_bound(st, float(st.config.xi_max)) == \
            pytest.approx(floor, rel=1e-9)


def test_one_stage_floor_bounds_the_distance_to_a_finer_build(
        reference_profile, st1, capsys):
    # the truth for the truncation: the same build at a much smaller
    # tail_tol; both floors hold on st1's coverage, so the two samples
    # lie within their sum of each other
    fine = build_measure(reference_profile, eta=0.3, eps=0.05, stages=1,
                         config=BuildConfig(tail_tol=1e-11))
    assert fine.scales == st1.scales
    cfg = st1.config
    coverage = st1.gfactors.half_bandwidth + cfg.kernel_halfwidth
    assert fine.gfactors.half_bandwidth > st1.gfactors.half_bandwidth
    grid = build_xi_grid(cfg.xi_max, cfg.samples_per_band)
    grid = grid[grid <= coverage]
    diff = float(np.max(np.abs(transform_samples(st1, grid)
                               - transform_samples(fine, grid))))
    top = min(float(cfg.xi_max), float(coverage))
    floor = pointwise_error_bound(st1, top) + pointwise_error_bound(fine, top)
    with capsys.disabled():
        print(f"\none-stage floor {floor:.3g} against the largest observed "
              f"difference {diff:.3g} over {grid.size} points: slack "
              f"{floor / diff if diff else math.inf:.3g}")
    assert diff <= floor


def test_pointwise_floor_grows_with_reach(st1):
    assert (pointwise_error_bound(st1, 256.0)
            <= pointwise_error_bound(st1, float(st1.config.xi_max)))


# ----------------------------------------------------------------------
# decay reports
# ----------------------------------------------------------------------

def test_window_only_report(r0):
    assert r0.fitted_slope == pytest.approx(-12.840482662386986, rel=1e-12)
    assert r0.fit_bands_used == (4, 5)
    assert r0.nu_hat_zero == 1.0
    assert r0.target_exponent == pytest.approx(0.25, rel=1e-15)
    assert r0.predicted_dimension == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert len(r0.bands) == 16
    sups = {
        0: 0.8716281486951462,
        1: 0.5749850915986204,
        2: 0.10233499310922718,
        3: 2.4984129177057336e-05,
        4: 1.0922316596611767e-08,
        5: 1.4891701446209704e-12,
    }
    for b in r0.bands:
        if b.j in sups:
            assert b.certified
            assert b.sup_abs == pytest.approx(sups[b.j], rel=1e-9)
        else:
            # beyond the stored coverage nothing is certified
            assert not b.certified
    assert r0.bands[4].xi_argmax == 17.0
    assert r0.bands[6].samples <= 1
    assert r0.bands[7].samples == 0


def test_one_stage_report(r1):
    assert r1.fitted_slope == pytest.approx(-1.8231030964255324, rel=1e-12)
    assert r1.fit_bands_used == tuple(range(4, 13))
    assert r1.nu_hat_zero == pytest.approx(1.0, abs=1e-12)
    assert r1.pointwise_error_bound == pytest.approx(2.5295283055197997e-08,
                                                     rel=1e-9)
    assert r1.scales == (4,)
    assert r1.stages == 1 and r1.requested_stages == 1


def test_two_stage_report(r2):
    assert r2.fitted_slope == pytest.approx(-0.5928593151874392, rel=1e-12)
    assert r2.fit_bands_used == tuple(range(4, 15))
    assert r2.nu_hat_zero == pytest.approx(1.0, abs=1e-12)
    assert r2.scales == (4, 256)
    sups = {0: 0.8604278471746362, 8: 0.3908976859766833,
            14: 0.027504700253044616}
    for b in r2.bands:
        assert b.certified
        if b.j in sups:
            assert b.sup_abs == pytest.approx(sups[b.j], rel=1e-9)


def test_fit_uses_only_certified_bands(r0, r1, r2):
    for rep in (r0, r1, r2):
        certified = {b.j for b in rep.bands if b.certified}
        assert set(rep.fit_bands_used) <= certified


def test_comparison_against_window_only(r0, r1, r2):
    for rep in (r1, r2):
        cmp = compare_with_window_only(rep, r0)
        assert cmp["base_slope_restricted"] == pytest.approx(
            -12.840482662386986, rel=1e-12)
        assert cmp["base_flat_on_fit_bands"] is False
        assert cmp["ordering_applies"] is False
        assert cmp["ordered"] is None
        assert cmp["staged_slope"] == rep.fitted_slope


def test_comparison_flat_branch(r1):
    # synthetic window-only report that is flat on the staged fit bands
    bands = tuple(
        DecayBand(j=j, lo=float(1 << j), hi=float(1 << (j + 1)), samples=32,
                  sup_abs=0.25, xi_argmax=float(1 << j), certified=True)
        for j in range(16))
    flat_base = DecayReport(
        bands=bands, fitted_slope=0.0, fit_bands_used=(4, 5),
        target_exponent=0.25, predicted_dimension=2.0 / 3.0, nu_hat_zero=1.0,
        pointwise_error_bound=0.0, sampling_remainder=0.0, scales=(),
        stages=0, requested_stages=0)
    cmp = compare_with_window_only(r1, flat_base)
    assert cmp["base_slope_restricted"] == pytest.approx(0.0, abs=1e-12)
    assert cmp["ordering_applies"] is True
    assert cmp["ordered"] is True


def test_predicted_dimension_closed_form(reference_profile):
    assert predicted_dimension(reference_profile) == pytest.approx(
        2.0 / 3.0, rel=1e-15)
    # steep profiles cap at full dimension
    assert predicted_dimension(power_law_profile(0.5, 1000)) == 1.0


# ----------------------------------------------------------------------
# direct evaluation and witnesses
# ----------------------------------------------------------------------

def test_direct_normalization_agrees(st0, st1, st2, dd1):
    assert DirectDensity(st0).z == 1.0
    assert dd1.z == pytest.approx(st1.normalization, abs=1e-12)
    assert DirectDensity(st2).z == pytest.approx(st2.normalization, rel=1e-12)


def test_witnesses_at_a_support_point(st1, dd1):
    x = (1 + 0.3) / 5
    out = support_witnesses(st1, x, evaluator=dd1)
    assert out["verdict"] == "witnessed"
    assert out["density"] == pytest.approx(0.8458892132891049, rel=1e-12)
    (w,) = out["witnesses"]
    assert w["scale"] == 4
    assert w["q"] == 5
    assert w["p"] == 1
    # the exact offset of the float x from (1 + theta)/5, not the
    # rounding of x*q
    assert w["distance"] == float(abs(Fraction(x) * 5 - Fraction(0.3) - 1) / 5)
    assert w["radius"] == pytest.approx(0.008, rel=1e-12)


def test_witnesses_refuse_off_support(st1, dd1):
    out = support_witnesses(st1, 0.5, evaluator=dd1)
    assert out["verdict"] == "below-threshold"
    assert out["density"] == 0.0
    assert out["witnesses"] == []


def test_witness_scan_clean(st1, st2):
    scan = support_witness_scan(st1, threshold=st1.uniform_error_bound)
    assert scan["grid"] == 1 << 14
    assert scan["positive_points"] == 1912
    assert scan["zero_failures"] is True
    assert scan["failures"] == []
    # the two-stage certified threshold is too coarse to flag anything,
    # which the scan must report as vacuously clean, not as a failure
    scan2 = support_witness_scan(st2, threshold=st2.uniform_error_bound)
    assert scan2["positive_points"] == 0
    assert scan2["zero_failures"] is True


def test_witness_scan_failures_match_the_per_point_route(st1, dd1):
    # at threshold -1 every grid point counts, so the off-support ones
    # reach the scan's failure branch; on every 16th point the scan fails
    # exactly where support_witnesses does, with its density and scale
    scan = support_witness_scan(st1, threshold=-1.0)
    assert scan["positive_points"] == scan["grid"]
    assert len(scan["failures"]) == 13_944
    assert scan["zero_failures"] is False
    xs = ((np.arange(scan["grid"]) + 0.5) / scan["grid"])[::16].tolist()
    want = [f for f in scan["failures"] if f["x"] in set(xs)]
    got = []
    for x in xs:
        out = support_witnesses(st1, x, threshold=-1.0, evaluator=dd1)
        if out["verdict"] != "witnessed":
            assert out["verdict"] == "missing-witness"
            got.append({"x": out["x"], "density": out["density"],
                        "scale": dd1.combs[len(out["witnesses"])].scale})
    assert len(got) == 872
    assert got == want


def test_witnesses_at_two_stage_spike_centres(st2):
    # the grid scan above finds no positive point at two stages (spikes
    # are ~1e-8 wide), so sample the finest factor's spike centres instead
    dd = DirectDensity(st2)
    fine = dd.combs[-1]
    centres = np.concatenate([
        np.mod((np.flatnonzero(mask) + th) / q, 1.0)
        for q, th, mask in zip(fine.qs, fine.theta,
                               _admissible_masks(st2.profile, fine))])
    centres = np.sort(centres[dd.raw_value(centres) > 0.0])
    assert len(centres) > 10_000
    for c in centres[np.linspace(0, len(centres) - 1, 200).astype(int)]:
        out = support_witnesses(st2, float(c), threshold=0.0, evaluator=dd)
        assert out["verdict"] == "witnessed", out
        assert [w["scale"] for w in out["witnesses"]] == list(st2.scales)


def _admissible_masks(profile, comb):
    # each member's admissible numerators from the definition, not the comb
    return [residue_set(q, *profile.pair(q)).mask for q in comb.qs.tolist()]


def _exact_comb_value(comb, masks, bump, x):
    # the comb at x with the spike offset x*q - theta - p in exact
    # rationals, rounded once to u = offset / psi
    X, total = Fraction(x), Fraction(0)
    for q, psi, theta, mask, count in zip(
            comb.qs.tolist(), comb.psi.tolist(), comb.theta.tolist(),
            masks, comb.counts.tolist()):
        y = X * q - Fraction(theta)
        d = y - round(y)
        if mask[round(y) % q] and abs(d) < bump.shrink * psi:
            u = float(d / Fraction(psi))
            total += Fraction(bump.value(u)) * q / Fraction(psi) / count
    return total / len(comb.qs)


def test_raw_value_matches_exact_offsets_at_two_stages(st2):
    # 200 points spread inside the surviving fine spikes (~1e-8 wide):
    # the offset must not inherit the rounding of x*q (off by 1e-5
    # relative when x*q is formed in floats)
    dd = DirectDensity(st2)
    coarse, fine = dd.combs
    masks = [_admissible_masks(st2.profile, comb) for comb in dd.combs]
    c = np.concatenate([np.mod((np.flatnonzero(mask) + th) / q, 1.0)
                        for q, th, mask in zip(fine.qs, fine.theta,
                                               masks[1])])
    rate = np.repeat(fine.psi / fine.qs, fine.counts)
    u = np.random.default_rng(1).uniform(-0.95, 0.95, len(c))
    x = c + rate * u * dd.bump.shrink
    x = np.sort(x[dd.raw_value(x) > 0.0])
    xs = x[np.linspace(0, len(x) - 1, 200).astype(int)]
    want = np.array([float(Fraction(float(dd.bump.window_value(v)))
                           * _exact_comb_value(coarse, masks[0], dd.bump, v)
                           * _exact_comb_value(fine, masks[1], dd.bump, v))
                     for v in xs])
    assert np.all(want > 0.0)
    np.testing.assert_allclose(dd.raw_value(xs), want, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------------
# interval masses
# ----------------------------------------------------------------------

# reference implementations for the interval toolkit: plain loops that
# walk the intervals one at a time
def _merge_loop(lo, hi):
    out_lo, out_hi = [lo[0]], [hi[0]]
    for a, b in zip(lo[1:], hi[1:]):
        if a <= out_hi[-1]:
            out_hi[-1] = max(out_hi[-1], b)
        else:
            out_lo.append(a)
            out_hi.append(b)
    return np.asarray(out_lo), np.asarray(out_hi)


def _intersect_loop(alo, ahi, blo, bhi):
    out_lo, out_hi = [], []
    i = j = 0
    while i < len(alo) and j < len(blo):
        lo = max(alo[i], blo[j])
        hi = min(ahi[i], bhi[j])
        if lo < hi:
            out_lo.append(lo)
            out_hi.append(hi)
        if ahi[i] <= bhi[j]:
            i += 1
        else:
            j += 1
    return np.asarray(out_lo), np.asarray(out_hi)


# endpoints on a coarse grid so that touching, nested, repeated and
# zero-length intervals all come up often
_ends = st.integers(0, 40).map(lambda k: k / 8.0)
_family = st.lists(st.tuples(_ends, _ends).map(sorted), min_size=1,
                   max_size=30)


@given(family=_family, clips=_family)
def test_interval_toolkit_matches_loops(family, clips):
    pairs = sorted(family, key=lambda p: p[0])
    m_lo, m_hi = _merge_intervals(np.array([p[0] for p in family]),
                                  np.array([p[1] for p in family]))
    want_lo, want_hi = _merge_loop([p[0] for p in pairs],
                                   [p[1] for p in pairs])
    assert np.array_equal(m_lo, want_lo) and np.array_equal(m_hi, want_hi)
    # many [a, b] at once, unsorted and overlapping, each against the loop
    a = np.array([c[0] for c in clips])
    b = np.array([c[1] for c in clips])
    owner, piece, got_lo, got_hi = _clip_to_union(a, b, m_lo, m_hi)
    assert np.all(np.diff(owner) >= 0)
    assert np.all((m_lo[piece] <= got_lo) & (got_hi <= m_hi[piece]))
    for k in range(len(a)):
        want_lo, want_hi = _intersect_loop([a[k]], [b[k]], m_lo, m_hi)
        assert np.array_equal(got_lo[owner == k], want_lo)
        assert np.array_equal(got_hi[owner == k], want_hi)


def _one_union(profile, q):
    # one q's row of the stacked unions, without its padding
    lo, hi, n, count = _target_unions(profile, np.array([q]))
    return lo[0, :n[0]], hi[0, :n[0]], int(count[0])


@pytest.mark.parametrize("theta", [0.0005, 0.9995])
def test_target_intervals_wrap_across_the_ends(theta):
    # the p = 0 interval crosses 0 (small theta) or the p = q - 1 one
    # crosses 1 (theta near 1); either must come back at both ends
    prof = ApproximationProfile(q_min=2, q_max=1000, tau=2.0,
                                theta_value=theta,
                                coprime_kind="unrestricted")
    for q in (5, 12):
        lo, hi, count = _one_union(prof, q)
        assert count == q and lo[0] == 0.0 and hi[-1] == 1.0
        assert (hi - lo).sum() == pytest.approx(2.0 * count * q ** -3.0,
                                                rel=1e-12)


def _target_loop(profile, q):
    # oracle: every wrap copy of every residue in the one-q order (all
    # unshifted, then +1, then -1), stably sorted by lo and merged
    psi = float(profile.psi_values(np.array([q]))[0])
    if psi <= 0.0:
        return np.array([]), np.array([]), 0
    rs = residue_set(q, *profile.pair(q))
    theta = profile.theta_values([q])[0]
    c = np.mod((rs.members.astype(float) + theta) / q, 1.0)
    r = psi / q
    pairs = [(max(ci - r + shift, 0.0), min(ci + r + shift, 1.0))
             for shift in (0.0, 1.0, -1.0) for ci in c.tolist()
             if ci - r + shift < 1.0 and ci + r + shift > 0.0]
    pairs.sort(key=lambda t: t[0])
    lo, hi = _merge_loop([t[0] for t in pairs], [t[1] for t in pairs])
    return lo, hi, rs.count


# psi at the largest double below 1/2: neighbouring cells of one q meet in
# floating point, so the union merges them
PSI_NEAR_HALF = ApproximationProfile(
    q_min=2, q_max=64, psi_kind="table",
    psi_table={q: 0.49999999999999994 for q in range(2, 65)},
    coprime_kind="unrestricted")


@pytest.mark.parametrize("profile", [
    ApproximationProfile(q_min=2, q_max=200, tau=2.0, theta_value=0.0005,
                         coprime_kind="unrestricted"),
    power_law_profile(2.0, 200, q_min=2, theta=0.9995),
    power_law_profile(2.5, 200, q_min=2, theta=0.3),
    ApproximationProfile(q_min=2, q_max=120, coprime_kind="table",
                         pair_table={6: (1, 2), 9: (2, 3), 10: (3, 4),
                                     15: (7, 5), 100: (1, 10)}),
    ApproximationProfile(q_min=2, q_max=40, psi_kind="table",
                         psi_table={2: 0.1, 3: 0.0, 5: 0.2, 7: 0.0,
                                    11: 0.3, 12: 0.45, 40: 0.01},
                         theta_kind="table",
                         theta_table={5: 0.99, 11: 0.01, 12: 0.5}),
    PSI_NEAR_HALF,
], ids=["theta-near-0", "theta-near-1", "tau-2.5", "pair-table",
        "psi-table-with-zero", "psi-near-half"])
def test_target_unions_match_one_q_loop(profile):
    qs = profile.members()
    lo, hi, n, count = _target_unions(profile, qs)
    assert lo.shape == hi.shape == (len(qs), n.max())
    for t, q in enumerate(qs.tolist()):
        want_lo, want_hi, want_count = _target_loop(profile, q)
        assert n[t] == len(want_lo) and count[t] == want_count
        assert np.array_equal(lo[t, :n[t]], want_lo)
        assert np.array_equal(hi[t, :n[t]], want_hi)
        assert not np.any(lo[t, n[t]:] < hi[t, n[t]:])     # empty padding
        one_lo, one_hi, one_count = _one_union(profile, q)
        assert np.array_equal(one_lo, want_lo)
        assert np.array_equal(one_hi, want_hi) and one_count == want_count
    if profile.psi_kind == "table" and 0.0 in dict(profile.psi_table).values():
        assert 0 in n and 0 in count          # the zero radii stay empty


def test_target_unions_merge_meeting_cells():
    # the psi-near-half row above is a real merge: fewer pieces than cells
    lo, hi, n, count = _target_unions(PSI_NEAR_HALF, PSI_NEAR_HALF.members())
    assert n.sum() < count.sum()


def _composite_mass(dd, lo, hi, h=2.0 ** -17):
    # oracle: 8-point Gauss-Legendre on panels of width <= h, blind to
    # every knot; h is ~1/20 of the narrowest one-stage bump piece
    nodes, weights = np.polynomial.legendre.leggauss(8)
    total = 0.0
    for a, b in zip(lo, hi):
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / h)) + 1)
        half = 0.5 * np.diff(edges)
        x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
        total += float(np.sum(half * (dd.raw_value(x.ravel()).reshape(
            x.shape) @ weights)))
    return total


# unions whose ends fall anywhere, so they cut spikes, and often on 0 or 1
_union_ends = st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0)),
                       min_size=2, max_size=8, unique=True)


@settings(max_examples=25)
@given(ends=_union_ends)
def test_interval_mass_matches_composite_quadrature(st0, st1, dd1, ends):
    ends = sorted(ends)[:len(ends) // 2 * 2]
    lo, hi = np.array(ends[0::2]), np.array(ends[1::2])
    for stage, dd in ((st0, DirectDensity(st0)), (st1, dd1)):
        want = _composite_mass(dd, lo, hi) / stage.normalization
        # abs: a sliver of a bump's tail, where the knot-blind oracle
        # loses its relative accuracy
        assert dd.measure_of_intervals(lo, hi) == pytest.approx(
            want, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("name", ["st1", "st2"])
def test_spike_mass_is_batch_independent(request, name):
    dd = DirectDensity(request.getfixturevalue(name))
    s = dd.bump.shrink
    rng = np.random.default_rng(7)
    n = len(dd._c)
    rows = np.r_[np.arange(0, n, max(1, n // 60)),
                 rng.integers(0, n, 120)]
    ua = np.full(len(rows), -s)
    ub = np.full(len(rows), s)
    cut = np.arange(len(rows)) >= len(rows) - 120
    ends = np.sort(rng.uniform(-s, s, (2, 120)), axis=0)
    ua[cut], ub[cut] = ends
    ub[np.flatnonzero(cut)[::3]] = s    # cut on one side only
    batch = dd._spike_mass(rows, ua, ub)
    one = np.concatenate([dd._spike_mass(rows[i:i + 1], ua[i:i + 1],
                                         ub[i:i + 1])
                          for i in range(len(rows))])
    assert np.array_equal(batch, one)
    dd.z                                # caches the whole-spike masses
    assert np.array_equal(batch[~cut], dd._mass[rows[~cut]])


def test_report_rows_match_one_q_calls(st1, dd1):
    up = borel_cantelli_report(st1, n_max=500)
    for row in up.per_q:
        lo, hi, _count = _one_union(st1.profile, row["q"])
        assert row["intervals"] == len(lo)
        assert row["total_length"] == float((hi - lo).sum())
        assert row["measured"] == measure_of_Aq(st1, row["q"],
                                                evaluator=dd1)
    # the stacked call is the same bits as one union at a time
    qs = np.array([r["q"] for r in up.per_q[:40]])
    lo, hi, n, _count = _target_unions(st1.profile, qs)
    stacked = dd1.measure_of_intervals(lo, hi)
    assert np.array_equal(stacked, [dd1.measure_of_intervals(
        lo[t, :n[t]], hi[t, :n[t]]) for t in range(len(qs))])


def test_report_rows_match_one_q_calls_two_stages(st2):
    up = borel_cantelli_report(st2, n_max=200)
    dd = DirectDensity(st2)
    for row in up.per_q[::40] + up.per_q[-1:]:
        assert row["measured"] == measure_of_Aq(st2, row["q"], evaluator=dd)


def test_measure_of_Aq_rejects_nonpositive_modulus(st1, dd1):
    for q in (0, -3):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            measure_of_Aq(st1, q, evaluator=dd1)
    # a fraction, nan or inf is no modulus either: none may be cast to one
    for q in (5.7, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {q}"):
            measure_of_Aq(st1, q, evaluator=dd1)
    # a whole number of any type is the same modulus
    want = measure_of_Aq(st1, 5, evaluator=dd1)
    for q in (np.int64(5), 5.0):
        assert measure_of_Aq(st1, q, evaluator=dd1) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # past the profile's window psi is 0: no mass and no warning, also
        # for a whole modulus past int64
        for q in (10**6 + 1, 1e30, 2**70):
            assert measure_of_Aq(st1, q, evaluator=dd1) == 0.0


def _series_mass(stage, dens, q):
    # oracle: the density series (inheriting its truncation error)
    # paired with the closed-form transform of the interval union
    lo, hi, _count = _one_union(stage.profile, q)
    L = dens.half_bandwidth
    ls = np.arange(1, L + 1, dtype=float)
    hats0 = float((hi - lo).sum())
    phase_hi = np.exp(2j * np.pi * np.outer(ls, hi)).sum(axis=1)
    phase_lo = np.exp(2j * np.pi * np.outer(ls, lo)).sum(axis=1)
    hats = (phase_hi - phase_lo) / (2j * np.pi * ls)
    pos = dens.coeffs[L + 1:]
    return float(dens.coeffs[L].real) * hats0 + 2.0 * float(
        np.sum(pos.real * hats.real - pos.imag * hats.imag))


def _monte_carlo_mass(stage, dd, q, samples, seed):
    # oracle: seeded Monte Carlo on the normalized density, stratified
    # by interval in proportion to its length
    lo, hi, _count = _one_union(stage.profile, q)
    rng = np.random.default_rng(seed)
    acc = 0.0
    span = float((hi - lo).sum())
    for a, b in zip(lo, hi):
        k = max(1, int(round(samples * (b - a) / span)))
        xs = rng.uniform(a, b, size=k)
        acc += (b - a) * float(np.mean(dd.raw_value(xs) / dd.z))
    return acc


def test_interval_masses_direct_vs_series(st1, dd1, density):
    dens = density(st1)
    want = {
        3: 0.3797682625776494,
        4: 0.05310334545809189,
        7: 0.27912839921414695,
        20: 7.968885139597304e-06,
        100: 0.00011684557954725654,
    }
    for q, value in want.items():
        direct = measure_of_Aq(st1, q, evaluator=dd1)
        assert direct == pytest.approx(value, rel=1e-12)
        series = _series_mass(st1, dens, q)
        assert abs(direct - series) < 1e-12


def test_interval_mass_monte_carlo(st1, dd1):
    direct = measure_of_Aq(st1, 5, evaluator=dd1)
    assert direct == pytest.approx(0.30942187074700167, rel=1e-12)
    mc = _monte_carlo_mass(st1, dd1, 5, samples=200_000, seed=0)
    assert abs(mc - direct) < 0.01


def test_upper_bound_report_frozen(st1):
    up = borel_cantelli_report(st1, n_max=500)
    assert up.constant == pytest.approx(1.5198404062239201, rel=1e-12)
    assert up.series_partial == pytest.approx(10.570286815407526, rel=1e-12)
    assert up.measured_partial == pytest.approx(1.8313230953282378, rel=1e-12)
    assert up.max_increment_beyond == pytest.approx(2.0559262237548758e-05,
                                                    rel=1e-9)
    assert up.increment_cutoff == 400
    assert up.s_used == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert up.eps_used == 0.05
    assert up.z_direct == pytest.approx(st1.normalization, abs=1e-12)
    assert len(up.per_q) == 499
    row3 = next(r for r in up.per_q if r["q"] == 3)
    assert row3["intervals"] == 2
    assert row3["measured"] == pytest.approx(0.3797682625776494, rel=1e-12)
    assert row3["ratio"] == pytest.approx(0.7017186118741588, rel=1e-12)
    # the recorded constant really is the worst ratio
    assert max(r["ratio"] for r in up.per_q) == up.constant
    assert sum(r["measured"] for r in up.per_q) == pytest.approx(
        up.measured_partial, rel=1e-12)


def test_upper_report_bytes_do_not_depend_on_the_union_batch(
        st1, monkeypatch, tmp_path):
    # 8 batches of target unions at the default, one at 2**17, and one
    # per modulus at 2**4 (7,797 by the residue count, so capped at the
    # 499 moduli): each row's mass is the same bits in any batch, so the
    # report is too, and no batch is empty
    assert 1 + sum(range(2, 501)) // analyze._UNION_CHUNK > 1
    sizes = []
    real = analyze._target_unions

    def counted(profile, qs):
        sizes.append(len(qs))
        return real(profile, qs)

    monkeypatch.setattr(analyze, "_target_unions", counted)
    texts = []
    for chunk in (analyze._UNION_CHUNK, 1 << 17, 1 << 4):
        monkeypatch.setattr(analyze, "_UNION_CHUNK", chunk)
        sizes.clear()
        write_report_json(borel_cantelli_report(st1, n_max=500),
                          tmp_path / "up.json")
        texts.append((tmp_path / "up.json").read_bytes())
        assert min(sizes) >= 1 and sum(sizes) == 499, chunk
    assert len(sizes) == 499
    assert texts[0] == texts[1] == texts[2]


def test_upper_report_allocations_stay_per_batch(st1):
    # the report, its DirectDensity included, peaks at 3.9 MB traced;
    # all 499 moduli in one batch of target unions took 13.9 MB
    tracemalloc.start()
    try:
        borel_cantelli_report(st1, n_max=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_factor_comb_holds_no_residue_masks(reference_profile):
    # a comb keeps O(1) numbers per member: the M = 4096 bucket (11,974
    # members) peaks near 1.6 MB traced, plus up to 4 MB of factorize
    # cache entries when cold; one mask of length q per member took
    # 195 MB, and the members and masks of every residue set over 1 GB
    members = reference_profile.bucket(0.3, 4096).members
    assert len(members) == 11_974
    tracemalloc.start()
    try:
        comb = analyze._factor_comb(reference_profile, members, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert comb.counts.tolist()[:3] == [
        residue_set(q, 0, 1).count for q in members[:3].tolist()]


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

def test_json_writer_round_trips(r1, tmp_path):
    path = tmp_path / "decay.json"
    write_report_json(r1, path)
    text = path.read_text()
    assert text.endswith("\n")
    # the record as asdict gives it; JSON reads its tuples back as lists
    assert json.loads(text) == {k: list(v) if isinstance(v, tuple) else v
                                for k, v in asdict(r1).items()}


@pytest.mark.parametrize("name", ["st1", "st2"])
def test_json_writer_matches_the_asdict_oracle(request, tmp_path, name):
    # json.dumps of asdict's deep copy is the oracle for the in-place writer
    stage = request.getfixturevalue(name)
    path = tmp_path / "report.json"
    for report in (decay_report(stage),
                   borel_cantelli_report(stage, n_max=100)):
        write_report_json(report, path)
        assert path.read_text() == json.dumps(
            asdict(report), sort_keys=True, indent=2) + "\n"


def test_json_writer_takes_a_plain_dict(tmp_path):
    path = tmp_path / "log.json"
    write_report_json({"b": (1, 2), "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_csv_writer_dialect(tmp_path):
    path = tmp_path / "table.csv"
    rows = [{"n": 3, "x": 0.1, "y": np.float64(1 / 3), "ok": True},
            {"n": np.int64(4), "x": 2.0, "y": 1e-300, "ok": False}]
    write_csv(path, ("n", "ok", "x", "y"), rows)
    # floats by repr, bools as 0/1, the csv module's row ends
    assert path.read_bytes() == (b"n,ok,x,y\r\n3,1,0.1,0.3333333333333333\r\n"
                                 b"4,0,2.0,1e-300\r\n")


def test_decay_csv_full_precision(r0, tmp_path):
    path = tmp_path / "bands.csv"
    write_decay_csv(r0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,lo,hi,samples,sup_abs,xi_argmax,certified"
    assert len(lines) == 1 + len(r0.bands)
    first = lines[1].split(",")
    assert int(first[0]) == r0.bands[0].j
    # repr round trip keeps every bit of the supremum
    assert float(first[4]) == r0.bands[0].sup_abs


def test_upper_csv_layout(st1, tmp_path):
    up = borel_cantelli_report(st1, n_max=20)
    path = tmp_path / "upper.csv"
    write_upper_csv(up, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "q,intervals,total_length,measured,bound,ratio"
    assert len(lines) == 1 + len(up.per_q)
    assert float(lines[1].split(",")[3]) == up.per_q[0]["measured"]


# ----------------------------------------------------------------------
# the general case at reference scale
# ----------------------------------------------------------------------

# an irrational shift, q-dependent pairs (A_q, B_q) with B_q > 1 below
# 4000, and Q = {q = 1, 2 mod 3}: the kernel's B_q-coprime strides, the
# B_q > 1 admissibility and residue-class membership, which the
# reference profile (theta = 0.3, pair (0, 1), every q) never reaches
GENERAL_PROFILE = ApproximationProfile(
    q_min=2, q_max=1_000_000, tau=2.0, theta_value=math.sqrt(2.0) - 1.0,
    coprime_kind="table",
    pair_table={q: (1, 2) if q % 2 else (3, 4) for q in range(2, 4000)},
    member_kind="residue_classes", member_modulus=3, member_classes=(1, 2))


def test_general_profile_walk_labels_only_chunk_0(monkeypatch):
    # residue-class membership has no closed-form edge, yet the walk
    # labels only as far as the probed bucket reaches: the first
    # admissible entry (M = 4, q <= 10) needs chunk 0 of the window's 16,
    # and it is the entry that the whole window's scale_set admits first
    chunks = []
    label = ApproximationProfile._label_chunk

    def counted(self, eta, labels, start):
        chunks.append(start)
        return label(self, eta, labels, start)
    monkeypatch.setattr(ApproximationProfile, "_label_chunk", counted)
    prof = replace(GENERAL_PROFILE)
    first = next(prof.admissible_scales(0.3))
    assert chunks == [0]
    assert first.scale == 4
    whole = replace(GENERAL_PROFILE).scale_set(0.3).entries
    assert first == next(e for e in whole if e.admissible)


@pytest.fixture(scope="module", params=[1, 2], ids=["one", "two"])
def general(request):
    stage = build_measure(GENERAL_PROFILE, eta=0.3, eps=0.05,
                          stages=request.param)
    assert stage.stages == request.param
    return stage


def test_general_profile_reports(general):
    assert decay_report(general).nu_hat_zero == pytest.approx(1.0, abs=1e-12)
    up = borel_cantelli_report(general, n_max=500)
    assert up.z_direct == pytest.approx(general.normalization, rel=1e-9)
    assert math.isfinite(up.constant)
    scan = support_witness_scan(general, threshold=0.0)
    assert scan["positive_points"] > 0
    assert scan["failures"] == []
