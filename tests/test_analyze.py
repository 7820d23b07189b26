"""Transform sampling, decay reports, support witnesses, interval masses."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfourier import (
    DecayBand,
    DecayReport,
    borel_cantelli_report,
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
    write_decay_csv,
    write_report_json,
    write_upper_csv,
)
from dfourier.analyze import DirectDensity, _clip_to_union, _merge_intervals


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

def test_transform_at_integers_matches_stored_density(st0, st1):
    # window-only: the sampled line IS the stored block
    ns = np.arange(0, 58, dtype=float)
    got = transform_samples(st0, ns)
    want = np.array([st0.density.coeff(int(n)) for n in ns])
    assert np.array_equal(got, want)
    ns = np.arange(0, 201, dtype=float)
    got = transform_samples(st1, ns)
    want = np.array([st1.density.coeff(int(n)) for n in ns])
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
        kern = st1.config.bump.window_kernel(frac, d_h)
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
    assert pointwise_error_bound(st1) == pytest.approx(
        2.5295283055197997e-08, rel=1e-9)
    assert pointwise_error_bound(st2) == pytest.approx(
        0.00027238338261970226, rel=1e-9)


def test_pointwise_floor_grows_with_reach(st1):
    assert pointwise_error_bound(st1, 256.0) <= pointwise_error_bound(st1)


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


def test_window_only_low_band_refit(st0):
    low = decay_report(st0, fit_range=(2, 5))
    assert low.fit_bands_used == (2, 3, 4, 5)
    assert low.fitted_slope == pytest.approx(-11.9159517337613, rel=1e-9)
    assert low.fitted_slope < -9.0


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
    assert DirectDensity(st2).z == pytest.approx(st2.normalization, abs=1e-9)


def test_witnesses_at_a_support_point(st1, dd1):
    out = support_witnesses(st1, (1 + 0.3) / 5, evaluator=dd1)
    assert out["verdict"] == "witnessed"
    assert out["density"] == pytest.approx(0.8458892132891049, rel=1e-12)
    (w,) = out["witnesses"]
    assert w["scale"] == 4
    assert w["q"] == 5
    assert w["p"] == 1
    assert w["distance"] == 0.0
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


def test_witnesses_at_two_stage_spike_centres(st2):
    # the grid scan above finds no positive point at two stages (spikes
    # are ~1e-8 wide), so sample the finest factor's spike centres instead
    dd = DirectDensity(st2)
    fine = dd.combs[-1]
    centres = np.concatenate([
        np.mod((np.flatnonzero(mask) + th) / q, 1.0)
        for q, th, mask in zip(fine.qs, fine.theta, fine.masks)])
    centres = np.sort(centres[dd.raw_value(centres) > 0.0])
    assert len(centres) > 10_000
    for c in centres[np.linspace(0, len(centres) - 1, 200).astype(int)]:
        out = support_witnesses(st2, float(c), threshold=0.0, evaluator=dd)
        assert out["verdict"] == "witnessed", out
        assert [w["scale"] for w in out["witnesses"]] == list(st2.scales)


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


@given(family=_family, clip=st.tuples(_ends, _ends).map(sorted))
def test_interval_toolkit_matches_loops(family, clip):
    pairs = sorted(family, key=lambda p: p[0])
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    m_lo, m_hi, first = _merge_intervals(lo, hi)
    want_lo, want_hi = _merge_loop(lo, hi)
    assert np.array_equal(m_lo, want_lo) and np.array_equal(m_hi, want_hi)
    # each piece starts at its first member and holds exactly the
    # members up to the next piece's first
    assert np.array_equal(lo[first], m_lo)
    ends = np.r_[first[1:], len(lo)]
    for k, (f, e) in enumerate(zip(first, ends)):
        assert hi[f:e].max() == m_hi[k]
    a, b = clip
    got_lo, got_hi = _clip_to_union(a, b, m_lo, m_hi)
    want_lo, want_hi = _intersect_loop([a], [b], m_lo, m_hi)
    assert np.array_equal(got_lo, want_lo) and np.array_equal(got_hi, want_hi)


def test_interval_masses_direct_vs_series(st1, dd1):
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
        series = measure_of_Aq(st1, q, method="series")
        assert abs(direct - series) < 1e-12


def test_interval_mass_monte_carlo(st1, dd1):
    direct = measure_of_Aq(st1, 5, evaluator=dd1)
    assert direct == pytest.approx(0.30942187074700167, rel=1e-12)
    mc = measure_of_Aq(st1, 5, mc_samples=200_000, seed=0, evaluator=dd1)
    assert abs(mc - direct) < 0.01


def test_interval_mass_unknown_method(st1):
    with pytest.raises(ValueError, match="unknown method"):
        measure_of_Aq(st1, 3, method="mc")


def test_upper_bound_report_frozen(st1):
    up = borel_cantelli_report(st1)
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


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

def test_json_writer_round_trips(r1, tmp_path):
    path = tmp_path / "decay.json"
    write_report_json(r1, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == r1.to_dict()


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
