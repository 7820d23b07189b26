"""Staged density builder: factors, scale selection, artifacts."""
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfourier import (
    ArtifactError,
    BandwidthBudgetError,
    BuildConfig,
    BumpSpec,
    MeasureStage,
    ProfileError,
    WindowExhaustedError,
    build_measure,
    build_xi_grid,
    constant_series,
    gm_series,
    power_law_profile,
)
from dfourier import measure
from dfourier.arith import residue_set
from dfourier.measure import _member_data, assemble_line, stability_gap

BUMP = BumpSpec()
ETA, EPS = 0.3, 0.05


# ----------------------------------------------------------------------
# sampling grid
# ----------------------------------------------------------------------

def test_xi_grid_small_case():
    grid = build_xi_grid(4, 4)
    assert grid[0] == 0.0
    assert grid[-1] == 4.0
    assert np.all(np.diff(grid) > 0)
    # every point sits on the quarter-integer lattice
    assert np.array_equal(grid * 4.0, np.round(grid * 4.0))
    for base in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0):
        assert base in grid


@given(st.integers(min_value=1, max_value=100_000),
       st.integers(min_value=4, max_value=64))
def test_xi_grid_properties(xi_max, samples):
    grid = build_xi_grid(xi_max, samples)
    assert grid[0] == 0.0
    assert grid[-1] == float(xi_max)
    assert np.all(np.diff(grid) > 0)
    assert np.array_equal(grid * 4.0, np.round(grid * 4.0))


def test_xi_grid_rejects_empty_range():
    with pytest.raises(ValueError):
        build_xi_grid(0.5)


# ----------------------------------------------------------------------
# single-scale factors
# ----------------------------------------------------------------------

def test_first_factor_frozen(reference_profile):
    fac = gm_series(reference_profile, BUMP, ETA, 4, 1e-8, 1 << 20)
    s = fac.summary()
    assert s["scale"] == 4
    assert s["k"] == 2
    assert s["count"] == 6
    assert s["complete"] is True
    assert s["half_bandwidth"] == 15360
    assert s["mass"] == pytest.approx(1.0260406602206753, rel=1e-12)
    assert s["tail_bound"] == pytest.approx(9.965515196987253e-09, rel=1e-9)
    assert s["l1_norm"] == pytest.approx(244.05848071371517, rel=1e-12)
    assert s["l2_norm"] == pytest.approx(5.750585842703885, rel=1e-12)
    # exact unit mean and Hermitian symmetry by construction
    assert fac.series.coeff(0) == 1.0 + 0.0j
    assert fac.series.hermitian_defect() == 0.0


def test_empty_bucket_is_window_exhaustion():
    tiny = power_law_profile(2.0, 50, q_min=2, theta=0.3)
    assert tiny.bucket(ETA, 256).count == 0
    with pytest.raises(WindowExhaustedError, match="scale 256"):
        gm_series(tiny, BUMP, ETA, 256, 1e-8, 1 << 20)


def test_uncapped_band_overflow_reports_true_need(reference_profile):
    """Without a cap the full certified bandwidth is quoted, not the cap."""
    with pytest.raises(BandwidthBudgetError) as err:
        gm_series(reference_profile, BUMP, ETA, 256, 1e-8, 1 << 20)
    assert err.value.budget == 1 << 20
    assert err.value.requested == 74551825993
    assert "scale 256" in str(err.value)


def test_capped_band_keeps_honest_tail(reference_profile):
    fac = gm_series(reference_profile, BUMP, ETA, 4, 1e-8, 1 << 20,
                    band_cap=2000)
    assert fac.complete is False
    assert fac.series.half_bandwidth == 2000
    assert fac.series.tail_bound > 1e-8
    assert fac.series.coeff(0) == 1.0 + 0.0j


def test_assemble_line_matches_bruteforce_sum(reference_profile, monkeypatch):
    # the M=4 bucket average of (1/#I_q) sum over p in I_q of
    # e(-l(p + theta)/q) * fhat(l psi/q), phases reduced exactly; every
    # window must be exact, including ones that start far from 0
    prof = reference_profile
    members = prof.bucket(ETA, 4).members
    data = _member_data(prof, members)
    for lo in (0, 60000, 200000):
        ls = np.arange(lo, lo + 8)
        want = np.zeros(len(ls), dtype=complex)
        for q, psi in zip(members.tolist(), prof.psi_values(members)):
            rs = residue_set(q, *prof.pair(q))
            theta = Fraction(float(prof.theta_of(q)))
            for i, l in enumerate(ls.tolist()):
                u = np.array([float(l * (p + theta) / q % 1)
                              for p in rs.members.tolist()])
                want[i] += (np.exp(-2j * np.pi * u).sum()
                            * BUMP.fourier(l * (float(psi) / q)) / rs.count)
        want /= len(members)
        got = assemble_line(data, BUMP, lo, lo + 7)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), lo
    # the chunk length bounds memory only; it must not move a bit
    one_pass = assemble_line(data, BUMP, 0, 20000)
    for chunk in (777, 1000):
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        assert np.array_equal(assemble_line(data, BUMP, 0, 20000), one_pass)


# ----------------------------------------------------------------------
# stability gap and scale selection
# ----------------------------------------------------------------------

def test_opening_gap_anchor(reference_profile):
    grid = build_xi_grid(65536, 32)
    gap = stability_gap(reference_profile, BUMP, ETA, EPS, 4,
                        constant_series(1.0), grid, kernel_halfwidth=64)
    assert gap.scale == 4
    assert gap.value == pytest.approx(1.725756431926317, rel=1e-12)
    assert gap.xi_argmax == 169.75
    assert gap.remainder_bound == pytest.approx(9.395187334614851e-12, rel=1e-6)
    assert gap.remainder_bound < 1e-9 * gap.value


def test_probe_log_records_the_selection_path(st2):
    assert len(st2.gap_log) == 2
    (opening,) = st2.gap_log[0]
    assert opening["scale"] == 4
    assert opening["threshold"] is None
    assert opening["gap"] == pytest.approx(1.725756431926317, rel=1e-12)
    assert opening["xi_argmax"] == 169.75

    second = st2.gap_log[1]
    want = [
        (16, 6.740086747672542),
        (32, 3.3142029696448985),
        (64, 2.065710941428373),
        (128, 1.2124657850600025),
        (256, 0.5359429214178216),
    ]
    assert [p["scale"] for p in second] == [m for m, _ in want]
    for probe, (_, g) in zip(second, want):
        assert probe["gap"] == pytest.approx(g, rel=1e-12)
        assert probe["threshold"] == pytest.approx(st2.c_stab / 4.0, rel=1e-12)
    # every rejected probe exceeds the threshold, the accepted one clears it
    thr = second[0]["threshold"]
    assert all(p["gap"] > thr for p in second[:-1])
    assert second[-1]["gap"] <= thr


def test_calibration_constant(st1, st2):
    assert st1.c_stab == pytest.approx(3.451512863852634, rel=1e-12)
    assert st1.c_stab == pytest.approx(2.0 * st1.gap_log[0][0]["gap"], rel=1e-15)
    assert st2.c_stab == st1.c_stab


# ----------------------------------------------------------------------
# finished stages
# ----------------------------------------------------------------------

def test_window_only_stage(st0):
    assert st0.scales == ()
    assert st0.stages == 0
    assert st0.requested_stages == 0
    assert st0.complete
    assert st0.normalization == 1.0
    assert st0.gfactors.half_bandwidth == 0
    assert st0.gfactors.coeff(0) == 1.0 + 0.0j
    assert st0.density.half_bandwidth == 57
    assert st0.uniform_error_bound == pytest.approx(8.499441290116247e-14,
                                                    rel=1e-9)
    assert st0.nonneg_min > -1e-12


def test_one_stage_frozen(st1):
    assert st1.scales == (4,)
    assert st1.complete
    assert st1.normalization == pytest.approx(0.7878842692743078, rel=1e-12)
    assert st1.gfactors.half_bandwidth == 15360
    assert st1.density.half_bandwidth == 15417
    assert st1.uniform_error_bound == pytest.approx(5.98169044872018e-08,
                                                    rel=1e-9)
    assert st1.nonneg_min == pytest.approx(-1.0595412741620791e-10, rel=1e-6)
    summary = dict(st1.factor_summaries[0])
    assert summary["scale"] == 4
    assert summary["count"] == 6
    assert summary["complete"] is True


def test_two_stage_frozen(st2):
    assert st2.scales == (4, 256)
    assert st2.complete
    assert st2.normalization == pytest.approx(0.7902222355299489, rel=1e-12)
    # both blocks are cut at the export band the analyzer consumes
    assert st2.gfactors.half_bandwidth == 66169
    assert st2.density.half_bandwidth == 66169
    g256 = dict(st2.factor_summaries[1])
    assert g256["scale"] == 256
    assert g256["count"] == 550
    assert g256["half_bandwidth"] == 81593
    assert g256["complete"] is False
    # the capped factor leaves a large certified tail; it is recorded,
    # not hidden
    assert st2.uniform_error_bound == pytest.approx(1026436509.4093015,
                                                    rel=1e-9)
    assert st2.nonneg_min == pytest.approx(-187.8273921744198, rel=1e-9)


def test_mean_is_exactly_one(st0, st1, st2):
    for stage in (st0, st1, st2):
        assert stage.density.coeff(0) == pytest.approx(1.0, abs=1e-12)
        assert stage.density.hermitian_defect() == 0.0


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_save_load_round_trip(st1, tmp_path):
    path = tmp_path / "stage.bin"
    st1.save(path)
    back = MeasureStage.load(path)
    assert back.scales == st1.scales
    assert back.normalization == st1.normalization
    assert back.uniform_error_bound == st1.uniform_error_bound
    assert back.nonneg_min == st1.nonneg_min
    assert back.gap_log == st1.gap_log
    assert back.factor_summaries == st1.factor_summaries
    assert np.array_equal(back.density.coeffs, st1.density.coeffs)
    assert np.array_equal(back.gfactors.coeffs, st1.gfactors.coeffs)
    assert back.density.tail_bound == st1.density.tail_bound
    assert back.profile.to_descriptor() == st1.profile.to_descriptor()
    # a second save of the reloaded stage is byte identical
    path2 = tmp_path / "again.bin"
    back.save(path2)
    assert path2.read_bytes() == path.read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a stage artifact"):
        MeasureStage.load(path)


@pytest.fixture(scope="module")
def saved_st1(st1, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "stage.bin"
    st1.save(path)
    return path, path.read_bytes()


@given(data=st.data())
def test_load_rejects_cut_or_padded_artifact(saved_st1, data):
    path, raw = saved_st1
    if data.draw(st.booleans()):
        keep = data.draw(st.one_of(st.integers(0, 64),
                                   st.integers(len(raw) - 64, len(raw) - 1),
                                   st.integers(0, len(raw) - 1)))
        mutated = raw[:keep]
    else:
        mutated = raw + data.draw(st.binary(min_size=1, max_size=32))
    bad = path.with_name("mutated.bin")
    bad.write_bytes(mutated)
    with pytest.raises(ArtifactError):
        MeasureStage.load(bad)


@given(data=st.data())
def test_load_flipped_byte_is_artifact_error_or_loads(saved_st1, data):
    # the coefficient values carry no checksum, so a flip there (or in a
    # header value that stays valid) may load; anything else must raise
    # ArtifactError, and a flip in the magic, the header length or a
    # record's frequency index always does
    path, raw = saved_st1
    start = 12 + struct.unpack_from("<Q", raw, 4)[0]
    records = (len(raw) - start) // 24
    pos = data.draw(st.one_of(
        st.integers(0, 11),
        st.integers(12, start - 1),
        st.builds(lambda i, b: start + 24 * i + b,
                  st.integers(0, records - 1), st.integers(0, 7)),
        st.integers(0, len(raw) - 1)))
    flipped = bytearray(raw)
    flipped[pos] ^= data.draw(st.integers(1, 255))
    bad = path.with_name("flipped.bin")
    bad.write_bytes(bytes(flipped))
    structural = pos < 12 or (pos >= start and (pos - start) % 24 < 8)
    try:
        MeasureStage.load(bad)
    except ArtifactError:
        return
    assert not structural


# ----------------------------------------------------------------------
# build preconditions
# ----------------------------------------------------------------------

def test_build_rejects_eta_outside_unit_interval(reference_profile):
    with pytest.raises(ProfileError, match="eta"):
        build_measure(reference_profile, eta=1.5, stages=0)


def test_build_rejects_rough_kernel(reference_profile):
    cfg = BuildConfig(bump=BumpSpec(smoothness=4))
    with pytest.raises(ProfileError, match="smoothness"):
        build_measure(reference_profile, eta=ETA, stages=0, config=cfg)
