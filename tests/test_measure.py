"""Staged density builder: factors, scale selection, artifacts."""
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dfourier import (
    ApproximationProfile,
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
from dfourier import analyze, measure
from dfourier.arith import divisor_sum, divisors, residue_set
from dfourier.measure import (_member_data, assemble_line, select_next_scale,
                               stability_gap)
from dfourier.profile import _CHUNK

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


@pytest.mark.parametrize("xi_max, samples", [
    (1, 4), (4, 4), (2.5, 32), (1000, 7), (65536, 32), (100_000, 64),
    (3, 1), (1 << 20, 17)])
def test_xi_grid_matches_the_unique_oracle(xi_max, samples):
    # oracle: the same points collapsed by np.unique
    pts = [np.array([0.0, 0.25, 0.5, 0.75]), np.array([float(xi_max)])]
    j = 0
    while (1 << j) < xi_max:
        raw = 2.0 ** (j + np.arange(samples) / samples)
        raw = raw[raw <= min(2.0 ** (j + 1), float(xi_max))]
        pts.append(np.round(raw * 4.0) / 4.0)
        j += 1
    want = np.unique(np.concatenate(pts))
    got = build_xi_grid(xi_max, samples)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_xi_grid_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (10-15 ms); the grid does without it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from dfourier.measure import build_xi_grid; "
            "build_xi_grid(65536, 32); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_xi_grid_rejects_empty_range():
    with pytest.raises(ValueError):
        build_xi_grid(0.5, 32)


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
    # the walk never reaches an empty bucket: past the window's buckets
    # it ends, and the selection with it, having probed nothing
    log = []
    with pytest.raises(WindowExhaustedError,
                       match="^the window holds no admissible scale past "
                             "M = 256$"):
        select_next_scale(tiny, BUMP, ETA, EPS, tiny.admissible_scales(ETA),
                          128, 1.0, constant_series(), build_xi_grid(4, 4),
                          8, log)
    assert log == [[]]


def test_assemble_line_rejects_an_empty_member_list():
    with pytest.raises(ValueError, match="no members"):
        assemble_line(_member_data(power_law_profile(2.0, 50, q_min=2),
                                   np.zeros(0, dtype=np.int64)), BUMP, 0, 3)


def test_uncapped_band_overflow_reports_true_need(reference_profile):
    """Without a cap the full certified bandwidth is quoted, not the cap."""
    with pytest.raises(BandwidthBudgetError) as err:
        gm_series(reference_profile, BUMP, ETA, 256, 1e-8, 1 << 20)
    assert str(err.value) == ("bandwidth budget exceeded: need 74551825993 "
                              "coefficients, cap 1048576 (factor at scale 256)")


def test_capped_band_keeps_honest_tail(reference_profile):
    fac = gm_series(reference_profile, BUMP, ETA, 4, 1e-8, 1 << 20,
                    band_cap=2000)
    assert fac.complete is False
    assert fac.series.half_bandwidth == 2000
    assert fac.series.tail_bound > 1e-8
    assert fac.series.coeff(0) == 1.0 + 0.0j


def test_band_search_is_the_least_certified_band(reference_profile):
    """The one band search returns the least L with tail(L) <= tol, and a
    capped factor records the tail at its cap."""
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 4).members)

    def tail(L):
        return measure.envelope_tail(data, BUMP, L)
    assert measure.certified_half_bandwidth(tail, 1e-8) == 15360
    assert tail(15359) > 1e-8 >= tail(15360)
    fac = gm_series(reference_profile, BUMP, ETA, 4, 1e-8, 1 << 20,
                    band_cap=2000)
    assert fac.series.tail_bound == tail(2000)


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
        for q, psi, th in zip(members.tolist(), prof.psi_values(members),
                              prof.theta_values(members)):
            rs = residue_set(q, *prof.pair(q))
            theta = Fraction(float(th))
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


def _oracle_coefficient(prof, members, l):
    """Bucket-averaged coefficient at l: every phase l*(p + theta)/q is
    reduced exactly as a Fraction of float(theta), the terms are summed
    with math.fsum and divided by the member count."""
    re, im = [], []
    for q, psi, th in zip(members.tolist(), prof.psi_values(members),
                          prof.theta_values(members)):
        rs = residue_set(q, *prof.pair(q))
        theta = Fraction(float(th))
        w = float(BUMP.fourier(l * (float(psi) / q))) / rs.count
        for p in rs.members.tolist():
            u = float(l * (p + theta) / q % 1)
            re.append(w * math.cos(2.0 * math.pi * u))
            im.append(-w * math.sin(2.0 * math.pi * u))
    return complex(math.fsum(re), math.fsum(im)) / len(members)


@pytest.mark.parametrize("scale, ls", [(16, (82984, 85008, 85140)),
                                       (8, (5400, 11466)),
                                       (64, (10033, 40663, 80960)),
                                       (16, (499980, 500000, 500040)),
                                       (16, (1499970, 1500000)),
                                       (16, (1843800, 1844000, 1844040)),
                                       (16, (4095, 4096, 4097, 8191, 8192)),
                                       (16, (8190, 8192, 8194, 16382,
                                             16384)),
                                       (16, (12285, 12288, 12291)),
                                       (16, (16380, 16384, 16388))])
def test_assemble_line_matches_exact_phase_oracle(reference_profile, scale,
                                                  ls):
    # frequencies where rounding shift*j before reducing it cost the most
    # (up to 2.1e-14 off); exactly reduced phases stay below 1e-16.  The
    # M=16 points out to its band edge put the kernel's table sine at
    # arguments in the tens to hundreds.  The next two rows sit at the
    # coarse-row edges j = 4095, 4096, 4097, 8191 and 8192 of the stride
    # g = 1 members (l = j) and of the g = 2 ones (l = 2*j); the last two
    # at j = 4095, 4096, 4097 of the members with g_min = 3 (q = 45) and
    # g_min = 4 (q = 24, 40), l = 3*j and l = 4*j
    prof = reference_profile
    members = prof.bucket(ETA, scale).members
    data = _member_data(prof, members)
    line = assemble_line(data, BUMP, min(ls), max(ls))
    for l in ls:
        want = _oracle_coefficient(prof, members, l)
        assert abs(line[l - min(ls)] - want) <= 1e-15, l


def test_assemble_line_is_chunk_invariant(reference_profile, monkeypatch):
    # a window starting mid-block gives the same bits however it is cut
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 4).members)
    lo, hi = 1500, 12000
    one_pass = assemble_line(data, BUMP, lo, hi)
    for chunk in (1023, 1025, 4097):
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        assert np.array_equal(assemble_line(data, BUMP, lo, hi), one_pass)


def test_assemble_line_shifted_pairs_match_exact_phase_oracle():
    # the pair (1, 1) gives most hits a residue p0 != 0, whose p0*j mod lp
    # is taken in integers.  The pair (1, 2) on even q skips every lp
    # that 2 divides, so lp_max is the odd part of rad(q), g_min is even,
    # and the hits of stride s = lp_max/lp, each with its own p0, share
    # the member's twist e(-j*p0_max/lp_max)
    for pair in ((1, 1), (1, 2)):
        prof = ApproximationProfile(
            q_min=2, q_max=2000, theta_value=0.3, coprime_kind="table",
            pair_table={q: pair for q in range(2, 60, pair[1])})
        members = prof.bucket(ETA, 16).members
        data = _member_data(prof, members)
        assert sum(bool(hit[3]) for mem in data.members
                   for hit in mem.hits) > (50 if pair == (1, 1) else 10)
        if pair == (1, 2):
            q30 = next(mem for mem in data.members if mem.q == 30)
            assert (q30.stride, q30.lp, q30.p0) == (2, 15, 7)
            assert sorted(hit[0] for hit in q30.hits if hit[3]) == [1, 3, 5]
        ls = (82984, 85008)
        line = assemble_line(data, BUMP, min(ls), max(ls))
        for l in ls:
            want = _oracle_coefficient(prof, members, l)
            assert abs(line[l - min(ls)] - want) <= 1e-15, (pair, l)


@example(theta=-0.5, lp=1, js=[0, 2, 3])      # zero remainders, negative
@example(theta=-0.0, lp=7, js=[0, 5])
@example(theta=0.5, lp=3, js=[0, 6, 7, (1 << 26) - 1])
@given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                 exclude_max=True),
       st.integers(min_value=1, max_value=10**6),
       st.lists(st.integers(min_value=0, max_value=(1 << 26) - 1),
                min_size=1, max_size=64))
def test_fmod_product_is_fmod_bit_for_bit(theta, lp, js):
    # the phase tables' exact reduction of theta_hi*j mod lp, against
    # np.fmod, signs of zero included
    big = 134217729.0 * theta
    hi = big - (big - theta)
    jf = np.array(js, dtype=np.float64)
    want = np.fmod(hi * jf, lp)
    got = measure._fmod_product(hi, jf, lp, np.empty_like(jf))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("scale", [4, 8])
def test_assemble_line_is_run_length_invariant(reference_profile, monkeypatch,
                                               scale):
    # a window starting mid-block gives the same bits in runs of any
    # number of table rows, and the scratch is one run whatever the piece
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, scale).members)
    lo, hi = 1500, 150000
    default = assemble_line(data, BUMP, lo, hi)
    made, inner = [], measure._scratch

    def scratch():
        made.append(inner())
        return made[-1]
    monkeypatch.setattr(measure, "_scratch", scratch)
    for rows in (1, 3):
        monkeypatch.setattr(measure, "_RUN_ROWS", rows)
        made.clear()
        assert np.array_equal(assemble_line(data, BUMP, lo, hi), default)
        assert made and all(buf.size == rows * measure._BLOCK
                            for bufs in made for buf in bufs)


@pytest.mark.parametrize("scale", [4, 8, 16])
def test_assemble_line_center_is_the_mean_coefficient(reference_profile,
                                                      scale):
    # at l = 0 the kernel is exactly 1 and every phase is 1, so the
    # center is every hit's coef summed member by member, hit by hit, and
    # divided by the member count: the regime fixture's raw center
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, scale).members)
    assert len(data.members) <= measure._BLOCK_MEMBERS
    total = 0.0
    for mem in data.members:
        for hit in mem.hits:
            total += hit[1]
    got = assemble_line(data, BUMP, 0, 0)
    assert got[0].real == total / len(data.members) and got[0].imag == 0.0


def _cpus(monkeypatch, n):
    monkeypatch.setattr(measure.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def _record_pieces(monkeypatch):
    """Wrap _line_segment to record the [l_lo, l_hi] of every piece."""
    pieces, inner = [], measure._line_segment

    def segment(data, bump, out, l_lo, l_hi, scratch):
        pieces.append((l_lo, l_hi))
        return inner(data, bump, out, l_lo, l_hi, scratch)
    monkeypatch.setattr(measure, "_line_segment", segment)
    return pieces


@pytest.mark.parametrize("lo, hi, chunk, min_span", [
    (1500, 400000, None, None),     # mid-block start, real span lengths
    (1500, 200000, 40000, None),    # chunks shorter than a span
    (77, 77, None, 1),              # one term
    (1500, 1510, 2, 1),             # chunks shorter than the CPU count
])
def test_assemble_line_is_cpu_count_invariant(reference_profile, monkeypatch,
                                              lo, hi, chunk, min_span):
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 8).members)
    _cpus(monkeypatch, 1)
    serial = assemble_line(data, BUMP, lo, hi)
    for name, value in (("_CHUNK", chunk), ("_MIN_SPAN", min_span)):
        if value is not None:
            monkeypatch.setattr(measure, name, value)
    pieces = _record_pieces(monkeypatch)
    tilings = set()
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        pieces.clear()
        assert np.array_equal(assemble_line(data, BUMP, lo, hi), serial), cpus
        # nonempty pieces that cover the window once, without overlap
        cut = sorted(pieces)
        assert all(a <= b for a, b in cut), cut
        assert cut[0][0] == lo and cut[-1][1] == hi, cut
        assert all(b + 1 == c for (_, b), (c, _) in zip(cut, cut[1:])), cut
        tilings.add(tuple(cut))
    # every CPU count cut the window its own way, unless it is one term
    # or a patched _CHUNK is below every CPU count's share
    assert len(tilings) == (1 if lo == hi or chunk is not None else 3)


def test_assemble_line_spans_call_no_traced_function(reference_profile,
                                                     monkeypatch):
    # the benchmark tracer keeps one span stack for the process, so the
    # worker threads must stay clear of every function it wraps
    traced = {"ApproximationProfile.bucket", "BumpSpec.fourier",
              "BumpSpec.value", "residue_set"}
    called = set()

    def profiler(frame, event, arg):
        if event == "call" and "dfourier" in frame.f_code.co_filename:
            called.add(frame.f_code.co_qualname)
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 8).members)
    _cpus(monkeypatch, 2)
    threading.setprofile(profiler)
    try:
        assemble_line(data, BUMP, 0, 300000)
    finally:
        threading.setprofile(None)
    assert {"_line_segment"} <= called
    assert not called & traced


def _block_fold(data, lo, hi):
    """assemble_line by definition: each member block summed on its own
    by serial _line_segment passes over _CHUNK pieces, the block lines
    added in order."""
    n = hi - lo + 1
    step = measure._CHUNK
    planes = np.zeros((2, n))
    members = data.members
    for i in range(0, len(members), measure._BLOCK_MEMBERS):
        part = np.zeros((2, n))
        scratch = measure._scratch()
        for a in range(0, n, step):
            measure._line_segment(members[i:i + measure._BLOCK_MEMBERS], BUMP,
                                  part[:, a:a + step], lo + a,
                                  min(lo + a + step - 1, hi), scratch)
        planes = part if i == 0 else planes + part
    return (planes[0] + 1j * planes[1]) / len(members)


@pytest.mark.parametrize("scale, lo, hi, chunk, min_span", [
    (64, 0, 80960, None, None),         # 118 members, 4 blocks, probe length
    (64, 1500, 200000, 40000, 30000),   # blocks times several spans
    (256, 0, 80960, None, None),        # 550 members, 18 blocks
])
def test_assemble_line_blocks_are_cpu_count_invariant(
        reference_profile, monkeypatch, scale, lo, hi, chunk, min_span):
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, scale).members)
    assert len(data.members) > measure._BLOCK_MEMBERS
    want = _block_fold(data, lo, hi)
    for name, value in (("_CHUNK", chunk), ("_MIN_SPAN", min_span)):
        if value is not None:
            monkeypatch.setattr(measure, name, value)
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        assert np.array_equal(assemble_line(data, BUMP, lo, hi), want), cpus


def test_assemble_line_fold_order_survives_a_late_block_zero(
        reference_profile, monkeypatch):
    # block 0 adds straight into the line and finishes after every other
    # block; the later block lines must still go in in block order
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 64).members)
    _cpus(monkeypatch, 1)
    serial = assemble_line(data, BUMP, 0, 80960)
    finished, inner = [], measure._line_segment

    def segment(block, *args):
        if block[0] is data.members[0]:
            time.sleep(0.5)
        inner(block, *args)
        finished.append(data.members.index(block[0])
                        // measure._BLOCK_MEMBERS)
    monkeypatch.setattr(measure, "_line_segment", segment)
    _cpus(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # more thread switches, more races
    try:
        got = assemble_line(data, BUMP, 0, 80960)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, serial)
    assert finished[-1] == 0 and sorted(finished) == [0, 1, 2, 3], finished


def test_assemble_line_bounds_the_pending_jobs(reference_profile,
                                               monkeypatch):
    # while block 0 is slow, the calling thread waits to fold it once
    # `workers` jobs are pending, so no further later block starts
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 256).members)
    assert len(data.members) > 17 * measure._BLOCK_MEMBERS
    want = _block_fold(data, 0, 80960)
    events, inner = [], measure._line_segment

    def segment(block, *args):
        if block[0] is data.members[0]:
            time.sleep(0.5)
            inner(block, *args)
            events.append("block 0 done")
        else:
            events.append("later start")
            inner(block, *args)
    monkeypatch.setattr(measure, "_line_segment", segment)
    _cpus(monkeypatch, 2)
    got = assemble_line(data, BUMP, 0, 80960)
    early = events[:events.index("block 0 done")]
    assert 1 <= len(early) <= 2 - 1, events
    assert len(events) == 18
    assert np.array_equal(got, want)


@pytest.mark.parametrize("cpu_count", [3, None])
def test_assemble_line_without_affinity_uses_the_cpu_count(
        reference_profile, monkeypatch, cpu_count):
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 64).members)
    _cpus(monkeypatch, 1)
    serial = assemble_line(data, BUMP, 0, 80960)
    monkeypatch.delattr(measure.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(measure.os, "cpu_count", lambda: cpu_count)
    assert measure._cpu_count() == (cpu_count or 1)
    assert np.array_equal(assemble_line(data, BUMP, 0, 80960), serial)


def test_assemble_line_blocks_share_out_a_probe_line(reference_profile,
                                                     monkeypatch):
    # a probe-length line is one span; its member blocks still use both
    # CPUs
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 64).members)
    threads, inner = set(), measure._line_segment

    def segment(*args):
        threads.add(threading.get_ident())
        return inner(*args)
    monkeypatch.setattr(measure, "_line_segment", segment)
    _cpus(monkeypatch, 2)
    assemble_line(data, BUMP, 0, 80960)
    assert len(threads) >= 2


def test_assemble_line_builds_one_table_set_per_member(reference_profile,
                                                      monkeypatch):
    # the divisor hits of a member share its phase and kernel tables: on
    # one CPU the M=256 probe line is one piece, and every one of its 550
    # members has terms there, so 550 table sets, not one per hit (2,968)
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 256).members)
    assert len(data.members) == 550
    assert sum(len(mem.hits) for mem in data.members) == 2968
    calls, inner = [], measure._tables

    def tables(theta, lp, *args):
        calls.append(lp)
        return inner(theta, lp, *args)
    monkeypatch.setattr(measure, "_tables", tables)
    _cpus(monkeypatch, 1)
    assemble_line(data, BUMP, 0, 80960)
    assert calls == [mem.lp for mem in data.members]


def test_assemble_line_one_block_is_one_serial_pass(reference_profile,
                                                    monkeypatch):
    # a bucket of at most _BLOCK_MEMBERS members sums as it always did
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 16).members)
    assert len(data.members) == 26
    n = 80961
    planes = np.zeros((2, n))
    measure._line_segment(data.members, BUMP, planes, 0, n - 1,
                          measure._scratch())
    want = planes[0] + 1j * planes[1]
    want /= len(data.members)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert np.array_equal(assemble_line(data, BUMP, 0, n - 1), want)


def test_assemble_line_blocks_call_no_traced_function(reference_profile,
                                                      monkeypatch):
    # the member blocks of a probe line on two threads stay clear of the
    # functions the benchmark tracer wraps, as the spans do
    traced = {"ApproximationProfile.bucket", "BumpSpec.fourier",
              "BumpSpec.value", "residue_set"}
    called = set()

    def profiler(frame, event, arg):
        if event == "call" and "dfourier" in frame.f_code.co_filename:
            called.add(frame.f_code.co_qualname)
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 64).members)
    _cpus(monkeypatch, 2)
    threading.setprofile(profiler)
    try:
        assemble_line(data, BUMP, 0, 80960)
    finally:
        threading.setprofile(None)
    assert {"_line_segment"} <= called
    assert not called & traced


def test_assemble_line_rejects_inexact_phase_range(reference_profile):
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 4).members)
    with pytest.raises(ValueError, match="2\\*\\*26"):
        assemble_line(data, BUMP, 1 << 26, 1 << 26)


@pytest.mark.parametrize("l_lo, l_hi", [(-1, -1), (-100, 100), (-5000, 0)])
def test_assemble_line_rejects_negative_frequencies(reference_profile, l_lo,
                                                    l_hi):
    # the phase tables are exact for j >= 0 only; negative frequencies come
    # from mirroring the half line
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 16).members)
    with pytest.raises(ValueError, match="< 0"):
        assemble_line(data, BUMP, l_lo, l_hi)


def _scalar_tail_sum(bump, rate, start):
    """BumpSpec.envelope_tail_sum as the scalar formula in Python floats."""
    m = bump.order
    if rate <= 0.0:
        return math.inf
    x0 = 1.0 / (2.0 * math.pi * bump.box_halfwidth * rate)
    flat_top = math.floor(x0)
    t0 = max(start, flat_top, 1)
    return max(0, flat_top - start) + (x0**m) * float(t0) ** (1 - m) / (m - 1)


def _scalar_envelope_tail(prof, members, bump, half_bandwidth):
    """envelope_tail as the per-(member, divisor) loop of scalar sums, with
    sigma(d) from the divisor list and #I_q from the residue set."""
    total = 0.0
    for q, psi in zip(members.tolist(), prof.psi_values(members).tolist()):
        per_q = 0.0
        for d in divisors(q):
            per_q += divisor_sum(d) * _scalar_tail_sum(
                bump, psi / q * d, half_bandwidth // d)
        total += per_q / residue_set(q, *prof.pair(q)).count
    return 2.0 * total / len(members)


@pytest.mark.parametrize("scale", [4, 64, 256])
def test_envelope_tail_equals_scalar_formula(reference_profile, scale):
    members = reference_profile.bucket(ETA, scale).members
    data = _member_data(reference_profile, members)
    for L in (0, 1, 57, 15360, 1 << 16, 1 << 20, 1 << 30, 37275912996):
        assert (measure.envelope_tail(data, BUMP, L)
                == _scalar_envelope_tail(reference_profile, members, BUMP,
                                         L)), L


def test_envelope_tail_is_the_one_bucket_tail(reference_profile, monkeypatch):
    # every tail of a bucket factor, from the band searches, the recorded
    # tails and the certified floor, goes through envelope_tail; the
    # window's tails take scalar rates and are left out
    callers = []
    inner = BumpSpec.envelope_tail_sum

    def tail_sum(self, rate, start):
        if np.ndim(rate):
            callers.append(sys._getframe(1).f_code.co_name)
        return inner(self, rate, start)
    monkeypatch.setattr(BumpSpec, "envelope_tail_sum", tail_sum)
    stage = build_measure(reference_profile, eta=ETA, eps=EPS, stages=1)
    analyze.pointwise_error_bound(stage, float(stage.config.xi_max))
    assert len(callers) > 40
    assert set(callers) == {"envelope_tail"}


def test_envelope_tail_sum_arrays_equal_scalar_formula():
    rates = np.array([1e-18, 1e-9, 3.7e-5, 0.01, 0.505, 2.0, 0.0, -1.0])
    starts = np.array([5, 0, 1, 57, 15360, 1 << 30, 3, 3])
    got = BUMP.envelope_tail_sum(rates, starts)
    for r, s, g in zip(rates.tolist(), starts.tolist(), got.tolist()):
        assert g == _scalar_tail_sum(BUMP, r, s)
        assert BUMP.envelope_tail_sum(r, s) == g


# ----------------------------------------------------------------------
# stability gap and scale selection
# ----------------------------------------------------------------------

def test_opening_gap_anchor(reference_profile):
    grid = build_xi_grid(65536, 32)
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 4).members)
    gap = stability_gap(data, BUMP, ETA, EPS, 4, constant_series(), grid,
                        kernel_halfwidth=64)
    assert set(gap) == {"scale", "gap", "xi_argmax", "remainder_bound"}
    assert gap["scale"] == 4
    assert gap["gap"] == pytest.approx(1.725756431926317, rel=1e-12)
    assert gap["xi_argmax"] == 169.75
    assert gap["remainder_bound"] == pytest.approx(9.395187334614851e-12,
                                                   rel=1e-6)
    assert gap["remainder_bound"] < 1e-9 * gap["gap"]


def test_probe_allocations_stay_near_the_line(reference_profile, monkeypatch):
    # the M=256 stage-2 probe on 2 CPUs: its line, with the scratch and
    # the later-block pieces of assemble_line, sets a traced peak of
    # 9.7 MB with the member table built inside the trace; spare copies
    # of the probe arrays (the candidate's half line and full line kept
    # alive, a padded product block, full-length Hermitian checks) and
    # four live pieces took it to 12.3 MB
    periodic = gm_series(reference_profile, BUMP, ETA, 4, 1e-8,
                         1 << 20).series
    grid = build_xi_grid(65536, 32)
    # the member table, the labels and the factorize cache are built
    # outside the trace
    data = _member_data(reference_profile,
                        reference_profile.bucket(ETA, 256).members)
    _cpus(monkeypatch, 2)
    tracemalloc.start()
    try:
        gap = stability_gap(data, BUMP, ETA, EPS, 256, periodic, grid,
                            kernel_halfwidth=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap["gap"] == pytest.approx(0.5359429214178216, rel=1e-12)
    assert peak <= 10.5e6


def test_build_labels_and_tables_only_the_probed_buckets(monkeypatch):
    # the reference build walks the scales lazily: its probes reach
    # M = 256, whose bucket ends at q = 1,024, so only chunk 0 of the
    # window is labelled, and the label array holds that chunk alone.
    # Each probed scale's member table is built once: the accepted
    # probes hand theirs to the factor assembly.
    chunks, tables = [], []
    label = ApproximationProfile._label_chunk

    def counted(self, eta, labels, start):
        chunks.append((eta, start))
        return label(self, eta, labels, start)

    def member_data(profile, members):
        tables.append(members)
        return _member_data(profile, members)
    monkeypatch.setattr(ApproximationProfile, "_label_chunk", counted)
    monkeypatch.setattr(measure, "_member_data", member_data)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    with pytest.raises(BandwidthBudgetError,
                       match="factor at scale 256") as err:
        build_measure(prof, eta=ETA, eps=EPS, stages=3)
    assert err.value.partial.scales == (4,)
    assert chunks == [(ETA, 0)]
    assert len(prof._labels[ETA][0]) == _CHUNK
    probed = (4, 16, 32, 64, 128, 256)
    assert len(tables) == len(probed)
    for members, scale in zip(tables, probed):
        assert np.array_equal(members, prof.bucket(ETA, scale).members)


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


def test_final_stage_budget_exit_keeps_the_probe_log(reference_profile):
    """A budget too small for the final factor's core band stops the build
    before that factor, with the stage's probes in the partial log."""
    with pytest.raises(BandwidthBudgetError,
                       match=r"need 132581 coefficients, cap 131072 "
                             r"\(final stage product\)") as err:
        build_measure(reference_profile, eta=ETA, eps=EPS, stages=1,
                      config=BuildConfig(bandwidth_budget=1 << 17))
    partial = err.value.partial
    assert partial.stages == 0
    assert len(partial.gap_log) == 1
    (probe,) = partial.gap_log[0]
    assert probe["scale"] == 4
    assert probe["threshold"] is None


def test_calibration_constant(st1, st2):
    assert st1.c_stab == pytest.approx(3.451512863852634, rel=1e-12)
    assert st1.c_stab == pytest.approx(2.0 * st1.gap_log[0][0]["gap"], rel=1e-15)
    assert st2.c_stab == st1.c_stab


# ----------------------------------------------------------------------
# finished stages
# ----------------------------------------------------------------------

def test_window_only_stage(st0, density):
    assert st0.scales == ()
    assert st0.stages == 0
    assert st0.requested_stages == 0
    assert st0.normalization == 1.0
    assert st0.gfactors.half_bandwidth == 0
    assert st0.gfactors.coeff(0) == 1.0 + 0.0j
    assert density(st0).half_bandwidth == 57
    assert st0.uniform_error_bound == pytest.approx(8.499441290116247e-14,
                                                    rel=1e-9)
    assert st0.nonneg_min > -1e-12


def test_one_stage_frozen(st1, density):
    assert st1.scales == (4,)
    assert st1.stages == st1.requested_stages
    assert st1.normalization == pytest.approx(0.7878842692743078, rel=1e-12)
    assert st1.gfactors.half_bandwidth == 15360
    assert density(st1).half_bandwidth == 15417
    assert st1.uniform_error_bound == pytest.approx(5.98169044872018e-08,
                                                    rel=1e-9)
    assert st1.nonneg_min == pytest.approx(-1.0595412741620791e-10,
                                           rel=0, abs=1e-13)
    summary = dict(st1.factor_summaries[0])
    assert summary["scale"] == 4
    assert summary["count"] == 6
    assert summary["complete"] is True


def test_two_stage_frozen(st2, density):
    assert st2.scales == (4, 256)
    assert st2.stages == st2.requested_stages
    assert st2.normalization == pytest.approx(0.7902222355299489, rel=1e-12)
    # both blocks are cut at the export band the analyzer consumes
    assert st2.gfactors.half_bandwidth == 66169
    assert density(st2).half_bandwidth == 66169
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


def test_mean_is_exactly_one(st0, st1, st2, tmp_path, density):
    st1.save(tmp_path / "stage.bin")
    back = MeasureStage.load(tmp_path / "stage.bin")
    for stage in (st0, st1, st2):
        dens = density(stage)
        assert dens.coeff(0) == pytest.approx(1.0, abs=1e-12)
        assert dens.hermitian_defect() == 0.0
    for stage in (st0, st1, st2, back):
        assert stage.gfactors.hermitian_defect() == 0.0


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_save_load_round_trip(st1, tmp_path, density):
    path = tmp_path / "stage.bin"
    st1.save(path)
    back = MeasureStage.load(path)
    assert back.scales == st1.scales
    assert back.normalization == st1.normalization
    assert back.uniform_error_bound == st1.uniform_error_bound
    assert back.nonneg_min == st1.nonneg_min
    assert back.gap_log == st1.gap_log
    assert back.factor_summaries == st1.factor_summaries
    assert np.array_equal(density(back).coeffs, density(st1).coeffs)
    assert np.array_equal(back.gfactors.coeffs, st1.gfactors.coeffs)
    assert density(back).tail_bound == density(st1).tail_bound
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
def test_load_flipped_byte_is_artifact_error(saved_st1, data):
    # the trailing CRC-32 covers every byte before it, so a flip anywhere
    # (magic, header length, header, coefficient block or the checksum
    # itself) must raise
    path, raw = saved_st1
    start = 12 + struct.unpack_from("<Q", raw, 4)[0]
    pos = data.draw(st.one_of(
        st.integers(0, 11),
        st.integers(12, start - 1),
        st.integers(start, len(raw) - 5),
        st.integers(len(raw) - 4, len(raw) - 1),
        st.integers(0, len(raw) - 1)))
    flipped = bytearray(raw)
    flipped[pos] ^= data.draw(st.integers(1, 255))
    bad = path.with_name("flipped.bin")
    bad.write_bytes(bytes(flipped))
    with pytest.raises(ArtifactError):
        MeasureStage.load(bad)


# ----------------------------------------------------------------------
# build preconditions
# ----------------------------------------------------------------------

def test_build_rejects_eta_outside_unit_interval(reference_profile):
    with pytest.raises(ProfileError, match="eta"):
        build_measure(reference_profile, eta=1.5, eps=EPS, stages=0)


@pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
def test_build_rejects_bad_eps(reference_profile, eps):
    # the library check and its message are the CLI's
    with pytest.raises(ProfileError,
                       match="config key eps must be a finite number > 0"):
        build_measure(reference_profile, eta=ETA, eps=eps, stages=1)


@pytest.mark.parametrize("key, value", [
    ("samples_per_band", 0),
    ("kernel_halfwidth", 0),
    ("band_margin", -1),
    ("bandwidth_budget", 0),
    ("xi_max", 4096.7),
    ("tail_tol", -1.0),
    # lines past j = 2**26 would leave the exact phase tables
    ("xi_max", 1 << 26),
    ("bandwidth_budget", 1 << 27),
])
def test_build_config_rejects_bad_values(key, value):
    # one check for the CLI, library callers and artifact headers alike
    with pytest.raises(ProfileError, match=key):
        BuildConfig(**{key: value})


def test_build_config_stores_integral_xi_max_as_int():
    cfg = BuildConfig(xi_max=4096.0)
    assert cfg.xi_max == 4096 and type(cfg.xi_max) is int
