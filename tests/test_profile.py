"""Approximation profiles: radii, buckets, critical exponent, descriptors."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfourier.arith import coprime_density
from dfourier.bump import BumpSpec
from dfourier.errors import ProfileError
from dfourier.measure import build_measure, gm_series
from dfourier.profile import ApproximationProfile, Bucket, power_law_profile


@pytest.fixture(scope="module")
def tiny():
    return power_law_profile(2.0, 10, q_min=2, theta=0.3)


def test_power_law_values(reference_profile):
    p = reference_profile
    qs = np.array([2, 10, 1000])
    assert p.psi_values(qs).tolist() == [2.0 ** -2, 10.0 ** -2, 1000.0 ** -2]
    assert p.theta_of(7) == 0.3
    assert p.pair(7) == (0, 1)
    ms = p.members()
    assert ms[0] == 2 and ms[-1] == 1_000_000 and len(ms) == 999_999


def test_s_exponent_analytic(reference_profile):
    res = reference_profile.s_exponent("analytic")
    assert res.value == 1.0 / 3.0
    assert res.mode == "analytic" and res.confident
    assert power_law_profile(1.0, 1000).s_exponent().value == 0.5
    assert power_law_profile(0.5, 1000).s_exponent().value == 1.0 / 1.5


def test_s_exponent_empirical_agrees(reference_profile):
    res = reference_profile.s_exponent("empirical")
    assert res.mode == "empirical" and res.confident
    assert res.value == pytest.approx(0.34999837586656213, abs=1e-12)
    assert abs(res.value - 1.0 / 3.0) < 0.05


def test_s_exponent_bad_mode(reference_profile):
    with pytest.raises(ValueError):
        reference_profile.s_exponent("guess")


def test_reference_bucket(reference_profile):
    b = reference_profile.bucket(0.3, 4)
    assert b.k == 2
    assert b.members.tolist() == [5, 6, 7, 8, 9, 10]
    assert b.count == 6
    assert b.mass == pytest.approx(1.0260406602206753, rel=1e-12)
    assert not b.window_limited


def test_bucket_requires_power_of_two(reference_profile):
    with pytest.raises(ProfileError):
        reference_profile.bucket(0.3, 6)
    with pytest.raises(ProfileError):
        reference_profile.bucket(1.5, 4)


def _same_bucket(a, b):
    return (np.array_equal(a.members, b.members) and a.mass == b.mass
            and (a.scale, a.k, a.window_limited)
            == (b.scale, b.k, b.window_limited))


def test_bucket_memo_matches_fresh_profiles():
    # two etas interleaved on one profile give what fresh profiles give
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    asks = [(0.3, 8), (0.5, 8), (0.3, 16), (0.5, 8), (0.3, 8), (0.5, 32)]
    first = {}
    for eta, scale in asks:
        got = warm.bucket(eta, scale)
        fresh = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
        assert _same_bucket(got, fresh.bucket(eta, scale)), (eta, scale)
        assert got is first.setdefault((eta, scale), got)
        assert not got.members.flags.writeable
    # a warm profile still rejects a bad eta and a bad scale
    for eta, scale in ((1.5, 8), (0.0, 8), (0.3, 6), (0.5, 12)):
        with pytest.raises(ProfileError):
            warm.bucket(eta, scale)
    # the memo is outside the fields
    cold = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert warm.to_descriptor() == cold.to_descriptor()
    clone = ApproximationProfile.from_descriptor(warm.to_descriptor())
    assert clone == warm and hash(clone) == hash(warm)
    assert _same_bucket(clone.bucket(0.5, 8), warm.bucket(0.5, 8))


def test_scale_set_fills_the_bucket_memo(monkeypatch):
    # scale_set hands its admissible buckets to the memo: the same floats
    # as fresh bucket() calls, and a build indexes the window once
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    fresh = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        sset = warm.scale_set(eta, k_max=24)
        filled = {k: b for k, b in warm._buckets.items() if k[0] == eta}
        assert set(filled) == {(eta, M) for M in sset.scales()}
        for e in sset.admissible():
            got = filled[(eta, e.scale)]
            assert _same_bucket(got, fresh.bucket(eta, e.scale)), e.scale
            assert (got.count, got.mass) == (e.count, e.mass)
            assert not got.members.flags.writeable
            assert warm.bucket(eta, e.scale) is got
    for eta, scale in ((1.5, 8), (0.0, 8), (0.3, 6)):
        with pytest.raises(ProfileError):
            warm.bucket(eta, scale)

    calls = []
    index = ApproximationProfile._bucket_index

    def counted(self, eta):
        calls.append(eta)
        return index(self, eta)
    monkeypatch.setattr(ApproximationProfile, "_bucket_index", counted)
    build_measure(power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3),
                  eta=0.3, eps=0.05, stages=1)
    assert calls == [0.3]


def test_bucket_labels_index_the_window_once_per_eta(monkeypatch):
    # every bucket is a fresh _bucket_index cut, and gm_series at three
    # scales indexes the window once
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        qs, idx = warm._bucket_index(eta)
        for k in range(int(idx.max()) + 2):
            members = qs[idx == k]
            psi = warm.psi_values(members)
            want = Bucket(scale=1 << k, k=k, members=members,
                          mass=float(np.sum((psi / members) ** eta))
                          if len(members) else 0.0,
                          window_limited=warm._window_limited(eta, k,
                                                              members))
            assert _same_bucket(warm.bucket(eta, 1 << k), want), (eta, k)
        labels = warm._labels[eta]
        assert labels.dtype == np.int16 and labels.nbytes == 2 * 49_999

    calls = []
    index = ApproximationProfile._bucket_index

    def counted(self, eta):
        calls.append(eta)
        return index(self, eta)
    monkeypatch.setattr(ApproximationProfile, "_bucket_index", counted)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    for scale in (4, 8, 16):
        gm_series(prof, BumpSpec(), 0.3, scale, 1e-8, 1 << 26,
                  band_cap=2000)
    assert calls == [0.3]


def test_reference_scale_set(reference_profile):
    sset = reference_profile.scale_set(0.3, k_max=8)
    low = [e for e in sset.entries if e.k <= 8]
    counts = {e.k: e.count for e in low}
    assert counts == {1: 2, 2: 6, 3: 11, 4: 26, 5: 54, 6: 118, 7: 255, 8: 550}
    quals = {e.k: e.qualifies for e in low}
    assert quals == {1: False, 2: True, 3: True, 4: True, 5: True, 6: True,
                     7: True, 8: True}
    for e in sset.entries:
        assert e.qualifies == (e.mass >= 1.0 / e.k ** 2)
        assert e.size_ratio == pytest.approx(
            e.count / (e.scale / math.log(e.scale) ** 2), rel=1e-12)
    assert sset.scales() == tuple(e.scale for e in sset.admissible())


@given(st.floats(min_value=0.05, max_value=0.95))
def test_buckets_partition_members(tiny, eta):
    # no member lands in two buckets, and members strictly inside a
    # dyadic weight window land in exactly that bucket (boundary hits
    # may snap to the lower one)
    seen = {}
    for k in range(1, 16):
        for q in tiny.bucket(eta, 1 << k).members.tolist():
            assert q not in seen, f"q={q} in buckets {seen[q]} and {k}"
            seen[q] = k
    for q in tiny.members().tolist():
        u = 3.0 * eta * math.log2(q)       # -log2 of the weight
        if abs(u - round(u)) < 1e-9 or u <= 1.0:
            continue
        assert seen.get(q) == math.ceil(u) - 1


def test_window_limited_flags(tiny):
    # the top bucket of a 10-wide window is cut off by the window edge
    assert not tiny.bucket(0.3, 4).window_limited
    assert tiny.bucket(0.3, 8).window_limited


def test_descriptor_round_trip(reference_profile):
    desc = reference_profile.to_descriptor()
    clone = ApproximationProfile.from_descriptor(desc)
    assert clone.to_descriptor() == desc
    assert clone.psi_values(np.array([17]))[0] == 17.0 ** -2


def test_descriptor_rejects_unknown_keys():
    with pytest.raises(ProfileError):
        ApproximationProfile.from_descriptor({"window": [2, 10], "bogus": 1})


def test_table_profile_round_trip():
    desc = {
        "window": [2, 9],
        "psi": {"kind": "table", "values": {"3": 0.01, "7": 0.002}},
        "theta": {"kind": "table", "values": {"3": 0.25}},
        "coprime": {"kind": "table", "pairs": {"3": [1, 2]}},
        "q_member": {"kind": "list", "values": [3, 7]},
    }
    p = ApproximationProfile.from_descriptor(desc)
    assert p.members().tolist() == [3, 7]
    assert p.psi_values(np.array([3, 7])).tolist() == [0.01, 0.002]
    assert p.theta_of(3) == 0.25 and p.theta_of(7) == 0.0
    assert p.pair(3) == (1, 2) and p.pair(7) == (0, 1)
    assert ApproximationProfile.from_descriptor(
        p.to_descriptor()).to_descriptor() == p.to_descriptor()


def test_convergence_series_partial(reference_profile):
    # independent accumulation over a small prefix
    total = 0.0
    for q in range(2, 41):
        total += (q ** -2.0) ** 1.0 * float(coprime_density(q, 1))
    assert reference_profile.convergence_series_partial(40) == pytest.approx(
        total, rel=1e-12)
    p100 = reference_profile.convergence_series_partial(100)
    p200 = reference_profile.convergence_series_partial(200)
    assert p200 >= p100 >= total


def test_residue_fraction_consistency(reference_profile):
    # the profile's classical pair reproduces the Euler product density
    for q in (6, 30, 97):
        a, b = reference_profile.pair(q)
        assert a == 0 and b == 1
        assert coprime_density(q, b) == Fraction(
            math.prod(p - 1 for p, _ in _factor(q)),
            math.prod(p for p, _ in _factor(q)))


def _factor(n):
    from dfourier.arith import factorize
    return factorize(n)
