"""Approximation profiles: radii, buckets, critical exponent, descriptors."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfourier.arith import coprime_density
from dfourier.bump import BumpSpec
from dfourier.errors import ProfileError
from dfourier.measure import build_measure, gm_series
from dfourier.profile import (_CHUNK, ApproximationProfile, Bucket,
                              power_law_profile)


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
    for eta, scale in asks:
        got = warm.bucket(eta, scale)
        fresh = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
        assert _same_bucket(got, fresh.bucket(eta, scale)), (eta, scale)
        assert not got.members.flags.writeable
    # a warm profile still rejects a bad eta and a bad scale
    for eta, scale in ((1.5, 8), (0.0, 8), (0.3, 6), (0.5, 12)):
        with pytest.raises(ProfileError):
            warm.bucket(eta, scale)
    # the labels memo is outside the fields
    cold = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert warm.to_descriptor() == cold.to_descriptor()
    clone = ApproximationProfile.from_descriptor(warm.to_descriptor())
    assert clone == warm and hash(clone) == hash(warm)
    assert _same_bucket(clone.bucket(0.5, 8), warm.bucket(0.5, 8))


def _whole_window_labels(p, eta):
    # oracle: one pass over every member of the window, the labels the
    # chunked labeller must reproduce bit for bit
    qs = p.members()
    psi = p.psi_values(qs)
    qs, psi = qs[psi > 0.0], psi[psi > 0.0]
    u = eta * (np.log2(qs.astype(float)) - np.log2(psi))
    r = np.round(u)
    snap = np.abs(u - r) <= 1e-12 * np.maximum(1.0, np.abs(u))
    return qs, np.where(snap, r, np.ceil(u)).astype(np.int64) - 1


def _oracle_bucket(p, eta, k, qs, idx):
    members = qs[idx == k]
    psi = p.psi_values(members)
    return Bucket(scale=1 << k, k=k, members=members,
                  mass=float(np.sum((psi / members) ** eta))
                  if len(members) else 0.0,
                  window_limited=p._window_limited(eta, k, members))


def _count_chunks(monkeypatch):
    # (profile, eta, first offset) of every chunk the labeller labels
    seen = []
    label = ApproximationProfile._label_chunk

    def counted(self, eta, labels, start):
        seen.append((id(self), eta, start))
        return label(self, eta, labels, start)
    monkeypatch.setattr(ApproximationProfile, "_label_chunk", counted)
    return seen


def _reach(eta, k):
    # log2 of the largest q bucket k can hold: u > eta (log2 q + 1)
    return (k + 2) / eta - 1


def test_scale_set_fills_the_bucket_memo(monkeypatch):
    # scale_set's buckets are the same floats as fresh profiles' bucket()
    # calls, and a one-stage build labels each chunk of the window once
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        sset = warm.scale_set(eta, k_max=24)
        assert sset.admissible()
        for e in sset.entries:
            fresh = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
            want = fresh.bucket(eta, e.scale)
            got = warm.bucket(eta, e.scale)
            assert _same_bucket(got, want), e.scale
            assert (got.count, got.mass) == (e.count, e.mass)
            assert not got.members.flags.writeable
    for eta, scale in ((1.5, 8), (0.0, 8), (0.3, 6)):
        with pytest.raises(ProfileError):
            warm.bucket(eta, scale)

    seen = _count_chunks(monkeypatch)
    build_measure(power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3),
                  eta=0.3, eps=0.05, stages=1)
    assert len(seen) == len(set(seen))
    assert {eta for _, eta, _ in seen} == {0.3}
    # scale_set needs the whole window: every chunk, each once
    assert sorted(start for _, _, start in seen) == list(
        range(0, 999_999, _CHUNK))


def test_bucket_labels_index_the_window_once_per_eta(monkeypatch):
    # every bucket is the whole-window oracle's cut, and gm_series at
    # three scales labels each chunk at most once, none past the reach
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        qs, idx = _whole_window_labels(warm, eta)
        for k in range(int(idx.max()) + 2):
            want = _oracle_bucket(warm, eta, k, qs, idx)
            assert _same_bucket(warm.bucket(eta, 1 << k), want), (eta, k)
        labels, done = warm._labels[eta]
        assert labels.dtype == np.int16 and labels.nbytes == 2 * 49_999
        assert done >= 49_999

    seen = _count_chunks(monkeypatch)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    for scale in (4, 8, 16):
        gm_series(prof, BumpSpec(), 0.3, scale, 1e-8, 1 << 26,
                  band_cap=2000)
    assert len(seen) == len(set(seen))
    # M = 16 reaches q = 2**19; the chunks past it stay unlabelled
    assert [start for _, _, start in seen] == list(
        range(0, math.floor(2 ** _reach(0.3, 4)) - 1, _CHUNK))


def test_bucket_labels_no_chunk_past_its_reach(monkeypatch):
    # the M = 4 bucket of the reference window needs q <= 2**12.3 only:
    # one chunk of 16, and the same bucket as a whole-window cut
    seen = _count_chunks(monkeypatch)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    got = prof.bucket(0.3, 4)
    assert seen == [(id(prof), 0.3, 0)]
    assert all(prof.q_min + start <= 2 ** _reach(0.3, 2)
               for _, _, start in seen)
    qs, idx = _whole_window_labels(prof, 0.3)
    assert _same_bucket(got, _oracle_bucket(prof, 0.3, 2, qs, idx))
    # asking again, or for a lower bucket, labels nothing new
    prof.bucket(0.3, 4)
    prof.bucket(0.3, 2)
    assert len(seen) == 1
    # a very high bucket has a reach past every float; it covers the
    # window without an overflow
    assert prof.bucket(0.3, 1 << 400).count == 0
    assert len(seen) == len(range(0, 999_999, _CHUNK))


def _table_profile():
    rng = np.random.default_rng(7)
    qs = rng.choice(np.arange(2, 200_000), size=3000, replace=False)
    psi = rng.uniform(0.0, 0.49, size=len(qs)) ** 3
    psi[:300] = 0.0
    psi[300:320] = 0.49
    return ApproximationProfile(q_min=2, q_max=200_000, psi_kind="table",
                                psi_table=dict(zip(qs.tolist(),
                                                   psi.tolist())),
                                theta_value=0.3)


_ORACLE_PROFILES = {
    "power_law": lambda: power_law_profile(1.5, 300_000, q_min=2),
    "table": _table_profile,
    "list": lambda: ApproximationProfile(
        q_min=3, q_max=250_000, tau=1.0,
        member_list=tuple(range(3, 250_000, 97)) + (249_999,),
        member_kind="list"),
    "residue_classes": lambda: ApproximationProfile(
        q_min=2, q_max=200_000, tau=2.0, member_kind="residue_classes",
        member_modulus=7, member_classes=(1, 3, 6)),
}


def _check_against_oracle(kind, eta):
    # buckets asked for from the lowest up, so the labels grow by chunks
    # as the reach grows; each is the oracle's cut and ends below its
    # reach, and scale_set on the same profile agrees with both
    prof = _ORACLE_PROFILES[kind]()
    qs, idx = _whole_window_labels(prof, eta)
    top = int(idx.max()) + 2
    for k in range(top):
        got = prof.bucket(eta, 1 << k)
        assert _same_bucket(got, _oracle_bucket(prof, eta, k, qs, idx)), k
        if got.count:
            assert math.log2(got.members[-1]) <= _reach(eta, k)
    counts = {e.k: e.count for e in prof.scale_set(eta, k_max=top).entries}
    assert counts == {k: int(np.sum(idx == k)) for k in range(1, top + 1)}


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("kind", sorted(_ORACLE_PROFILES))
def test_chunked_labels_match_the_whole_window_oracle(kind, eta):
    _check_against_oracle(kind, eta)


@settings(max_examples=8)
@given(st.sampled_from(sorted(_ORACLE_PROFILES)),
       st.floats(min_value=0.05, max_value=0.95))
def test_chunked_labels_match_the_oracle_at_any_eta(kind, eta):
    _check_against_oracle(kind, eta)


def test_bucket_allocations_stay_per_chunk():
    # a whole-window temporary (about 54 MB on this window) fails here:
    # bucket(0.3, 4) labels one chunk, scale_set all 16 in turn
    for call, bound in ((lambda p: p.bucket(0.3, 4), 8e6),
                        (lambda p: p.scale_set(0.3), 24e6)):
        prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
        tracemalloc.start()
        try:
            call(prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


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
