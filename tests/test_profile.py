"""Approximation profiles: radii, buckets, critical exponent, descriptors."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfourier.arith import residue_count
from dfourier.bump import BumpSpec
from dfourier.errors import ProfileError
from dfourier.measure import build_measure, gm_series
from dfourier.profile import (_CHUNK, _REACH_RTOL, ApproximationProfile,
                              Bucket, power_law_profile)


@pytest.fixture(scope="module")
def tiny():
    return power_law_profile(2.0, 10, q_min=2, theta=0.3)


def test_power_law_values(reference_profile):
    p = reference_profile
    qs = np.array([2, 10, 1000])
    assert p.psi_values(qs).tolist() == [2.0 ** -2, 10.0 ** -2, 1000.0 ** -2]
    assert p.theta_values([7, 11]).tolist() == [0.3, 0.3]
    assert p.pair(7) == (0, 1)
    ms = p.members()
    assert ms[0] == 2 and ms[-1] == 1_000_000 and len(ms) == 999_999


def test_s_exponent_analytic(reference_profile):
    res = reference_profile.s_exponent()
    assert res.value == 1.0 / 3.0
    assert res.mode == "analytic"
    assert power_law_profile(1.0, 1000).s_exponent().value == 0.5
    assert power_law_profile(0.5, 1000).s_exponent().value == 1.0 / 1.5


def test_s_exponent_empirical_agrees(reference_profile):
    # the bisection on power-law radii lands near the closed form
    res = reference_profile._s_empirical()
    assert res.mode == "empirical"
    assert res.value == pytest.approx(0.34999837586656213, abs=1e-12)
    assert abs(res.value - 1.0 / 3.0) < 0.05
    # table radii take the bisection: the same radii as a table give
    # the same exponent
    power = power_law_profile(2.0, 1 << 14, q_min=2)
    qs = power.members()
    table = ApproximationProfile(
        q_min=2, q_max=1 << 14, psi_kind="table",
        psi_table=dict(zip(qs.tolist(), power.psi_values(qs).tolist())))
    assert table.s_exponent() == power._s_empirical()
    assert table.s_exponent().mode == "empirical"


_S_PROFILES = st.one_of(
    # power-law radii, tau > 0, on a window that reaches psi < 1/2
    st.floats(min_value=0.02, max_value=1e6).map(
        lambda tau: power_law_profile(tau, 2**62)),
    # table radii: any table on a small window
    st.dictionaries(st.integers(2, 4096), st.floats(0.0, 0.499),
                    max_size=300).map(
        lambda table: ApproximationProfile(q_min=2, q_max=4096,
                                           psi_kind="table",
                                           psi_table=table)),
    # table radii shaped like q**-t, so the bisection runs
    st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 0.49)).map(
        lambda tc: ApproximationProfile(
            q_min=2, q_max=4096, psi_kind="table",
            psi_table={q: tc[1] * q ** -tc[0] for q in range(2, 4097)})))


@settings(max_examples=40, deadline=None)
@given(_S_PROFILES)
def test_s_exponent_lies_in_unit_interval(prof):
    # with s <= 1 the fixed kernel's smoothness K = 10 > s + 4 holds for
    # every profile, so the build needs no smoothness check
    assert 0.0 <= prof.s_exponent().value <= 1.0


def test_reference_bucket(reference_profile):
    b = reference_profile.bucket(0.3, 4)
    assert b.k == 2
    assert b.members.tolist() == [5, 6, 7, 8, 9, 10]
    assert b.count == 6
    assert b.mass == pytest.approx(1.0260406602206753, rel=1e-12)
    assert not reference_profile.scale_set(0.3).entries[1].window_limited


def test_bucket_requires_power_of_two(reference_profile):
    with pytest.raises(ProfileError):
        reference_profile.bucket(0.3, 6)
    with pytest.raises(ProfileError):
        reference_profile.bucket(1.5, 4)


def _same_bucket(a, b, rel=0.0):
    # rel = 0: the same floats; against the oracle, the mass within rel
    # of its math.fsum
    return (np.array_equal(a.members, b.members)
            and abs(a.mass - b.mass) <= rel * b.mass
            and a.k == b.k)


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
    # the mass as an exactly rounded sum
    members = qs[idx == k]
    psi = p.psi_values(members)
    return Bucket(k=k, members=members,
                  mass=math.fsum((psi / members) ** eta))


def _oracle_limited(p, eta, k, members):
    # the edge rule of irregular profiles read off the members themselves
    if p.psi_kind == "power_law" and p.member_kind == "all":
        return p._window_limited(eta, k)        # closed form
    return bool(len(members) == 0 or members[0] == p.q_min
                or members[-1] == p.q_max)


def _count_chunks(monkeypatch):
    # (profile, eta, first offset) of every chunk the labeller labels
    seen = []
    label = ApproximationProfile._label_chunk

    def counted(self, eta, labels, start):
        seen.append((id(self), eta, start))
        return label(self, eta, labels, start)
    monkeypatch.setattr(ApproximationProfile, "_label_chunk", counted)
    return seen


def _reach(p, eta, k):
    # log2 of the largest q bucket k can hold, u <= k + 1 up to the snap:
    # u = eta (1 + tau) log2 q for power-law radii, u > eta (log2 q + 1)
    # for any radius below 1/2
    top = (k + 1) * (1 + _REACH_RTOL) / eta
    return top / (1 + p.tau) if p.psi_kind == "power_law" else top - 1


def test_scale_set_fills_the_bucket_memo(monkeypatch):
    # scale_set's buckets are the same floats as fresh profiles' bucket()
    # calls, and a one-stage build labels only the chunks its probe
    # reaches, each once
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        sset = warm.scale_set(eta, k_max=24)
        assert any(e.admissible for e in sset.entries)
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
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    build_measure(prof, eta=0.3, eps=0.05, stages=1)
    # the opening probe at M = 4 reaches q = 10: chunk 0 alone
    assert seen == [(id(prof), 0.3, 0)]
    assert len(prof._labels[0.3][0]) == _CHUNK


def test_bucket_labels_index_the_window_once_per_eta(monkeypatch):
    # every bucket is the whole-window oracle's cut, and gm_series at
    # three scales labels each chunk at most once, none past the reach
    warm = power_law_profile(2.0, 50_000, q_min=2, theta=0.3)
    for eta in (0.3, 0.5):
        qs, idx = _whole_window_labels(warm, eta)
        for k in range(int(idx.max()) + 2):
            want = _oracle_bucket(warm, eta, k, qs, idx)
            assert _same_bucket(warm.bucket(eta, 1 << k), want,
                                rel=1e-13), (eta, k)
        labels = warm._labels[eta][0]
        assert labels.dtype == np.int16 and labels.nbytes == 2 * 49_999

    seen = _count_chunks(monkeypatch)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    for scale in (4, 8, 16):
        gm_series(prof, BumpSpec(), 0.3, scale, 1e-8, 1 << 26,
                  band_cap=2000)
    assert len(seen) == len(set(seen))
    # M = 16 reaches q = 2**5.56; the chunks past it stay unlabelled
    assert [start for _, _, start in seen] == list(
        range(0, math.floor(2 ** _reach(prof, 0.3, 4)) - 1, _CHUNK)) == [0]
    assert len(prof._labels[0.3][0]) == _CHUNK


def test_bucket_labels_no_chunk_past_its_reach(monkeypatch):
    # the M = 4 bucket of the reference window needs q <= 2**3.33 only:
    # one chunk of 16, and the same bucket as a whole-window cut
    seen = _count_chunks(monkeypatch)
    prof = power_law_profile(2.0, 1_000_000, q_min=2, theta=0.3)
    got = prof.bucket(0.3, 4)
    assert seen == [(id(prof), 0.3, 0)]
    assert len(prof._labels[0.3][0]) == _CHUNK
    assert all(prof.q_min + start <= 2 ** _reach(prof, 0.3, 2)
               for _, _, start in seen)
    qs, idx = _whole_window_labels(prof, 0.3)
    assert _same_bucket(got, _oracle_bucket(prof, 0.3, 2, qs, idx), rel=1e-13)
    # asking again, or for a lower bucket, labels nothing new
    prof.bucket(0.3, 4)
    prof.bucket(0.3, 2)
    assert len(seen) == 1
    # a very high bucket has a reach past every float; it covers the
    # window without an overflow
    assert prof.bucket(0.3, 1 << 400).count == 0
    assert len(seen) == len(range(0, 999_999, _CHUNK))
    assert len(prof._labels[0.3][0]) == 999_999


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
    # as the reach grows; each is the oracle's cut, its mass within 1e-13
    # of the exactly rounded sum, and ends below its reach; scale_set on
    # the same profile agrees with both, and the lazy walk on a fresh
    # profile yields exactly scale_set's admissible entries
    prof = _ORACLE_PROFILES[kind]()
    qs, idx = _whole_window_labels(prof, eta)
    top = int(idx.max()) + 2
    got = {}
    for k in range(top):
        got[k] = prof.bucket(eta, 1 << k)
        assert _same_bucket(got[k], _oracle_bucket(prof, eta, k, qs, idx),
                            rel=1e-13), k
        if got[k].count:
            assert math.log2(got[k].members[-1]) <= _reach(prof, eta, k)
        # the label array ends with the chunk that holds the reach
        reach = math.floor(2 ** min(_reach(prof, eta, k), 63))
        assert len(prof._labels[eta][0]) <= max(0, reach - prof.q_min
                                                 + _CHUNK)
    entries = prof.scale_set(eta, k_max=top).entries
    assert [e.k for e in entries] == list(range(1, top + 1))
    for e in entries:
        want = got.get(e.k) or prof.bucket(eta, e.scale)
        assert (e.count, e.mass, e.window_limited) == (
            want.count, want.mass,
            _oracle_limited(prof, eta, e.k, want.members)), e.k
        assert e.count == int(np.sum(idx == e.k))
    walk = list(_ORACLE_PROFILES[kind]().admissible_scales(eta))
    assert walk == [e for e in prof.scale_set(eta).entries if e.admissible]
    assert all(e.admissible == (e.qualifies and not e.window_limited)
               for e in entries)


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
    # bucket(0.3, 4) labels one chunk, scale_set all 16 in turn and cuts
    # no bucket (5.9 MB traced; 20.6 MB when it cut each one)
    for call, bound in ((lambda p: p.bucket(0.3, 4), 8e6),
                        (lambda p: p.scale_set(0.3), 7e6)):
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
    # the build's walk stops at the window's top label, as scale_set does
    assert list(reference_profile.admissible_scales(0.3)) == [
        e for e in reference_profile.scale_set(0.3).entries
        if e.qualifies and not e.window_limited]


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
    entries = tiny.scale_set(0.3, k_max=3).entries
    assert [e.window_limited for e in entries[1:3]] == [False, True]


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
    assert p.theta_values([3, 7]).tolist() == [0.25, 0.0]
    assert p.pair(3) == (1, 2) and p.pair(7) == (0, 1)
    assert ApproximationProfile.from_descriptor(
        p.to_descriptor()).to_descriptor() == p.to_descriptor()


def test_residue_fraction_consistency(reference_profile):
    # the profile's classical pair reproduces the Euler product density
    for q in (6, 30, 97):
        a, b = reference_profile.pair(q)
        assert a == 0 and b == 1
        assert Fraction(residue_count(q, b), q) == Fraction(
            math.prod(p - 1 for p, _ in _factor(q)),
            math.prod(p for p, _ in _factor(q)))


def _factor(n):
    from dfourier.arith import factorize
    return factorize(n)
