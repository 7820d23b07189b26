"""Approximation profiles: denominators, radii, shifts, coprimality pairs.

A profile fixes everything the measure construction needs to know about
the target set: the window of admissible denominators q, the shrinking
radius function psi, the inhomogeneous shift theta, and the coprimality
pair (a, b) restricting numerators to gcd(b*p + a, q) = 1.  The profile
also owns the two derived quantities the builder keys off: the critical
series exponent s(psi) and the dyadic bucket decomposition driven by a
weight exponent eta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .arith import validate_pair
from .errors import ProfileError

_PSI_KINDS = ("power_law", "table")
_THETA_KINDS = ("constant", "table")
_COPRIME_KINDS = ("classical", "unrestricted", "table")
_MEMBER_KINDS = ("all", "list", "residue_classes")

# relative snap tolerance for bucket boundaries; boundary hits are
# assigned to the lower bucket index deterministically
_SNAP_RTOL = 1e-12
# denominators labelled per pass of the bucket labeller
_CHUNK = 1 << 16
# relative margin on k + 1 in a bucket's reach (``_reach``)
_REACH_RTOL = 1e-9


def _freeze_table(table) -> tuple:
    if table is None:
        return ()
    if isinstance(table, Mapping):
        items = table.items()
    else:
        items = table
    return tuple(sorted((int(q), v) for q, v in items))


def _integers(values, what: str) -> tuple:
    """The given descriptor numbers, which must be ints: a fraction is
    an error, not something to truncate."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise ProfileError(f"profile {what} must be integers, "
                           f"got {list(values)}")
    return values


def _descriptor_kwargs(desc: Mapping) -> dict:
    """Constructor arguments of ``ApproximationProfile`` from a descriptor."""
    known = {"window", "psi", "theta", "coprime", "q_member"}
    extra = set(desc) - known
    if extra:
        raise ProfileError(f"unknown profile keys: {sorted(extra)}")
    window = desc.get("window")
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ProfileError("profile needs a two-element window")
    kw: dict = dict(zip(("q_min", "q_max"), _integers(window, "window")))
    psi = dict(desc.get("psi") or {"kind": "power_law"})
    kw["psi_kind"] = psi.pop("kind", "power_law")
    if kw["psi_kind"] == "power_law":
        kw["tau"] = float(psi.pop("tau", 2.0))
    else:
        kw["psi_table"] = {int(q): float(v)
                           for q, v in psi.pop("values", {}).items()}
    theta = dict(desc.get("theta") or {"kind": "constant"})
    kw["theta_kind"] = theta.pop("kind", "constant")
    if kw["theta_kind"] == "constant":
        kw["theta_value"] = float(theta.pop("value", 0.0))
    else:
        kw["theta_table"] = {int(q): float(v)
                             for q, v in theta.pop("values", {}).items()}
    coprime = dict(desc.get("coprime") or {"kind": "classical"})
    kw["coprime_kind"] = coprime.pop("kind", "classical")
    if kw["coprime_kind"] == "table":
        kw["pair_table"] = {int(q): _integers(ab, f"pair at q={q}")
                            for q, ab in coprime.pop("pairs", {}).items()}
    member = dict(desc.get("q_member") or {"kind": "all"})
    kw["member_kind"] = member.pop("kind", "all")
    if kw["member_kind"] == "list":
        kw["member_list"] = _integers(member.pop("values", []), "members")
    elif kw["member_kind"] == "residue_classes":
        (kw["member_modulus"],) = _integers([member.pop("modulus", 0)],
                                            "member modulus")
        kw["member_classes"] = _integers(member.pop("classes", []),
                                         "member classes")
    for name, sub in (("psi", psi), ("theta", theta),
                      ("coprime", coprime), ("q_member", member)):
        if sub:
            raise ProfileError(f"unknown {name} keys: {sorted(sub)}")
    return kw


# ----------------------------------------------------------------------
# profile data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationProfile:
    """Immutable description of one approximation problem.

    Parameters
    ----------
    q_min, q_max : int
        Inclusive window of denominators, with 2 <= q_min <= q_max.
    psi_kind : str
        "power_law" (psi(q) = q**-tau) or "table".
    tau : float
        Power-law exponent; ignored for table radii.
    psi_table : mapping or pairs
        Radius per denominator for the table kind.
    theta_kind, theta_value, theta_table
        Shift function, constant in [0, 1) or tabulated.
    coprime_kind : str
        "classical" uses the pair (0, 1) (numerators coprime to q),
        "unrestricted" uses (1, q) (no restriction), "table" reads the
        pair per denominator with default (0, 1).
    pair_table : mapping or pairs
        Per-denominator (a, b) for the table kind.
    member_kind : str
        "all", "list" (explicit denominators) or "residue_classes".
    member_list, member_modulus, member_classes
        Data for the restricted membership kinds.

    Raises
    ------
    ProfileError
        If any radius falls outside [0, 1/2), a pair is invalid, or the
        window is malformed.
    """

    q_min: int
    q_max: int
    psi_kind: str = "power_law"
    tau: float = 2.0
    psi_table: tuple = field(default=())
    theta_kind: str = "constant"
    theta_value: float = 0.0
    theta_table: tuple = field(default=())
    coprime_kind: str = "classical"
    pair_table: tuple = field(default=())
    member_kind: str = "all"
    member_list: tuple = field(default=())
    member_modulus: int = 0
    member_classes: tuple = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi_table", _freeze_table(self.psi_table))
        object.__setattr__(self, "theta_table", _freeze_table(self.theta_table))
        pt = self.pair_table
        items = pt.items() if isinstance(pt, Mapping) else (pt or ())
        object.__setattr__(self, "pair_table",
                           tuple(sorted((int(q), (int(ab[0]), int(ab[1])))
                                        for q, ab in items)))
        # lookups built once; plain attributes, so equality, repr and
        # hashing still see only the fields
        for name, table in (("_psi", self.psi_table),
                            ("_theta", self.theta_table),
                            ("_pair", self.pair_table)):
            object.__setattr__(self, name, dict(table))
        # _bucket_labels() memo per eta: (labels of the labelled chunks,
        # and the count and mass of each bucket index over them)
        object.__setattr__(self, "_labels", {})
        object.__setattr__(self, "member_list",
                           tuple(sorted(int(q) for q in self.member_list)))
        object.__setattr__(self, "member_classes",
                           tuple(sorted(int(c) for c in self.member_classes)))
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if not (isinstance(self.q_min, int) and isinstance(self.q_max, int)):
            raise ProfileError("window bounds must be integers")
        if not 2 <= self.q_min <= self.q_max:
            raise ProfileError("window must satisfy 2 <= q_min <= q_max")
        if self.psi_kind not in _PSI_KINDS:
            raise ProfileError(f"unknown radius kind {self.psi_kind!r}")
        if self.theta_kind not in _THETA_KINDS:
            raise ProfileError(f"unknown shift kind {self.theta_kind!r}")
        if self.coprime_kind not in _COPRIME_KINDS:
            raise ProfileError(f"unknown coprimality kind {self.coprime_kind!r}")
        if self.member_kind not in _MEMBER_KINDS:
            raise ProfileError(f"unknown membership kind {self.member_kind!r}")

        if self.psi_kind == "power_law":
            if not math.isfinite(self.tau) or self.tau <= 0.0:
                raise ProfileError("power-law exponent must be positive and finite")
            if float(self.q_min) ** (-self.tau) >= 0.5:
                raise ProfileError(
                    "radius at q_min must stay below 1/2; raise q_min "
                    f"(got q_min={self.q_min}, tau={self.tau})")
        else:
            for q, v in self.psi_table:
                if not (0.0 <= float(v) < 0.5):
                    raise ProfileError(f"radius {v} at q={q} outside [0, 1/2)")

        if self.theta_kind == "constant":
            if not 0.0 <= self.theta_value < 1.0:
                raise ProfileError("constant shift must lie in [0, 1)")
        else:
            for q, v in self.theta_table:
                if not 0.0 <= float(v) < 1.0:
                    raise ProfileError(f"shift {v} at q={q} outside [0, 1)")

        for q, (a, b) in self.pair_table:
            try:
                validate_pair(a, b)
            except ValueError as exc:
                raise ProfileError(f"bad coprimality pair at q={q}: {exc}") from exc

        if self.member_kind == "residue_classes":
            if self.member_modulus < 1:
                raise ProfileError("residue membership needs a positive modulus")
            for c in self.member_classes:
                if not 0 <= c < self.member_modulus:
                    raise ProfileError(f"residue class {c} outside the modulus")

    # -- membership ----------------------------------------------------

    def member_mask(self, qs: np.ndarray) -> np.ndarray:
        """Boolean mask of window membership for an integer array."""
        qs = np.asarray(qs, dtype=np.int64)
        mask = (qs >= self.q_min) & (qs <= self.q_max)
        if self.member_kind == "list":
            mask &= np.isin(qs, np.asarray(self.member_list, dtype=np.int64))
        elif self.member_kind == "residue_classes":
            mask &= np.isin(qs % self.member_modulus,
                            np.asarray(self.member_classes, dtype=np.int64))
        if self.psi_kind == "table":
            mask &= np.isin(qs, list(self._psi))
        return mask

    def members(self, q_hi: int | None = None) -> np.ndarray:
        """Sorted array of the member denominators in the window, only
        those up to ``q_hi`` when it is given."""
        top = self.q_max if q_hi is None else math.floor(min(q_hi, self.q_max))
        try:
            qs = np.arange(self.q_min, top + 1, dtype=np.int64)
        except ValueError as exc:   # more bytes than any address space
            raise MemoryError(str(exc)) from None
        return qs[self.member_mask(qs)]

    # -- the three component maps ---------------------------------------

    def psi_values(self, qs: np.ndarray) -> np.ndarray:
        """Radii for an array of member denominators (0 for non-members)."""
        qs = np.asarray(qs, dtype=np.int64)
        mask = self.member_mask(qs)
        if self.psi_kind == "power_law":
            vals = np.where(mask, np.asarray(qs, dtype=float) ** (-self.tau), 0.0)
        else:
            vals = np.array([self._psi.get(int(q), 0.0) if m else 0.0
                             for q, m in zip(qs, mask)], dtype=float)
        return vals

    def theta_values(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=np.int64)
        if self.theta_kind == "constant":
            return np.full(len(qs), self.theta_value)
        return np.array([self._theta.get(int(q), 0.0) for q in qs],
                        dtype=float)

    def pair(self, q: int) -> tuple[int, int]:
        """Coprimality pair (a, b) for denominator q."""
        if self.coprime_kind == "classical":
            return (0, 1)
        if self.coprime_kind == "unrestricted":
            return (1, int(q))
        return self._pair.get(int(q), (0, 1))

    # -- serialization ---------------------------------------------------

    def to_descriptor(self) -> dict:
        """JSON-friendly nested description; round-trips exactly."""
        psi: dict = {"kind": self.psi_kind}
        if self.psi_kind == "power_law":
            psi["tau"] = self.tau
        else:
            psi["values"] = {str(q): v for q, v in self.psi_table}
        theta: dict = {"kind": self.theta_kind}
        if self.theta_kind == "constant":
            theta["value"] = self.theta_value
        else:
            theta["values"] = {str(q): v for q, v in self.theta_table}
        coprime: dict = {"kind": self.coprime_kind}
        if self.coprime_kind == "table":
            coprime["pairs"] = {str(q): [a, b] for q, (a, b) in self.pair_table}
        member: dict = {"kind": self.member_kind}
        if self.member_kind == "list":
            member["values"] = list(self.member_list)
        elif self.member_kind == "residue_classes":
            member["modulus"] = self.member_modulus
            member["classes"] = list(self.member_classes)
        return {"window": [self.q_min, self.q_max], "psi": psi,
                "theta": theta, "coprime": coprime, "q_member": member}

    @classmethod
    def from_descriptor(cls, desc: Mapping) -> "ApproximationProfile":
        """Inverse of ``to_descriptor``; unknown keys are rejected.

        Anything but a well-formed descriptor raises ``ProfileError``,
        not the bare error of a failed conversion.
        """
        if not isinstance(desc, Mapping):
            raise ProfileError(f"profile must be an object, not {desc!r}")
        try:
            return cls(**_descriptor_kwargs(desc))
        except ProfileError:
            raise
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ProfileError(f"malformed profile "
                               f"({type(exc).__name__}: {exc})") from exc

    # -- critical exponent ------------------------------------------------

    def s_exponent(self) -> "SExponentResult":
        """Critical exponent of sum (psi(q)/q)**s over member denominators.

        Power-law radii get the closed form, exact on the ideal unbounded
        window (mode ``analytic``); table radii classify partial-sum
        growth across dyadic octaves by bisection on s (``empirical``).
        """
        if self.psi_kind == "power_law":
            return SExponentResult(min(1.0, 1.0 / (1.0 + self.tau)),
                                   "analytic")
        return self._s_empirical()

    def _s_empirical(self) -> "SExponentResult":
        # table radii vanish off the (sorted) keys; psi is 0 off the members
        qs = (np.array(list(self._psi), dtype=np.int64)
              if self.psi_kind == "table" else self.members())
        psi = self.psi_values(qs)
        keep = psi > 0.0
        qs, psi = qs[keep], psi[keep]
        if len(qs) == 0:
            return SExponentResult(0.0, "empirical")
        base = psi / qs
        # full dyadic octaves only; a trailing partial octave would bias
        # the growth slope downward
        edges = [self.q_min]
        while edges[-1] * 2 <= self.q_max + 1:
            edges.append(edges[-1] * 2)
        idx = np.searchsorted(qs, edges)
        segments = [base[idx[i]:idx[i + 1]] for i in range(len(edges) - 1)
                    if idx[i + 1] > idx[i]]

        def grows(s: float) -> bool:
            # True when partial sums still grow like a divergent series
            inc = np.array([float(np.sum(seg ** s)) for seg in segments])
            inc = inc[inc > 0.0]
            if len(inc) < 2:
                return False
            # a difference of logs: a quotient of octave sums overflows
            # when a radius is subnormal
            ratios = np.diff(np.log2(inc))
            beta = float(np.mean(ratios[-3:]))
            return beta >= -0.05

        if not grows(0.0):
            return SExponentResult(0.0, "empirical")        # finite mass
        if grows(1.0):
            return SExponentResult(1.0, "empirical")        # divergent at 1
        lo, hi = 0.0, 1.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if grows(mid):
                lo = mid
            else:
                hi = mid
        return SExponentResult(0.5 * (lo + hi), "empirical")

    # -- dyadic buckets ----------------------------------------------------

    def _reach(self, eta: float, k: int) -> int:
        """Largest q that bucket k can hold, at most q_max.

        A q lies in bucket k only if u <= k + 1, up to the 1e-12 snap.
        Power-law radii have u = eta (1 + tau) log2 q, so bucket k ends at
        the closed-form edge q <= 2**((k + 1)/(eta (1 + tau))); every other
        radius is below 1/2, so u > eta (log2 q + 1) and q lies below
        2**((k + 1)/eta - 1).  k + 1 takes the relative margin
        ``_REACH_RTOL``, far above the snap and the rounding of u, and the
        exponent is capped at 63, so a huge k covers the window without
        an overflow.
        """
        top = (k + 1) * (1.0 + _REACH_RTOL) / eta
        e = top / (1.0 + self.tau) if self.psi_kind == "power_law" else top - 1
        return min(self.q_max, math.floor(2.0 ** min(e, 63.0)))

    def _bucket_labels(self, eta: float, k: int | None = None) -> np.ndarray:
        """Bucket index (int16, -1 off the members) of each q from q_min up
        to ``_reach(eta, k)``, or of the whole window when k is None.

        Chunks of ``_CHUNK`` denominators are labelled from q_min up, each
        once per eta, and each chunk's per-bucket counts and masses are
        added to the memo's, in chunk order: so bucket k's count and mass
        are whole once its reach is labelled.  The memo's label array holds
        the labelled chunks only; a call that labels more grows it once,
        to the end of its last chunk.
        """
        if not 0.0 < eta < 1.0:
            raise ProfileError("weight exponent eta must lie in (0, 1)")
        top = self.q_max if k is None else self._reach(eta, k)
        need = top - self.q_min + 1
        labels, counts, masses = self._labels.get(eta) or (
            np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.int64),
            np.zeros(0))
        done = len(labels)
        if need > done:
            grown = np.full(min(self.q_max - self.q_min + 1,
                                done + -(-(need - done) // _CHUNK) * _CHUNK),
                            -1, dtype=np.int16)
            grown[:done] = labels
            labels = grown
            for start in range(done, len(labels), _CHUNK):
                part = self._label_chunk(eta, labels, start)
                counts, masses = (_add_padded(total, new)
                                  for total, new in zip((counts, masses), part))
        self._labels[eta] = (labels, counts, masses)
        return labels[:max(need, 0)]

    def _label_chunk(self, eta: float, labels: np.ndarray,
                     start: int) -> tuple:
        """labels[start:start + _CHUNK]: u = eta log2(q/psi), snapped to
        an integer r >= 1 within one part in 1e12, then ceil(u) - 1.
        Returns the chunk's count and mass per bucket index; a mass is the
        pairwise ``np.sum`` of its (psi/q)**eta in q order.

        q >= 2 and psi < 1/2 give u > 2 eta > 0, so every label is at
        least 0; a u within the snap of 0 (eta below about 1e-12) is not
        a boundary hit and stays in bucket 0."""
        qs = self.q_min + np.arange(start, min(start + _CHUNK, len(labels)))
        qs = qs[self.member_mask(qs)]
        psi = self.psi_values(qs)
        qs, psi = qs[psi > 0.0], psi[psi > 0.0]
        u = eta * (np.log2(qs.astype(float)) - np.log2(psi))
        r = np.round(u)
        snap = (r >= 1.0) & (np.abs(u - r) <= _SNAP_RTOL * np.maximum(1.0, u))
        lab = (np.where(snap, r, np.ceil(u)) - 1).astype(np.int16)
        labels[qs - self.q_min] = lab
        counts = np.bincount(lab)
        # one stable (radix) sort by label puts each bucket's weights side
        # by side, in q order: a slice per bucket, whatever the bucket count
        weights = ((psi / qs) ** eta)[np.argsort(lab, kind="stable")]
        ends = np.cumsum(counts)
        masses = np.array([np.sum(weights[e - n:e])
                           for n, e in zip(counts, ends)])
        return counts, masses

    def _sums(self, eta: float, k: int) -> tuple:
        """Count and mass of bucket k from the memo; its reach must be
        labelled."""
        _, counts, masses = self._labels[eta]
        if k >= len(counts):
            return 0, 0.0
        return int(counts[k]), float(masses[k])

    def bucket(self, eta: float, scale: int) -> "Bucket":
        """Members q with (psi(q)/q)**eta in [1/(2M), 1/M), M = ``scale``.

        Boundary hits (u within one part in 1e12 of an integer) go to
        the lower bucket, deterministically.  Every call cuts the bucket
        from ``_bucket_labels``, labelled up to the bucket's reach only and
        each chunk once per eta, and reads its mass from the labels'
        memo; the member array is read-only.
        """
        k = int(scale).bit_length() - 1
        if scale != 1 << k:
            raise ProfileError("scale must be a power of two")
        members = self.q_min + np.flatnonzero(self._bucket_labels(eta, k) == k)
        members.flags.writeable = False
        return Bucket(k=k, members=members,
                      mass=self._sums(eta, k)[1])

    def _window_limited(self, eta: float, k: int) -> bool:
        """Whether bucket k may have been cut off by the window, from the
        labels up to bucket k's reach.  Power-law radii on every q of the
        window give the bucket's edges in closed form."""
        if self.psi_kind == "power_law" and self.member_kind == "all":
            c = eta * (1.0 + self.tau)
            # exponents capped at 1023, the largest a float holds: past it
            # both edges lie beyond any window, and a tiny eta does not
            # overflow
            q_lo = 2.0 ** min(k / c, 1023.0)
            q_hi = 2.0 ** min((k + 1) / c, 1023.0)
            first = math.floor(q_lo) + 1
            last = math.floor(q_hi)
            return first < self.q_min or last > self.q_max
        # heuristic for irregular profiles: an empty bucket, or one that
        # holds q_min or q_max, may have been cut off.  q_max is read only
        # once the labels reach it: short of that, the reach ends the
        # bucket below q_max
        labels, top = self._labels[eta][0], self.q_max - self.q_min
        return bool(self._sums(eta, k)[0] == 0 or labels[0] == k
                    or (len(labels) > top and labels[top] == k))

    def _scale_entry(self, eta: float, k: int) -> "ScaleEntry":
        """The entry of scale M = 2**k, from the labels up to bucket k's
        reach."""
        self._bucket_labels(eta, k)
        M = 1 << k
        count, mass = self._sums(eta, k)
        return ScaleEntry(k=k, scale=M, count=count, mass=mass,
                          qualifies=bool(mass >= 1.0 / k**2),
                          window_limited=self._window_limited(eta, k),
                          size_ratio=count / (M / math.log(M) ** 2))

    def scale_set(self, eta: float, k_max: int | None = None) -> "ScaleSet":
        """All dyadic scales up to the window's top label (or ``k_max``)
        with their bucket count, mass and admissibility.

        It labels the whole window (once per eta, in chunks), for the
        ``dfourier buckets`` table; a build walks ``admissible_scales``
        instead.  Every count and mass is read from the labels' memo.
        """
        top = int(self._bucket_labels(eta).max(initial=0))
        if k_max is not None:
            top = max(top, int(k_max))
        return ScaleSet(entries=tuple(self._scale_entry(eta, k)
                                      for k in range(1, top + 1)))

    def admissible_scales(self, eta: float):
        """The admissible entries of ``scale_set(eta)``, k ascending, each
        built only when the walk reaches it.

        Entry k labels the window only as far as bucket k reaches, for
        every profile.  The walk ends past the window's top label, where
        ``scale_set`` ends: once the whole window is labelled and k is
        past every label.
        """
        k = 1
        while True:
            entry = self._scale_entry(eta, k)
            labels, counts, _ = self._labels[eta]
            if k >= len(counts) and len(labels) == self.q_max - self.q_min + 1:
                return
            if entry.admissible:
                yield entry
            k += 1


def _add_padded(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """total + part entry by entry, the shorter one read as zero-padded."""
    out = np.zeros(max(len(total), len(part)), dtype=total.dtype)
    out[:len(total)] = total
    out[:len(part)] += part
    return out


# ----------------------------------------------------------------------
# derived small records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SExponentResult:
    value: float
    mode: str                   # "analytic" or "empirical"


@dataclass(frozen=True)
class Bucket:
    """One dyadic bucket of denominators with its weight mass."""
    k: int
    members: np.ndarray
    mass: float

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ScaleEntry:
    """One dyadic scale: M = 2**k qualifies when its bucket mass is at
    least 1/k**2, and is admissible when it also is not window-limited."""
    k: int
    scale: int
    count: int
    mass: float
    qualifies: bool
    window_limited: bool
    size_ratio: float

    @property
    def admissible(self) -> bool:
        return self.qualifies and not self.window_limited


@dataclass(frozen=True)
class ScaleSet:
    """Bucket summary per dyadic scale."""
    entries: tuple


def power_law_profile(tau: float, q_max: int, q_min: int | None = None,
                      theta: float = 0.0) -> ApproximationProfile:
    """Convenience constructor for psi(q) = q**-tau profiles."""
    if q_min is None:
        # smallest q with psi(q) < 1/2 as the float that the window check
        # reads, by bisection; for very flat radii that point lies past
        # every practical window, so clamp to the window edge
        q_min, hi = 2, q_max + 1
        while q_min < hi:
            mid = (q_min + hi) // 2
            if float(mid) ** -tau < 0.5:
                hi = mid
            else:
                q_min = mid + 1
    return ApproximationProfile(q_min=int(q_min), q_max=int(q_max), tau=float(tau),
                                theta_value=float(theta))
