"""Exact level data, weight labels and highest-weight data.

Everything here is rational arithmetic: levels, central charges, the
(r; s) label sets, the order-3 cycle acting on them, and the charge /
conformal-weight data attached to each label.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd
from operator import attrgetter
from threading import Lock
from types import MappingProxyType

from .sl3 import triality

_LEVEL_LOCK = Lock()


class AdmissibilityError(ValueError):
    """(u, v) is not a nondegenerate-admissible parameter pair."""


class LabelError(ValueError):
    """A weight label violates its membership constraints."""


@dataclass(frozen=True)
class LevelParams:
    """Exact level data at one (u, v), and the tables built for it.

    `tables` holds every per-level table (`per_level`), is neither compared
    nor hashed, and starts empty on `dataclasses.replace(params)`."""

    u: int
    v: int
    k: Fraction
    kappa: Fraction
    c_bp: Fraction
    c_w3: Fraction
    c_pi: Fraction
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def level_params(u: int, v: int) -> LevelParams:
    """Exact level data for the pair (u, v); u, v >= 3 and coprime.  Every
    call for one pair returns the same instance, so its tables are built
    once per process."""
    if not (isinstance(u, int) and isinstance(v, int)):
        raise AdmissibilityError(f"(u, v) must be integers, got ({u!r}, {v!r})")
    if u < 3 or v < 3 or gcd(u, v) != 1:
        raise AdmissibilityError(
            f"(u, v) = ({u}, {v}) is not nondegenerate-admissible: "
            "need u >= 3, v >= 3, gcd(u, v) = 1"
        )
    with _LEVEL_LOCK:  # unlocked, lru_cache can hand concurrent first callers an instance each
        return _level(u, v)


@lru_cache(maxsize=None)
def _level(u: int, v: int) -> LevelParams:
    k = Fraction(u, v) - 3
    kappa = Fraction(2 * u - 3 * v, 6 * v)
    c_bp = 1 - Fraction(6 * (u - 2 * v) ** 2, u * v)
    c_w3 = 2 - Fraction(24 * (u - v) ** 2, u * v)
    c_pi = -1 + Fraction(6 * (3 * u - 4 * v), v)
    return LevelParams(u, v, k, kappa, c_bp, c_w3, c_pi)


def per_level(build):
    """`build(params, *key)` as a table kept on the level.  The returned
    reader builds an entry on first use and stores it in
    `params.tables[reader]`, a dict keyed on the tuple `key` of ints.  Two
    threads may both build an entry; `setdefault` keeps the one stored
    first, and both return it.  Builders return tuples, read-only mappings
    or read-only arrays."""

    @wraps(build)
    def read(params: LevelParams, *key):
        try:
            return params.tables[read][key]
        except KeyError:
            return params.tables.setdefault(read, {}).setdefault(key, build(params, *key))

    return read


Triple = tuple[int, int, int]


def hash_once(*fields: str):
    """A `__hash__` for a frozen label dataclass: the hash of the compared
    fields, computed on first use and kept on the instance.  Labels key
    every orbit table, gap table and formal sum, so without it each lookup
    would rehash the whole nested label.  Equality stays the dataclass's."""
    key = attrgetter(*fields)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(key(self))
            # two threads may both get here; they store the same value
            object.__setattr__(self, "_hash", value)
            return value

    return __hash__


@dataclass(frozen=True, order=True)
class RSLabel:
    """A pair of integer triples (r; s) labelling a weight."""

    r: Triple
    s: Triple

    __hash__ = hash_once("r", "s")

    def __str__(self) -> str:
        r, s = self.r, self.s
        return f"[{r[0]},{r[1]},{r[2]};{s[0]},{s[1]},{s[2]}]"

    @staticmethod
    def parse(text: str) -> "RSLabel":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise LabelError(f"malformed label {text!r}: expected [r0,r1,r2;s0,s1,s2]")
        body = body[1:-1]
        parts = body.split(";")
        if len(parts) != 2:
            raise LabelError(f"malformed label {text!r}: expected one ';'")
        try:
            r = tuple(int(x) for x in parts[0].split(","))
            s = tuple(int(x) for x in parts[1].split(","))
        except ValueError as exc:
            raise LabelError(f"malformed label {text!r}: {exc}") from None
        if len(r) != 3 or len(s) != 3:
            raise LabelError(f"malformed label {text!r}: triples must have 3 entries")
        return RSLabel(r, s)

    @property
    def lam_f(self) -> Triple:
        # the level-(v-1) weight underlying the s-triple
        return (self.s[0] + 1, self.s[1] + 1, self.s[2])


def sigma(label: RSLabel) -> RSLabel:
    """The order-3 cycle (r0,r1,r2; s0,s1,s2) -> (r2,r0,r1; s2,s0,s1)."""
    r, s = label.r, label.s
    return RSLabel((r[2], r[0], r[1]), (s[2], s[0], s[1]))


def sigma_inv(label: RSLabel) -> RSLabel:
    r, s = label.r, label.s
    return RSLabel((r[1], r[2], r[0]), (s[1], s[2], s[0]))


def conjugate_rs(label: RSLabel) -> RSLabel:
    """The involution (r1 <-> r2, s1 <-> s2); weight data is even/odd under it."""
    r, s = label.r, label.s
    return RSLabel((r[0], r[2], r[1]), (s[0], s[2], s[1]))


def in_surv(params: LevelParams, label: RSLabel) -> bool:
    """Membership in the full label set (s1 = -1 boundary allowed)."""
    u, v = params.u, params.v
    r, s = label.r, label.s
    if sum(r) != u - 3 or any(x < 0 for x in r):
        return False
    if sum(s) != v - 3:
        return False
    f = label.lam_f
    return f[0] >= 1 and f[1] >= 0 and f[2] >= 0


def in_infwts(params: LevelParams, label: RSLabel) -> bool:
    """Membership in the interior set: every s-entry nonnegative."""
    return in_surv(params, label) and label.s[1] >= 0


def check_surv(params: LevelParams, label: RSLabel) -> RSLabel:
    if not in_surv(params, label):
        raise LabelError(f"{label} is not a weight label at (u,v)=({params.u},{params.v})")
    return label


@dataclass(frozen=True, order=True)
class OrbitClass:
    """An order-3 orbit of interior labels, keyed by its smallest member `rep` alone."""

    rep: RSLabel
    members: tuple[RSLabel, RSLabel, RSLabel] = field(compare=False)

    __hash__ = hash_once("rep")

    def __str__(self) -> str:
        return f"[{self.rep}]"

    def __contains__(self, label: RSLabel) -> bool:
        return label in self.members


@per_level
def _surv(params: LevelParams) -> tuple[RSLabel, ...]:
    u, v = params.u, params.v
    out = []
    for r0 in range(u - 2):
        for r1 in range(u - 2 - r0):
            r = (r0, r1, u - 3 - r0 - r1)
            for f0 in range(1, v):
                for f1 in range(v - f0):
                    s = (f0 - 1, f1 - 1, v - 1 - f0 - f1)
                    out.append(RSLabel(r, s))
    out.sort()
    assert all(in_surv(params, x) for x in out)
    return tuple(out)


def enumerate_surv(params: LevelParams) -> list[RSLabel]:
    """All weight labels, in lexicographic order."""
    return list(_surv(params))


@dataclass(frozen=True)
class OrbitTable:
    """Every orbit decision at one (u, v), made once and read-only: the sorted
    `orbits` (the order of every S-matrix row and oracle vector), each
    interior label's orbit (`index`), each orbit's `position` in `orbits`,
    the `vacuum` orbit, and each orbit's `fusion_rep` (see below)."""

    orbits: tuple[OrbitClass, ...]
    index: MappingProxyType
    position: MappingProxyType
    vacuum: OrbitClass
    fusion_rep: MappingProxyType


@per_level
def orbit_table(params: LevelParams) -> OrbitTable:
    """The orbit table at the level."""
    u, v = params.u, params.v
    index = {}
    for lab in _surv(params):
        # the cycle is free on interior labels: a fixed point needs 3 | u and 3 | v
        if lab.s[1] >= 0 and lab not in index:
            rep = min(lab, sigma(lab), sigma(sigma(lab)))
            orb = OrbitClass(rep, (rep, sigma(rep), sigma(sigma(rep))))
            index.update(dict.fromkeys(orb.members, orb))
    orbits = tuple(sorted(set(index.values())))
    # The fusion representative is the member whose r-projection lies on the
    # root lattice (triality 0), or whose s-projection does when 3 | u.  A cycle
    # step moves the r- and s-trialities by u - 3 and v - 3 (mod 3); gcd(u, v) = 1
    # makes the chosen step nonzero, so exactly one member is aligned.  On it the
    # W3 fusion coefficient is the product of the two affine ones.
    on_s = u % 3 == 0
    fusion_rep = {
        orb: next(m for m in orb.members if triality((m.s if on_s else m.r)[1:]) == 0) for orb in orbits
    }
    return OrbitTable(
        orbits=orbits,
        index=MappingProxyType(index),
        position=MappingProxyType({orb: i for i, orb in enumerate(orbits)}),
        vacuum=index[RSLabel((u - 3, 0, 0), (v - 3, 0, 0))],
        fusion_rep=MappingProxyType(fusion_rep),
    )


def orbit_of(params: LevelParams, label: RSLabel) -> OrbitClass:
    """The orbit of an interior label under the order-3 cycle."""
    try:
        return orbit_table(params).index[label]
    except KeyError:
        raise LabelError(f"{label} is not an interior label at ({params.u},{params.v})") from None


def parse_orbit(params: LevelParams, text: str) -> OrbitClass:
    """The orbit written [[r;s]], named by any of its members."""
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise LabelError(f"malformed orbit {text!r}: expected [[r;s]]")
    return orbit_of(params, RSLabel.parse(body[1:-1]))


def conjugate_orbit(params: LevelParams, orbit: OrbitClass) -> OrbitClass:
    return orbit_of(params, conjugate_rs(orbit.rep))


def vacuum_orbit(params: LevelParams) -> OrbitClass:
    return orbit_table(params).vacuum


def enumerate_infwts(params: LevelParams) -> list[OrbitClass]:
    """All orbits of interior labels, sorted by canonical representative."""
    return list(orbit_table(params).orbits)


# ---------------------------------------------------------------------------
# Highest-weight data


@dataclass(frozen=True)
class HWData:
    j: Fraction
    delta: Fraction
    j_tw: Fraction
    delta_tw: Fraction


def fractional_dynkin(params: LevelParams, label: RSLabel) -> tuple[Fraction, Fraction]:
    """The two fractional Dynkin labels (lam1, lam2) of the weight."""
    u, v = params.u, params.v
    f = label.lam_f
    lam1 = label.r[1] - Fraction(u, v) * f[1]
    lam2 = label.r[2] - Fraction(u, v) * f[2]
    return lam1, lam2


def hw_data(params: LevelParams, label: RSLabel) -> HWData:
    """Exact charge and conformal weight of the highest-weight module I[r;s]."""
    check_surv(params, label)
    k = params.k
    lam1, lam2 = fractional_dynkin(params, label)
    j = (lam1 - lam2) / 3
    delta = ((lam1 - lam2) ** 2 - 3 * (lam1 + lam2) * (2 * (k + 1) - lam1 - lam2)) / (12 * (k + 3))
    j_tw = j + params.kappa
    delta_tw = delta + (lam1 - lam2) / 6 + params.kappa / 4
    return HWData(j, delta, j_tw, delta_tw)


def j_of(params: LevelParams, label: RSLabel) -> Fraction:
    r, s = label.r, label.s
    return Fraction(r[1] - r[2], 3) - Fraction(params.u, 3 * params.v) * (s[1] - s[2] + 1)


def jtw_6v(params: LevelParams, label: RSLabel) -> int:
    """6v times the twisted charge j_of + kappa, an integer."""
    r, s = label.r, label.s
    return 2 * params.v * (r[1] - r[2]) - 2 * params.u * (s[1] - s[2]) - 3 * params.v


def jtw_of(params: LevelParams, label: RSLabel) -> Fraction:
    return Fraction(jtw_6v(params, label), 6 * params.v)


# ---------------------------------------------------------------------------
# Data of the rational W-algebra factor


@dataclass(frozen=True)
class W3Data:
    """Weight data of the simple module attached to an interior orbit.

    `w_rational` carries the cubic eigenvalue up to the common irrational
    factor (3uv)^(-3/2); only its sign and equality are ever consumed, so
    the rational part is stored exactly.
    """

    delta: Fraction
    w_rational: Fraction

    def w_float(self, params: LevelParams) -> float:
        return float(self.w_rational) * (3 * params.u * params.v) ** -1.5


def w3_data(params: LevelParams, orbit: OrbitClass | RSLabel) -> W3Data:
    label = orbit.rep if isinstance(orbit, OrbitClass) else orbit
    u, v = params.u, params.v
    r, s = label.r, label.s
    e1 = v * (r[1] + 1) - u * (s[1] + 1)
    e2 = v * (r[2] + 1) - u * (s[2] + 1)
    # the subtracted constant is pinned by requiring the vacuum orbit
    # (r, s) = ([u-3,0,0], [v-3,0,0]) to have weight 0
    vac = v * (0 + 1) - u * (0 + 1)
    const = vac * vac + vac * vac + vac * vac
    delta = Fraction(e1 * e2 + e1 * e1 + e2 * e2 - const, 3 * u * v)
    d = [v * r[i] - u * s[i] for i in range(3)]
    w_rat = Fraction((d[0] - d[1]) * (d[0] - d[2]) * (d[1] - d[2]), 3)
    return W3Data(delta, w_rat)
