"""Module-label algebra: spectral flow, normal forms, exact sequences, resolutions.

Highest-weight labels are stored in a unique normal form (leftmost orbit
representative plus a residual flow index), so isomorphism of flowed
modules is plain equality.  Standard labels live in the shifted grading
where the flow index is integral.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .levels import (
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    _surv,
    check_surv,
    enumerate_infwts,
    hash_once,
    in_infwts,
    jtw_of,
    orbit_table,
    parse_orbit,
    per_level,
    sigma,
    sigma_inv,
)


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def of(x) -> "HalfInt":
        """x as a half-integer: a HalfInt, an int, or a Fraction or text of denominator
        1 or 2.  Anything else is a LabelError, a float too (binary, so inexact)."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        if isinstance(x, float):
            raise LabelError(f"flow {x!r} is a float, not an exact half-integer")
        try:
            frac = Fraction(x)
        except (TypeError, ValueError, OverflowError):  # nan, +-inf and what is no number
            raise LabelError(f"{x!r} is not a half-integer") from None
        if frac.denominator not in (1, 2):
            raise LabelError(f"{x} is not a half-integer")
        return HalfInt(int(frac * 2))

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _mod1(x) -> Fraction:
    frac = Fraction(x)
    return frac - (frac.numerator // frac.denominator)


@dataclass(frozen=True, order=True)
class HWLabel:
    """A flowed highest-weight module, in leftmost normal form."""

    ell: HalfInt
    lam: RSLabel

    __hash__ = hash_once("ell", "lam")

    def __str__(self) -> str:
        return f"I{self.lam}^{self.ell}"


@dataclass(frozen=True, order=True)
class StandardLabel:
    """A flowed standard (top-dense) module in the integral-flow grading."""

    ell: HalfInt
    j: Fraction
    orbit: OrbitClass

    __hash__ = hash_once("ell", "j", "orbit")

    def __str__(self) -> str:
        return f"R~[{self.j};[{self.orbit.rep}]]^{self.ell}"


Label = HWLabel | StandardLabel


def _exact_charge(j) -> Fraction:
    """j as a Fraction; a float (binary, so inexact) or a non-number is a LabelError."""
    if not isinstance(j, float):
        try:
            return Fraction(j)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise LabelError(f"charge {j!r} is not an exact rational")


def standard_label(j, orbit: OrbitClass, ell=0) -> StandardLabel:
    return StandardLabel(HalfInt.of(ell), _mod1(_exact_charge(j)), orbit)


def hw_label(params: LevelParams, lam: RSLabel, ell=0) -> HWLabel:
    """Normalise (lam, ell) so lam is the leftmost label in its flow orbit."""
    check_surv(params, lam)
    ell = HalfInt.of(ell)
    # each step left: I[r;s] with s2 = 0 is the flow of the label one spot left
    while lam.s[2] == 0:
        r, s = lam.r, lam.s
        lam = RSLabel((r[1], r[2], r[0]), (s[1] + 1, -1, s[0]))
        ell = ell + 1
    return HWLabel(ell, lam)


def vacuum_label(params: LevelParams) -> HWLabel:
    """The vacuum module, a type-3 highest-weight label at flow 0."""
    u, v = params.u, params.v
    return hw_label(params, RSLabel((u - 3, 0, 0), (v - 2, -1, 0)), 0)


def hw_flow_maps(params: LevelParams, lam: RSLabel) -> list[tuple[HalfInt, RSLabel]]:
    """All nonzero flows m with sigma^m(I[lam]) again highest-weight, with images."""
    check_surv(params, lam)
    v = params.v
    r, s = lam.r, lam.s
    out: list[tuple[HalfInt, RSLabel]] = []
    if s[1] == -1:
        out.append((HalfInt.of(1), RSLabel((r[2], r[0], r[1]), (s[2], s[0] - 1, 0))))
    if s[2] == 0:
        out.append((HalfInt.of(-1), RSLabel((r[1], r[2], r[0]), (s[1] + 1, -1, s[0]))))
    if s == (0, -1, v - 2):
        out.append((HalfInt.of(2), RSLabel((r[1], r[2], r[0]), (0, v - 3, 0))))
    if s == (0, v - 3, 0):
        out.append((HalfInt.of(-2), RSLabel((r[2], r[0], r[1]), (0, -1, v - 2))))
    return out


def orbit_type(params: LevelParams, lam: RSLabel) -> int:
    """How many highest-weight modules the flow orbit of I[lam] contains (1, 2 or 3)."""
    left = hw_label(params, lam, 0).lam
    s = left.s
    if s[1] != -1:
        return 1
    if s[2] != params.v - 2:
        return 2
    return 3


def spectral_flow(params: LevelParams, label: Label, m) -> Label:
    """Apply m units of flow to a label; the result is renormalised."""
    m = HalfInt.of(m)
    if isinstance(label, HWLabel):
        return HWLabel(label.ell + m, label.lam)
    return StandardLabel(label.ell + m, label.j, label.orbit)


def conjugate_hw(params: LevelParams, label: HWLabel) -> HWLabel:
    """Conjugate of a flowed highest-weight label, renormalised."""
    r, s = label.lam.r, label.lam.s
    image = RSLabel((r[0], r[2], r[1]), (s[0], s[2] - 1, s[1] + 1))
    return hw_label(params, image, -label.ell)


# ---------------------------------------------------------------------------
# Standard labels: gaps


@per_level
def gap_table(params: LevelParams) -> MappingProxyType:
    """Every orbit mapped to its members, each with the charge at which the
    standard family over the orbit is nonsimple (integral-flow grading): a
    read-only view, built once per level."""
    return MappingProxyType(
        {
            orb: tuple((m, _mod1(jtw_of(params, m) + params.kappa)) for m in orb.members)
            for orb in enumerate_infwts(params)
        }
    )


def gap_member(params: LevelParams, label: StandardLabel) -> RSLabel | None:
    """The orbit member whose attached charge equals the label's, if any."""
    try:
        members = gap_table(params)[label.orbit]
    except KeyError:
        raise LabelError(f"{label.orbit} is not an orbit at ({params.u},{params.v})") from None
    for member, charge in members:
        if charge == label.j:
            return member
    return None


def is_nonsimple_standard(params: LevelParams, label: StandardLabel) -> bool:
    return gap_member(params, label) is not None


def gap_charges(params: LevelParams, orbit: OrbitClass) -> set[Fraction]:
    """The three charges at which the standard family over `orbit` is
    nonsimple, in the integral-flow grading of StandardLabel."""
    return {_mod1(jtw_of(params, member) + params.kappa) for member in orbit.members}


@per_level
def _gap_of_member(params: LevelParams) -> MappingProxyType:
    # every interior label -> (its orbit, its gap charge), read off the gap table
    return MappingProxyType({m: (orb, j) for orb, members in gap_table(params).items() for m, j in members})


def nonsimple_standard(params: LevelParams, member: RSLabel, ell=0) -> StandardLabel:
    """The nonsimple standard label attached to an interior weight label."""
    try:
        orbit, charge = _gap_of_member(params)[member]
    except KeyError:
        raise LabelError(f"{member} is not an interior label") from None
    return StandardLabel(HalfInt.of(ell), charge, orbit)


# ---------------------------------------------------------------------------
# Formal sums


class FormalSum:
    """A finite integer-linear combination of labels; no zero terms stored."""

    __slots__ = ("_terms",)

    def __init__(self, items=()):
        self._terms: dict[Label, int] = {}
        for label, coeff in items:
            self._add(label, coeff)

    def _add(self, label, coeff):
        if not coeff:
            return
        new = self._terms.get(label, 0) + coeff
        if new:
            self._terms[label] = new
        else:
            del self._terms[label]

    @staticmethod
    def lone(label, coeff=1) -> "FormalSum":
        return FormalSum([(label, coeff)])

    @staticmethod
    def combine(parts) -> "FormalSum":
        """Integer-weighted sum of formal sums, collected in one pass."""
        out = FormalSum()
        for fs, coeff in parts:
            for label, c in fs._terms.items():
                out._add(label, coeff * c)
        return out

    def __iter__(self):
        return iter(sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0])))

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def coeff(self, label) -> int:
        return self._terms.get(label, 0)

    def items(self):
        """The (label, coefficient) pairs, unsorted; iteration sorts them."""
        return self._terms.items()

    def __add__(self, other):
        out = FormalSum()
        out._terms.update(self._terms)
        for label, coeff in other._terms.items():
            out._add(label, coeff)
        return out

    def __sub__(self, other):
        out = FormalSum()
        out._terms.update(self._terms)
        for label, coeff in other._terms.items():
            out._add(label, -coeff)
        return out

    def __rmul__(self, scalar: int):
        out = FormalSum()
        for label, coeff in self._terms.items():
            out._add(label, scalar * coeff)
        return out

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def shifted(self, params: LevelParams, m) -> "FormalSum":
        out = FormalSum()
        for label, coeff in self._terms.items():
            out._add(spectral_flow(params, label, m), coeff)
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for label, coeff in self:
            if coeff == 1:
                parts.append(f"+ {label}")
            elif coeff == -1:
                parts.append(f"- {label}")
            elif coeff >= 0:
                parts.append(f"+ {coeff}*{label}")
            else:
                parts.append(f"- {-coeff}*{label}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def to_json(self) -> list[dict]:
        return [{"label": str(label), "coeff": coeff} for label, coeff in self]


def _sort_key(label: Label):
    if isinstance(label, HWLabel):
        return (0, label.ell.twice, str(label))
    return (1, label.ell.twice, label.j, str(label))


# ---------------------------------------------------------------------------
# Exact sequences


@dataclass(frozen=True)
class GapSES:
    """0 -> sub -> middle -> conj(conjugated_of) -> 0 for a gap standard module."""

    sub: HWLabel
    middle: StandardLabel
    conjugated_of: HWLabel

    def __str__(self):
        return f"0 -> {self.sub} -> {self.middle} -> conj({self.conjugated_of}) -> 0"


def gap_decomposition(params: LevelParams, lam: RSLabel) -> GapSES:
    """The nonsplit exact sequence under a nonsimple top-dense module."""
    if not in_infwts(params, lam):
        raise LabelError(f"{lam} is not an interior label")
    half = Fraction(1, 2)
    sub = hw_label(params, lam, half)
    middle = nonsimple_standard(params, lam, 0)
    r, s = lam.r, lam.s
    quot_inner = hw_label(params, RSLabel((r[0], r[2], r[1]), (s[0], s[2], s[1])), half)
    return GapSES(sub, middle, quot_inner)


@dataclass(frozen=True)
class AtypicalSES:
    """0 -> sub -> middle -> quotient -> 0 resolving a highest-weight module one step."""

    sub: HWLabel
    middle: StandardLabel
    quotient: HWLabel
    sub_orbit_type: int

    def __str__(self):
        return f"0 -> {self.sub} -> {self.middle} -> {self.quotient} -> 0"


def atypical_ses(params: LevelParams, lam: RSLabel) -> AtypicalSES:
    """One-step resolution of I[lam] (lam leftmost) by a nonsimple standard."""
    check_surv(params, lam)
    if lam.s[2] == 0:
        raise LabelError(f"{lam} is not leftmost in its flow orbit")
    v = params.v
    r, s = lam.r, lam.s
    inner = RSLabel(r, (s[0], s[1] + 1, s[2] - 1))
    sub = hw_label(params, inner, 1)
    middle = nonsimple_standard(params, inner, 0)
    if s[2] != 1:
        sub_type = 1
    elif s[1] != v - 4:
        sub_type = 2
    else:
        sub_type = 3
    return AtypicalSES(sub, middle, hw_label(params, lam, 0), sub_type)


def rewrite_gap_standard(params: LevelParams, label: StandardLabel) -> FormalSum:
    """A nonsimple standard label as a sum of two highest-weight labels."""
    nu = gap_member(params, label)
    if nu is None:
        raise LabelError(f"{label} is simple; nothing to rewrite")
    p = label.ell
    r, s = nu.r, nu.s
    quotient = hw_label(params, RSLabel(r, (s[0], s[1] - 1, s[2] + 1)), p)
    sub = hw_label(params, nu, p + 1)
    return FormalSum([(quotient, 1), (sub, 1)])


def rewrite_gaps(params: LevelParams, sum_: FormalSum) -> FormalSum:
    """Replace every nonsimple standard term by its highest-weight content."""
    parts = []
    for label, coeff in sum_:
        if isinstance(label, StandardLabel) and is_nonsimple_standard(params, label):
            parts.append((rewrite_gap_standard(params, label), coeff))
        else:
            parts.append((FormalSum.lone(label), coeff))
    return FormalSum.combine(parts)


# ---------------------------------------------------------------------------
# Resolutions by nonsimple standard modules


@per_level
def _series(params: LevelParams, lam: int) -> tuple[tuple, tuple]:
    """The resolution of I[lam]^0 (lam a position in `enumerate_surv`) as a
    finite head plus one block that repeats every P = 3v flows with sign
    (-1)^v; a term is (twice flow, charge numerator over 6v, orbit position,
    sign).  The head is the m < s2 terms of the one-step resolutions, the
    block the s0-family at n = 0 and the s1-family at n = 1."""
    v, gaps, position = params.v, _gap_of_member(params), orbit_table(params).position
    r3, (s0, s1, s2) = _surv(params)[lam].r, _surv(params)[lam].s
    cycles = (sigma_inv(RSLabel(r3, (0, 0, 0))).r, r3, sigma(RSLabel(r3, (0, 0, 0))).r)
    twist = (1, (-1) ** v, 1)  # the sign the middle cycle step carries

    def term(r: tuple, s: tuple, flow: int, sign: int) -> tuple[int, int, int, int]:
        orbit, charge = gaps[RSLabel(r, s)]  # the nonsimple standard label of [r;s]
        return 2 * flow, charge.numerator * (6 * v // charge.denominator), position[orbit], sign

    head = tuple(term(r3, (s0, s1 + m + 1, s2 - m - 1), m, (-1) ** m) for m in range(s2))
    block = [
        term(cycles[i], (v - 2 - s0, m, s0 - m - 1), m + i * v + s2 + 1, (-1) ** (s2 + m) * twist[i])
        for m in range(s0) for i in range(3)
    ] + [
        term(cycles[i - 1], (s0, m, v - 3 - s0 - m), m + (i + 1) * v - s1 - 1, -((-1) ** (s1 + m + v)) * twist[i])
        for m in range(v - 2 - s0) for i in range(3)
    ]
    return head, tuple(block)


def series_of(params: LevelParams, lam: RSLabel) -> tuple[tuple, tuple]:
    """`_series` of the weight label lam, read from the level's table."""
    return _series(params, bisect_left(_surv(params), check_surv(params, lam)))


def resolution(params: LevelParams, lam: RSLabel | HWLabel, depth: int) -> FormalSum:
    """Alternating sum of nonsimple standard labels resolving a flowed
    highest-weight module (a bare weight label is taken at flow 0): the head
    of its series (`_series`) in full, and the block at every flow index
    <= base flow + depth."""
    if depth < 1:
        raise LabelError("depth must be >= 1")
    base = lam if isinstance(lam, HWLabel) else hw_label(params, lam, 0)
    if not base.ell.is_integer:
        raise LabelError("resolutions are taken in the integral-flow sector")
    head, block = series_of(params, base.lam)
    v, shift, orbits = params.v, base.ell.twice, orbit_table(params).orbits
    terms = list(head)
    for t, n, pos, sign in block:
        terms += [(t + 6 * v * k, n, pos, sign * (-1) ** (v * k)) for k in range((2 * depth - t) // (6 * v) + 1)]
    return FormalSum(
        (StandardLabel(HalfInt(t + shift), Fraction(n, 6 * v), orbits[pos]), sign) for t, n, pos, sign in terms
    )


# ---------------------------------------------------------------------------
# Parsing


def _parse_half(text: str) -> HalfInt:
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LabelError(f"malformed flow index {text!r}: {exc}") from None
    return HalfInt.of(frac)


def parse_hw(params: LevelParams, text: str) -> HWLabel:
    body = text.strip()
    if not body.startswith("I["):
        raise LabelError(f"malformed highest-weight label {text!r}")
    body = body[1:]
    if "^" in body:
        core, _, exp = body.partition("^")
        ell = _parse_half(exp)
    else:
        core, ell = body, HalfInt.of(0)
    return hw_label(params, RSLabel.parse(core), ell)


def parse_standard(params: LevelParams, text: str) -> StandardLabel:
    body = text.strip()
    if not body.startswith("R~["):
        raise LabelError(f"malformed standard label {text!r}")
    body = body[2:]
    if "^" in body:
        core, _, exp = body.rpartition("^")
        ell = _parse_half(exp)
    else:
        core, ell = body, HalfInt.of(0)
    if not (core.startswith("[") and core.endswith("]]")):
        raise LabelError(f"malformed standard label {text!r}")
    inner = core[1:-1]
    jtext, _, orbtext = inner.partition(";")
    try:
        j = Fraction(jtext)
    except (ValueError, ZeroDivisionError) as exc:
        raise LabelError(f"malformed charge in {text!r}: {exc}") from None
    orbit = parse_orbit(params, orbtext)
    return standard_label(j, orbit, ell)


def parse_label(params: LevelParams, text: str):
    if not isinstance(text, str):
        raise LabelError(f"a label is text, not {type(text).__name__}")
    body = text.strip()
    if body.startswith("R~"):
        return parse_standard(params, body)
    if body.startswith("I["):
        return parse_hw(params, body)
    if body.startswith("[["):
        return parse_orbit(params, body)
    if body.startswith("["):
        return check_surv(params, RSLabel.parse(body))
    raise LabelError(f"unrecognised label {text!r}")
