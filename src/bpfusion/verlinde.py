"""S-kernels, closed-form Grothendieck fusion, the resolution algorithm,
an independent Fourier-extraction oracle, simple currents, and the
type-3 subring isomorphism check.

Charges and flow indices are exact rationals throughout; the only floats
are S-matrix values, which never feed the closed-form fusion path.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .labels import (
    FormalSum,
    HalfInt,
    HWLabel,
    StandardLabel,
    _mod1,
    gap_table,
    hw_label,
    is_nonsimple_standard,
    orbit_type,
    rewrite_gaps,
    series_of,
    standard_label,
    vacuum_label,
)
from .levels import (
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    _surv,
    hw_data,
    j_of,
    jtw_of,
    orbit_of,
    orbit_table,
    per_level,
    sigma,
)
from .sl3 import fusion_table, kac_walton
from .w3modular import (
    INTEGER_TOL,
    POLE_TOL,
    _cached_smatrix,
    _position,
    cexp,
    fusion_factors,
    w3_fusion,
    w3_fusion_support,
)

HALF = Fraction(1, 2)


class GapDivergenceError(ValueError):
    """Kernel evaluated against a nonsimple standard label."""


# how many remainder terms a NotStabilisedError message lists; all are on `terms`
UNSETTLED_SHOWN = 6


class NotStabilisedError(RuntimeError):
    """A resolved fusion product did not divide exactly by (1 - εq^P).

    Carries what failed: the level pair `uv`, the inputs `a` and `b`, and
    `terms`, the remainder of the division that was not exact.
    """

    def __init__(self, message: str, params: LevelParams, a, b, terms: FormalSum):
        self.uv = (params.u, params.v)
        self.a, self.b, self.terms = a, b, terms
        shown = FormalSum(list(terms)[:UNSETTLED_SHOWN])
        more = f" + ... ({len(terms)} terms in all)" if len(terms) > len(shown) else ""
        super().__init__(f"{message} (u,v)=({params.u},{params.v}); remainder {shown}{more}")


class OracleError(RuntimeError):
    """The Verlinde oracle did not land on an integer.

    Carries what failed: the level pair `uv`, the inputs `a` and `b`, the
    `candidate`, the oracle `value` and its `distance` from the nearest
    integer.
    """

    def __init__(self, params: LevelParams, a, b, candidate, value: complex, distance: float):
        self.uv = (params.u, params.v)
        self.a, self.b, self.candidate = a, b, candidate
        self.value, self.distance = value, distance
        super().__init__(
            f"oracle value {value} for {candidate} in {a} x {b} at (u,v)=({params.u},{params.v}) "
            f"is {distance:.3g} from the nearest integer (allowed {INTEGER_TOL})"
        )


# ---------------------------------------------------------------------------
# Kernels


@dataclass(frozen=True)
class SKernelEntry:
    value: complex
    w3_factor: complex
    phase_exponent: Fraction  # the value is w3_factor * e^{2 pi i phase} / denominator
    denominator: complex | None = None


def standard_kernel(params: LevelParams, a: StandardLabel, b: StandardLabel) -> SKernelEntry:
    """Kernel entry between two standard labels; symmetric in its arguments."""
    if not (isinstance(a, StandardLabel) and isinstance(b, StandardLabel)):
        raise LabelError(f"the standard kernel takes two standard labels, not {a} and {b}")
    kappa = params.kappa
    la, lb = a.ell.as_fraction(), b.ell.as_fraction()
    phase = -(2 * kappa * la * lb + la * (b.j - kappa) + (a.j - kappa) * lb)
    w3 = _cached_smatrix(params).entry(a.orbit, b.orbit)
    return SKernelEntry(w3 * cexp(phase), w3, phase)


def _type3_middle_form(params: LevelParams, a: HWLabel) -> tuple[Fraction, RSLabel]:
    """Present a type-3 label through its middle orbit representative."""
    if orbit_type(params, a.lam) != 3:
        raise LabelError(f"{a} is not type-3")
    mid = RSLabel(sigma(a.lam).r, (params.v - 2, -1, 0))
    return a.ell.as_fraction() - 1, mid


def _type3_under_form(params: LevelParams, a: HWLabel) -> tuple[Fraction, RSLabel, OrbitClass]:
    """The middle form of a type-3 label and its under-orbit [[mid.r; v-3,0,0]]."""
    ell, mid = _type3_middle_form(params, a)
    return ell, mid, orbit_of(params, RSLabel(mid.r, (params.v - 3, 0, 0)))


def _denominator(params: LevelParams, b: StandardLabel) -> complex:
    kappa = params.kappa
    jk = float(b.j - kappa)
    total = 2 * math.cos(3 * math.pi * jk)
    for member in b.orbit.members:
        a_i = jk + 2 * float(jtw_of(params, member))
        total -= 2 * math.cos(math.pi * a_i)
    return total


def type3_kernel(params: LevelParams, a: HWLabel, b: StandardLabel) -> SKernelEntry:
    """Kernel entry between a type-3 highest-weight label and a standard one."""
    if is_nonsimple_standard(params, b):
        raise GapDivergenceError(f"kernel diverges: {b} is nonsimple")
    kappa = params.kappa
    ell, mid, under = _type3_under_form(params, a)
    lb = b.ell.as_fraction()
    jlam = j_of(params, mid)
    phase = -(2 * kappa * (ell - HALF) * lb + (ell - HALF) * (b.j - kappa) + jlam * lb)
    w3 = _cached_smatrix(params).entry(under, b.orbit)
    den = _denominator(params, b)
    if abs(den) < POLE_TOL:
        raise GapDivergenceError(f"kernel denominator vanished at {b}")
    return SKernelEntry(w3 * cexp(phase) / den, w3, phase, den)


def vacuum_kernel(params: LevelParams, b: StandardLabel) -> SKernelEntry:
    """Kernel entry of the vacuum module against a simple standard label."""
    return type3_kernel(params, vacuum_label(params), b)


# ---------------------------------------------------------------------------
# Closed-form Grothendieck fusion


# the four output classes of a standard product, as (flow step, multiple of
# kappa added to the charge): the plain W3 product lands at the first two,
# the products with b's omega-shifted s-labels (down, then up) at the last two
STANDARD_CLASSES = ((2, -4), (-1, 2), (1, -2), (0, 0))
OMEGA_SHIFTS = ((1, -1, 0), (0, 1, -1), (-1, 0, 1))  # of an s-label, by sign -1 (down) or +1 (up)


@per_level
def _shift_targets(params: LevelParams) -> np.ndarray:
    """For each orbit, the positions of the orbits of its representative with
    the s-label shifted by each of OMEGA_SHIFTS down, then up: a read-only
    (n, 6) int64 table, built once per level.  A shifted label on the
    alcove boundary (an entry -1) is no interior label and reads -1."""
    table = orbit_table(params)
    targets = np.full((len(table.orbits), 2 * len(OMEGA_SHIFTS)), -1, dtype=np.int64)
    for i, orb in enumerate(table.orbits):
        r, s, j = orb.rep.r, orb.rep.s, 0
        for sign in (-1, 1):
            for d in OMEGA_SHIFTS:
                f = table.index.get(RSLabel(r, (s[0] + sign * d[0], s[1] + sign * d[1], s[2] + sign * d[2])))
                if f is not None:
                    targets[i, j] = table.position[f]
                j += 1
    targets.setflags(write=False)
    return targets


def _standard_rows(params: LevelParams, ia: int, ib: int) -> tuple:
    """The W3 part of `fuse_standard` for the orbits at positions ia and ib:
    one row of (orbit position, coefficient) pairs per entry of
    STANDARD_CLASSES, the three shifts of each direction (`_shift_targets`)
    merged into one row."""
    table = orbit_table(params)
    position, orbits = table.position, table.orbits
    a, targets = orbits[ia], _shift_targets(params)[ib].tolist()

    def row(positions) -> tuple:
        out: dict[int, int] = {}
        for i in positions:
            if i >= 0:
                for orb in w3_fusion_support(params, a, orbits[i]):
                    out[position[orb]] = out.get(position[orb], 0) + w3_fusion(params, a, orbits[i], orb)
        return tuple(out.items())

    plain = row((ib,))
    return (plain, plain, row(targets[:3]), row(targets[3:]))


@per_level
def _rows_at(params: LevelParams, ia: int, ib: int) -> tuple:
    """The rows of `_standard_rows` for the orbits at positions ia and ib,
    read straight off `fusion_factors` and `_shift_targets`, built once per
    level and orbit pair.  A row is two tuples (less memory than pairs):
    the orbit positions of its nonzero W3 coefficients, and the coefficients."""
    f = fusion_factors(params)
    r, s = f.r_index, f.s_index
    targets = np.concatenate(([ib], _shift_targets(params)[ib]))
    # the plain product, then b's three down- and three up-shifted orbits;
    # a target -1 (no interior label) reads a zero row
    rows = f.n_r[r[ia]][r[targets]][:, r] * f.n_s[s[ia]][s[targets]][:, s] * (targets >= 0)[:, None]
    parts = np.add.reduceat(rows, [0, 1, 4])
    which, positions = np.nonzero(parts)
    ends = [0, *np.searchsorted(which, (1, 2)).tolist(), len(which)]
    values, positions = parts[which, positions].tolist(), positions.tolist()
    plain, down, up = ((tuple(positions[i:j]), tuple(values[i:j])) for i, j in zip(ends, ends[1:]))
    return plain, plain, down, up


def fuse_standard(params: LevelParams, a: StandardLabel, b: StandardLabel) -> FormalSum:
    """Grothendieck fusion of two standard labels (closed form), read off
    `_standard_rows`; each of the four (flow, charge) pairs is made once."""
    kappa, orbits = params.kappa, orbit_table(params).orbits
    ell, jj = a.ell + b.ell, a.j + b.j
    rows = _standard_rows(params, _position(params, a.orbit), _position(params, b.orbit))
    out = FormalSum()
    for (step, mult), row in zip(STANDARD_CLASSES, rows):
        flow, charge = ell + step, _mod1(jj + mult * kappa)
        for pos, n in row:
            out._add(StandardLabel(flow, charge, orbits[pos]), n)
    return out


def fuse_type3_standard(params: LevelParams, a: HWLabel, b: StandardLabel) -> FormalSum:
    """Grothendieck fusion of a type-3 highest-weight label with a standard one."""
    ell, mid, under = _type3_under_form(params, a)
    jj = j_of(params, mid) + b.j
    flow = HalfInt.of(ell) + b.ell
    return FormalSum(
        (standard_label(jj, orb, flow), w3_fusion(params, under, b.orbit, orb))
        for orb in w3_fusion_support(params, under, b.orbit)
    )


def fuse_type3_type3(params: LevelParams, a: HWLabel, b: HWLabel) -> FormalSum:
    """Grothendieck fusion of two type-3 highest-weight labels."""
    v = params.v
    ell_a, mid_a = _type3_middle_form(params, a)
    ell_b, mid_b = _type3_middle_form(params, b)
    ell = HalfInt.of(ell_a + ell_b)
    return FormalSum(
        (hw_label(params, RSLabel(rpp, (v - 2, -1, 0)), ell), n)
        for rpp, n in fusion_table(params.u - 3, mid_a.r, mid_b.r).items()
    )


# ---------------------------------------------------------------------------
# General fusion via resolutions


def _numerator(params: LevelParams, a: HWLabel, scale: int) -> list:
    """a's resolution times (1 - εq^P), ε = (-1)^v and q one unit of flow:
    the head, the head one period up with sign -ε, and the block, as (twice
    flow, charge numerator over 6v * scale, orbit position, coefficient),
    a's flow (half-integral or not) folded into the twice flow."""
    head, block = series_of(params, a.lam)
    up, eps = 6 * params.v, (-1) ** params.v
    shifted = tuple((t + up, n, pos, -eps * c) for t, n, pos, c in head)
    return [(t + a.ell.twice, n * scale, pos, c) for t, n, pos, c in head + shifted + block]


def _product(params: LevelParams, xs, ys, den: int, width: int) -> dict[int, int]:
    """The sum of cx * cy * fuse_standard(x, y) over the terms x of xs and y of
    ys, each (twice flow, charge numerator over den, orbit position, coeff),
    on integer keys t * width + n * n_orbits + pos: twice the flow t, the
    charge numerator n mod den and the orbit position (rows: `_rows_at`)."""
    u, v, norb = params.u, params.v, len(orbit_table(params).orbits)
    kappa_den = (2 * u - 3 * v) * (den // (6 * v))  # kappa * den, kappa = (2u - 3v) / 6v
    classes = [(2 * step * width, mult * kappa_den) for step, mult in STANDARD_CLASSES]
    total: dict[int, int] = {}
    for ty, ny, ib, cy in ys:
        for tx, nx, ia, cx in xs:
            t, n, cxy = (tx + ty) * width, nx + ny, cx * cy
            for (dt, dn), (positions, coeffs) in zip(classes, _rows_at(params, ia, ib)):
                k0 = t + dt + (n + dn) % den * norb
                for pos, c in zip(positions, coeffs):
                    total[k0 + pos] = total.get(k0 + pos, 0) + cxy * c
    return total


def _divide(terms: dict[int, int], step: int, eps: int, times: int) -> tuple[dict[int, int], dict[int, int]]:
    """The quotient of terms by (1 - eps * s)^times, s adding `step` to a key,
    and the remainder of the first division that is not exact.  Keys equal
    mod step form a chain, along which Q[k] = terms[k] + eps * Q[k - step]
    from its first key to its last; a division is exact when every chain
    ends at 0, and otherwise leaves eps * Q one step past each chain's end."""
    for _ in range(times):
        chains, quotient, remainder = {}, {}, {}  # chains: key mod step -> its keys
        for key, c in terms.items():
            if c:
                chains.setdefault(key % step, []).append(key)
        for keys in chains.values():
            q, last = 0, max(keys)
            for key in range(min(keys), last + 1, step):
                q = terms.get(key, 0) + eps * q
                if q:
                    quotient[key] = q
            if q:
                remainder[last + step] = eps * q
        if remainder:
            return quotient, remainder
        terms = quotient
    return terms, {}


def fuse_general(params: LevelParams, a: HWLabel, b) -> FormalSum:
    """Grothendieck fusion of a highest-weight label `a` with a highest-weight
    or standard label `b`, from resolutions by standard labels.

    A resolution is H + B / (1 - εq^P): a finite head H and a block B that
    repeats every P = 3v flows with sign ε = (-1)^v (`labels._series`).  With
    the numerators S = H (1 - εq^P) + B, a x b is S_a b / (1 - εq^P) for a
    standard b, its own resolution, and S_a S_b / (1 - εq^P)^2 otherwise.
    The numerator is fused on integer keys (`_product`) and divided exactly
    along flow (`_divide`).  If the quotient is not exact, the numerator's
    nonsimple standard terms are rewritten through their exact sequences
    (`rewrite_gaps`) and it is divided again; NotStabilisedError if that is
    not exact either.
    """
    if not isinstance(a, HWLabel):
        raise LabelError(f"fuse_general takes a highest-weight label first, not {a}")
    if not isinstance(b, (HWLabel, StandardLabel)):
        raise LabelError(f"fusion takes highest-weight or standard labels, not {b}")
    v = params.v
    if isinstance(b, StandardLabel):
        den = math.lcm(6 * v, b.j.denominator)
        ys, times = [(b.ell.twice, b.j.numerator * (den // b.j.denominator), _position(params, b.orbit), 1)], 1
    else:
        den, ys, times = 6 * v, _numerator(params, b, 1), 2
    orbits, surv = orbit_table(params).orbits, _surv(params)
    # a key is t * width + chain: chains below `hw` are the (charge, orbit)
    # pairs of standard labels, those from `hw` on the weight labels of surv
    hw = den * len(orbits)
    width = hw + len(surv)
    step, eps = 6 * v * width, (-1) ** v

    def to_labels(terms: dict[int, int]) -> FormalSum:
        out = FormalSum()
        for key, c in terms.items():
            t, chain = divmod(key, width)
            if chain >= hw:
                out._add(HWLabel(HalfInt(t), surv[chain - hw]), c)
            else:
                n, pos = divmod(chain, len(orbits))
                out._add(StandardLabel(HalfInt(t), Fraction(n, den), orbits[pos]), c)
        return out

    def to_keys(terms: FormalSum) -> dict[int, int]:
        out = {}
        for x, c in terms.items():
            if isinstance(x, HWLabel):
                chain = hw + bisect_left(surv, x.lam)
            else:
                chain = x.j.numerator * (den // x.j.denominator) * len(orbits) + _position(params, x.orbit)
            out[x.ell.twice * width + chain] = c
        return out

    numerator = _product(params, _numerator(params, a, den // (6 * v)), ys, den, width)
    quotient, remainder = _divide(numerator, step, eps, times)
    if remainder:
        quotient, remainder = _divide(to_keys(rewrite_gaps(params, to_labels(numerator))), step, eps, times)
        if remainder:
            raise NotStabilisedError(
                f"fusion of {a} and {b} does not divide exactly by (1 - eps q^P):", params, a, b, to_labels(remainder)
            )
    return to_labels(quotient)


def fuse(params: LevelParams, a, b) -> FormalSum:
    """Fusion dispatcher: closed forms where they exist, resolutions otherwise."""
    for x in (a, b):
        if not isinstance(x, (HWLabel, StandardLabel)):
            raise LabelError(f"fusion takes highest-weight or standard labels, not {x}")
    if isinstance(a, StandardLabel) and isinstance(b, StandardLabel):
        return fuse_standard(params, a, b)
    if isinstance(a, StandardLabel) or isinstance(b, StandardLabel):
        hw, std = (b, a) if isinstance(a, StandardLabel) else (a, b)
        if orbit_type(params, hw.lam) == 3:
            return fuse_type3_standard(params, hw, std)
        return fuse_general(params, hw, std)
    if orbit_type(params, a.lam) == 3 and orbit_type(params, b.lam) == 3:
        return fuse_type3_type3(params, a, b)
    return fuse_general(params, a, b)


def fuse_sums(params: LevelParams, fa: FormalSum, fb: FormalSum) -> FormalSum:
    """Bilinear extension of `fuse` to formal sums."""
    return FormalSum.combine((fuse(params, la, lb), ca * cb) for la, ca in fa for lb, cb in fb)


# ---------------------------------------------------------------------------
# Independent Verlinde oracle


# An oracle factor is (orbit, m_freq, two_k, d_power): the S-matrix row of
# `orbit`, the charge frequency m_freq, twice the flow frequency, and the
# power of the denominator D the factor carries.  A candidate enters as the
# conjugate of its standard factor: m_freq and two_k negated, row conjugated.


def _standard_factor(params: LevelParams, x: StandardLabel):
    kappa = params.kappa
    return (x.orbit, kappa * x.ell.twice + (x.j - kappa), x.ell.twice, 0)


def _type3_factor(params: LevelParams, x: HWLabel):
    _, mid, under = _type3_under_form(params, x)
    two_k = x.ell.twice - 3  # 2 (ell - 1/2) with ell = x.ell - 1
    return (under, params.kappa * two_k + j_of(params, mid), two_k, -1)


def oracle_integers(params: LevelParams, a, b, values: np.ndarray, candidate_at, where=None) -> np.ndarray:
    """The integers that oracle values stand for.

    Raises OracleError at the first entry (among `where`, if given) farther
    than INTEGER_TOL from its nearest integer; `candidate_at(i)` names the
    candidate of entry i.
    """
    nearest = np.rint(values.real)
    off = np.abs(values - nearest)
    bad = ~(off <= INTEGER_TOL)  # a NaN is bad too
    if where is not None:
        bad &= where
    if bad.any():
        i = int(np.argmax(bad))
        raise OracleError(params, a, b, candidate_at(i), complex(values[i]), float(off[i]))
    return nearest.astype(np.int64)


def oracle_values(smat, base: np.ndarray, terms) -> dict:
    """Unrounded oracle values at every candidate orbit, one array of base's
    shape per distinct entry of `terms`.  A row of `base` is S[a] * S[b] /
    S[vac] for an input pair; a term of D's expansion (see VerlindeOracle)
    is one product S* @ (weight * base), weight 1, -sum e(jtw) or its
    conjugate; None reads 0."""
    weights = {0: 1, 1: -smat.member_phase_sum, -1: -smat.member_phase_sum.conj()}
    out = {}
    for term in set(terms):
        if term is None:
            out[term] = np.zeros(base.shape, dtype=complex)
            continue
        # S* @ w for each row w, as conj(w* @ S^T): no conjugate matrix is formed
        rows = base * weights[term]
        product = np.conj(rows, out=rows) @ smat.matrix.T
        out[term] = np.conj(product, out=product)
    return out


def oracle_term(kappa: Fraction, offset: Fraction, two_k: int, d_total: int, ell_twice: int, charge: Fraction):
    """The term of D's expansion that the class (ell, charge) extracts from
    a Verlinde sum with charge offset `offset`, 2K `two_k` and D-power
    `d_total` (see VerlindeOracle): 0, +1 or -1 (see `oracle_values`), or
    None when every coefficient of the class is 0."""
    kn, kd = kappa.numerator, kappa.denominator
    diff = offset - charge
    num, den = diff.numerator * kd, diff.denominator
    # diff - kappa * ell_twice, over the denominator den * kd, must be an integer
    if (num - kn * ell_twice * den) % (den * kd):
        return None
    two_k -= ell_twice
    # with no D left only 2K = 0 survives; otherwise expand
    # D(k, mu) = y^3 + y^-3 - sum_i (y w_i + y^-1 w_i*) against y^{-2K}
    if (d_total == 0 and two_k == 0) or (d_total == 1 and two_k in (3, -3)):
        return 0
    if d_total == 1 and two_k in (1, -1):
        return two_k
    return None


class VerlindeOracle:
    """The Verlinde oracle at fixed inputs a and b, for any candidate.

    The charge sum collapses to an exact rational congruence and the
    circle integral to a constant Fourier coefficient of a finite
    trigonometric polynomial, leaving a finite sum of S-matrix ratios.
    A candidate enters that sum through its conjugated S-row and through
    its class (ell, charge): the class alone fixes the congruence, 2K and
    the power of D, and so the one term of D's expansion that survives.
    The values of every candidate of a class are therefore one product
    (`oracle_values`); the term does not depend on the inputs' orbits.

    Inputs may be standard labels or type-3 highest-weight labels, at
    most one of the latter (two would leave a live denominator).
    """

    def __init__(self, params: LevelParams, a, b):
        factors = []
        for x in (a, b):
            if isinstance(x, StandardLabel):
                factors.append(_standard_factor(params, x))
            elif isinstance(x, HWLabel) and orbit_type(params, x.lam) == 3:
                factors.append(_type3_factor(params, x))
            else:
                raise LabelError(f"oracle input {x} must be standard or type-3")
        (orb_a, m_a, k_a, d_a), (orb_b, m_b, k_b, d_b) = factors
        if d_a + d_b < -1:
            raise LabelError("at most one type-3 input: two leave a live denominator")
        self.params, self.a, self.b = params, a, b
        self._smat = smat = _cached_smatrix(params)
        # the charge sum m_a + m_b - (kappa * 2ell + charge - kappa) + kappa
        # must be an integer; _offset holds all of it but the candidate's part
        self._offset = m_a + m_b + 2 * params.kappa
        self._two_k = k_a + k_b + 1
        self._d_total = d_a + d_b + 1
        rows = smat.matrix
        self._base = smat.vacuum_inverse * rows[smat.index(orb_a)] * rows[smat.index(orb_b)]

    def term(self, ell_twice: int, charge: Fraction):
        """`oracle_term` of the class (ell, charge) in this sum."""
        return oracle_term(self.params.kappa, self._offset, self._two_k, self._d_total, ell_twice, charge)

    def values(self, ell: HalfInt, charge: Fraction) -> np.ndarray:
        """The unrounded oracle values of standard_label(charge, c, ell) for
        every orbit c of `enumerate_infwts`; `charge` lies in [0, 1), as a
        standard label stores it.  Nonsimple candidates' values mean nothing."""
        term = self.term(ell.twice, charge)
        return oracle_values(self._smat, self._base[None], [term])[term][0]


def simple_candidates(params: LevelParams, charge) -> np.ndarray:
    """Boolean mask over `enumerate_infwts`: whether the standard label of
    this charge (taken mod 1) over each orbit is simple, read off the gap
    table."""
    charge = _mod1(charge)
    table = gap_table(params)
    return np.array(
        [all(gap != charge for _, gap in table[orb]) for orb in orbit_table(params).orbits], dtype=bool
    )


def verlinde_oracle(params: LevelParams, a, b, candidate: StandardLabel) -> int:
    """Fusion coefficient of `candidate` in a x b by exact Fourier extraction
    (see VerlindeOracle).  The candidate must be simple."""
    if is_nonsimple_standard(params, candidate):
        raise LabelError(f"candidate {candidate} must be simple")
    i = _cached_smatrix(params).index(candidate.orbit)
    values = VerlindeOracle(params, a, b).values(candidate.ell, candidate.j)
    return int(oracle_integers(params, a, b, values[i : i + 1], lambda _: candidate)[0])


# ---------------------------------------------------------------------------
# Simple currents and the type-3 subring


def simple_currents(params: LevelParams) -> list[tuple[HWLabel, Fraction, Fraction]]:
    """The two order-3 invertible highest-weight labels with their weights.

    Empty for u = 3, where both would collapse onto the vacuum orbit.
    """
    u, v = params.u, params.v
    if u == 3:
        return []
    out = []
    for r in ((0, u - 3, 0), (0, 0, u - 3)):
        mid = RSLabel(r, (v - 2, -1, 0))
        label = hw_label(params, mid, 0)
        data = hw_data(params, mid)
        for other in _type3_basis(params):
            product = fuse_type3_type3(params, label, other)
            if len(product) != 1 or any(c != 1 for _, c in product):
                raise RuntimeError(f"{label} failed the invertibility scan against {other}")
        out.append((label, data.j, data.delta))
    return out


def _type3_basis(params: LevelParams) -> list[HWLabel]:
    u, v = params.u, params.v
    out = []
    for r0 in range(u - 2):
        for r1 in range(u - 2 - r0):
            r = (r0, r1, u - 3 - r0 - r1)
            out.append(hw_label(params, RSLabel(r, (v - 2, -1, 0)), 0))
    return out


def subring_iso_check(params: LevelParams) -> bool:
    """Structure constants of the type-3 subring match the affine fusion ring."""
    level = params.u - 3
    basis = _type3_basis(params)
    mids = [_type3_middle_form(params, lab)[1].r for lab in basis]
    for i, a in enumerate(basis):
        for jx, b in enumerate(basis):
            product = fuse_type3_type3(params, a, b)
            total = sum(coeff for _, coeff in product)
            expected_total = 0
            for kx, c in enumerate(basis):
                expected = kac_walton(level, mids[i], mids[jx], mids[kx])
                if product.coeff(c) != expected:
                    return False
                expected_total += expected
            if total != expected_total:
                return False
    return True
