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
from functools import lru_cache

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
    resolution,
    rewrite_gaps,
    standard_label,
    vacuum_label,
)
from .levels import (
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    _enumerate_surv,
    check_surv,
    hw_data,
    j_of,
    jtw_of,
    level_params,
    orbit_of,
    orbit_table,
    sigma,
)
from .sl3 import fusion_table, kac_walton
from .w3modular import (
    INTEGER_TOL,
    POLE_TOL,
    _cached_smatrix,
    _position,
    cexp,
    w3_fusion,
    w3_fusion_support,
)

HALF = Fraction(1, 2)


class GapDivergenceError(ValueError):
    """Kernel evaluated against a nonsimple standard label."""


# how many unsettled terms a NotStabilisedError message lists; all are on `terms`
UNSETTLED_SHOWN = 6


class NotStabilisedError(RuntimeError):
    """A depth-truncated fusion failed to settle; raise the depth.

    Carries what failed: the level pair `uv`, the inputs `a` and `b`, the
    `depth`, the flow `top` the failed pass reached, and `terms`, the
    nonzero terms of the window that did not settle.
    """

    def __init__(self, message: str, params: LevelParams, a, b, depth: int, top: int, terms: FormalSum):
        self.uv = (params.u, params.v)
        self.a, self.b, self.depth, self.top, self.terms = a, b, depth, top, terms
        shown = FormalSum(list(terms)[:UNSETTLED_SHOWN])
        more = f" + ... ({len(terms)} terms in all)" if len(terms) > len(shown) else ""
        super().__init__(
            f"{message} (u,v)=({params.u},{params.v}), depth {depth}, top {top}; "
            f"unsettled terms {shown}{more}"
        )


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


@lru_cache(maxsize=None)
def _shift_targets(u: int, v: int) -> np.ndarray:
    """For each orbit, the positions of the orbits of its representative with
    the s-label shifted by each of OMEGA_SHIFTS down, then up: a read-only
    (n, 6) int64 table, built once per process.  A shifted label on the
    alcove boundary (an entry -1) is no interior label and reads -1."""
    table = orbit_table(level_params(u, v))
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
    a, targets = orbits[ia], _shift_targets(params.u, params.v)[ib].tolist()

    def row(positions) -> tuple:
        out: dict[int, int] = {}
        for i in positions:
            if i >= 0:
                for orb in w3_fusion_support(params, a, orbits[i]):
                    out[position[orb]] = out.get(position[orb], 0) + w3_fusion(params, a, orbits[i], orb)
        return tuple(out.items())

    plain = row((ib,))
    return (plain, plain, row(targets[:3]), row(targets[3:]))


@lru_cache(maxsize=None)
def _rows_at(u: int, v: int, ia: int, ib: int) -> tuple:
    """`_standard_rows` at (u, v), built once per process and keyed on ints."""
    return _standard_rows(level_params(u, v), ia, ib)


@lru_cache(maxsize=None)
def _resolution_ints(u: int, v: int, lam: int, depth: int) -> tuple:
    """resolution(params, I[lam]^0, depth), lam a position in `enumerate_surv`,
    built once per process as (twice flow, charge numerator over 6v, orbit
    position, coefficient) tuples, one per term in the resolution's order."""
    params = level_params(u, v)
    position = orbit_table(params).position
    res = resolution(params, HWLabel(HalfInt(0), _enumerate_surv(u, v)[lam]), depth)
    return tuple(
        (x.ell.twice, x.j.numerator * 6 * v // x.j.denominator, position[x.orbit], c) for x, c in res.items()
    )


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


def _resolved_product(params: LevelParams, a: HWLabel, res_b: FormalSum, depth_at) -> FormalSum:
    """The sum of cx * cy * fuse_standard(x, y) over the terms y, cy of res_b
    and x, cx of resolution(params, a, depth_at(f)), f the lowest flow at
    which y's charge and orbit occur in res_b; flowed copies of one such term
    share a product.  All charges lie in (1/D)Z, D the lcm of 6v (a
    resolution's charges) and res_b's denominators, so a term is an integer
    key (twice its flow, charge numerator over D mod D, orbit position);
    only surviving keys become labels.  The resolutions and the W3 rows come
    from process-wide tables (`_resolution_ints`, `_rows_at`)."""
    u, v = params.u, params.v
    den = math.lcm(6 * v, *(y.j.denominator for y, _ in res_b.items()))
    scale = den // (6 * v)
    classes = [(2 * step, mult * (params.kappa * den).numerator) for step, mult in STANDARD_CLASSES]
    lam, a_twice = bisect_left(_enumerate_surv(u, v), check_surv(params, a.lam)), a.ell.twice
    placed: dict = {}  # (charge, orbit) of a term of res_b -> [(twice its flow, coeff)]
    for y, cy in res_b.items():
        placed.setdefault((y.j, y.orbit), []).append((y.ell.twice, cy))
    total: dict[tuple[int, int, int], int] = {}
    for (j, orb_b), copies in placed.items():
        num_b, ib = j.numerator * (den // j.denominator), _position(params, orb_b)
        part: dict[tuple[int, int, int], int] = {}
        for tx, nx, ia, cx in _resolution_ints(u, v, lam, depth_at(min(t for t, _ in copies) // 2)):
            tx, num = tx + a_twice, nx * scale + num_b
            for (dt, dn), row in zip(classes, _rows_at(u, v, ia, ib)):
                t, n = tx + dt, (num + dn) % den
                for pos, c in row:
                    key = (t, n, pos)
                    part[key] = part.get(key, 0) + cx * c
        for (t, n, pos), c in part.items():
            if c:
                for tb, cy in copies:
                    key = (t + tb, n, pos)
                    total[key] = total.get(key, 0) + cy * c
    orbits, total = orbit_table(params).orbits, {key: c for key, c in total.items() if c}
    charges = {n: Fraction(n, den) for _, n, _ in total}
    return FormalSum((StandardLabel(HalfInt(t), charges[n], orbits[pos]), c) for (t, n, pos), c in total.items())


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


def _zone(fs: FormalSum, top: int, width: int) -> FormalSum:
    """The terms of fs at flows in (top - width, top]; empty once fs has telescoped."""
    return fs.restrict(lambda lab: 2 * (top - width) < lab.ell.twice <= 2 * top)


def fuse_general(params: LevelParams, a: HWLabel, b, depth: int | None = None) -> FormalSum:
    """Grothendieck fusion of a highest-weight label `a` with a highest-weight
    or standard label `b`, computed from resolutions and telescope collection.

    b is resolved once (a standard b is its own one-term resolution) and
    each distinct flow-0 term of that is fused once with a's resolution;
    flowed into place, the copies make one product.  That product is
    settled cut at a shallow and at a deep top: nonsimple standard terms
    are re-expressed through their exact sequences, and the result must
    telescope within the given depth and agree between the two cuts.
    `fuse` dispatches every other mix of labels.
    """
    if not isinstance(a, HWLabel):
        raise LabelError(f"fuse_general takes a highest-weight label first, not {a}")
    if not isinstance(b, (HWLabel, StandardLabel)):
        raise LabelError(f"fusion takes highest-weight or standard labels, not {b}")
    v = params.v
    if depth is None:
        depth = 9 * v
    if depth < 1:
        raise LabelError("depth must be >= 1")
    # resolutions live in the integral-flow sector; pull half units out front
    half = HalfInt.of(HALF)
    shift_back = HalfInt.of(0)
    if not a.ell.is_integer:
        a = HWLabel(a.ell - half, a.lam)
        shift_back = shift_back + half
    if isinstance(b, HWLabel) and not b.ell.is_integer:
        b = HWLabel(b.ell - half, b.lam)
        shift_back = shift_back + half
    if shift_back.twice:
        return fuse_general(params, a, b, depth).shifted(params, shift_back)

    flow_a, flow_b = a.ell.twice // 2, b.ell.twice // 2
    period = 3 * v
    margin = 4
    top1 = flow_a + flow_b + 2 + depth
    top2 = top1 + period
    # fuse_standard lowers flow by at most 1, so the resolution terms each cut
    # below leaves out only reach output flows >= top2 + 4: the product is
    # exact at flows <= top2, and cut at top1 it is what a shallower one gives
    if isinstance(b, StandardLabel):
        res_b = FormalSum.lone(b)
    else:
        res_b = resolution(params, b, top2 - flow_a - flow_b + margin)
    product = _resolved_product(params, a, res_b, lambda flow: max(top2 - flow - flow_a + margin, 1))

    def settle(top: int) -> FormalSum:
        raw = product.restrict(lambda lab: lab.ell.twice <= 2 * top)
        if not _zone(raw, top, period):
            return raw
        safe_top = top - margin
        rewritten = rewrite_gaps(params, raw).restrict(lambda lab: lab.ell.twice <= 2 * safe_top)
        unsettled = _zone(rewritten, safe_top, period)
        if unsettled:
            raise NotStabilisedError(
                f"fusion of {a} and {b} did not telescope by flow {top}; raise the depth:",
                params, a, b, depth, top, unsettled,
            )
        return rewritten

    out1 = settle(top1)
    out2 = settle(top2)
    window = top1 - period - margin
    r1 = out1.restrict(lambda lab: lab.ell.twice <= 2 * window)
    r2 = out2.restrict(lambda lab: lab.ell.twice <= 2 * window)
    if r1 != r2 or out2 != r2:
        raise NotStabilisedError(
            f"fusion of {a} and {b} is not stable at depth {depth}:", params, a, b, depth, top2, out2 - r1
        )
    return r1


def fuse(params: LevelParams, a, b, depth: int | None = None) -> FormalSum:
    """Fusion dispatcher: closed forms where they exist, resolutions otherwise."""
    for x in (a, b):
        if not isinstance(x, (HWLabel, StandardLabel)):
            raise LabelError(f"fusion takes highest-weight or standard labels, not {x}")
    if depth is not None and depth < 1:
        raise LabelError("depth must be >= 1")
    if isinstance(a, StandardLabel) and isinstance(b, StandardLabel):
        return fuse_standard(params, a, b)
    if isinstance(a, StandardLabel) or isinstance(b, StandardLabel):
        hw, std = (b, a) if isinstance(a, StandardLabel) else (a, b)
        if orbit_type(params, hw.lam) == 3:
            return fuse_type3_standard(params, hw, std)
        return fuse_general(params, hw, std, depth)
    if orbit_type(params, a.lam) == 3 and orbit_type(params, b.lam) == 3:
        return fuse_type3_type3(params, a, b)
    return fuse_general(params, a, b, depth)


def fuse_sums(params: LevelParams, fa: FormalSum, fb: FormalSum, depth: int | None = None) -> FormalSum:
    """Bilinear extension of `fuse` to formal sums."""
    return FormalSum.combine(
        (fuse(params, la, lb, depth), ca * cb) for la, ca in fa for lb, cb in fb
    )


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


def verlinde_oracle_row(params: LevelParams, a, b, ell, charge) -> np.ndarray:
    """Coefficients of standard_label(charge, c, ell) in a x b for every orbit
    c of `enumerate_infwts`, as one integer vector.  Nonsimple candidates,
    where the oracle is undefined, read 0."""
    charge, ell = _mod1(charge), HalfInt.of(ell)
    simple = simple_candidates(params, charge)
    values = VerlindeOracle(params, a, b).values(ell, charge)
    orbits = orbit_table(params).orbits
    out = oracle_integers(params, a, b, values, lambda i: standard_label(charge, orbits[i], ell), simple)
    out[~simple] = 0
    return out


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
