"""Modular S-matrix of the rational W-algebra factor, its identity suite,
and its fusion coefficients via the rank-2 affine factorisation.

The S-matrix is evaluated numerically (exact rational phases fed through
the complex exponential); every integer consumed downstream comes from
the affine fusion ring, so floats are verification-only here.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .levels import (
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    conjugate_orbit,
    jtw_6v,
    jtw_of,
    orbit_of,
    orbit_table,
    per_level,
    sigma,
)
from .sl3 import (
    OMEGA,
    WEYL,
    _mat_apply,
    fusion_table,
    ip,
    weight_multiplicities,
    weyl_character,
)

DEFAULT_TOL = 1e-9

# How far a Verlinde sum (the oracle's, or w3-verlinde's check of w3_fusion)
# may sit from an integer and still name it.  It is not --tol/BPFUSION_TOL:
# those bound float identities, while this decides which integer a float
# sum stands for, and a user tolerance near 0.5 would let a wrong integer
# through.  Sampled at (11,10), the sums land within 2.5e-12 of integers.
INTEGER_TOL = 1e-6

# How near zero the type-3 kernel's denominator may come before the kernel
# counts as divergent.  It is not --tol/BPFUSION_TOL either: the denominator
# vanishes exactly on the gap charges, which are rejected exactly before it
# is evaluated, so this bound only catches float rounding of an exact zero,
# while a user tolerance bounds identities and, set loose, would declare
# finite kernel entries divergent.
POLE_TOL = 1e-12

# 3 <x, y> = x @ _FORM3 @ y, an integer on integer weights (see sl3.ip)
_FORM3 = np.array([[2, 1], [1, 2]], dtype=np.int64)


class SingularInputError(ValueError):
    """An identity was evaluated at (or too near) a singular point."""


def cexp(x) -> complex:
    """e^{2 pi i x} for a rational x."""
    return cmath.exp(2j * math.pi * float(x))


def _proj(t) -> tuple[int, int]:
    return (t[1], t[2])


def _plus_rho(w) -> tuple[int, int]:
    return (w[0] + 1, w[1] + 1)


def _weyl_sum(scale: Fraction, a, b) -> complex:
    """sum over the Weyl group of det(w) e^{-2 pi i scale <w(a), b>}, integer
    weights.  Each exponent is -(num * 3<w(a), b>) / (3 * den), divided once as
    ints, which rounds that rational correctly, as float(Fraction) would."""
    num, den3 = scale.numerator, 3 * scale.denominator
    b0, b1 = b
    total = 0j
    for m, det in WEYL:
        x0, x1 = _mat_apply(m, a)
        k = (2 * x0 + x1) * b0 + (x0 + 2 * x1) * b1
        total += det * cmath.exp(2j * math.pi * (-(num * k) / den3))
    return total


def _weyl_sums(scale: Fraction, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """`_weyl_sum(scale, x, y)` for every row x of `xs` against every row y
    of `ys`, from the same exponents, so each sum equals it bit for bit."""
    num, den3 = scale.numerator, 3 * scale.denominator
    total = np.zeros((len(xs), len(ys)), dtype=complex)
    for m, det in WEYL:
        total += det * np.exp(2j * math.pi * (-(num * (xs @ np.array(m).T @ _FORM3 @ ys.T)) / den3))
    return total


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items in first-seen order, and each item's position among them."""
    where: dict = {}
    positions = [where.setdefault(x, len(where)) for x in items]
    return list(where), positions


def w3_smatrix_entry(params: LevelParams, a: RSLabel, b: RSLabel) -> complex:
    """S-matrix entry between the modules labelled by two (r; s) pairs.

    Arbitrary integral triples are accepted; entries vanish when a label
    sits on a shifted alcove boundary.
    """
    u, v = params.u, params.v
    ra, sa = _plus_rho(_proj(a.r)), _plus_rho(_proj(a.s))
    rb, sb = _plus_rho(_proj(b.r)), _plus_rho(_proj(b.s))
    phase = cexp(ip(ra, sb) + ip(sa, rb))
    first = _weyl_sum(Fraction(v, u), ra, rb)
    second = _weyl_sum(Fraction(u, v), sa, sb)
    return phase * first * second / (math.sqrt(3) * u * v)


def xi_point(params: LevelParams, s_proj) -> tuple[complex, complex]:
    """The evaluation point attached to an s-label's projection."""
    scale = -2j * math.pi * params.u / params.v
    return (scale * (s_proj[0] + 1), scale * (s_proj[1] + 1))


def _read_only(values, dtype=complex) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class W3SMatrix:
    """The full S-matrix over interior orbits, with its defining checks.

    Entry (a, b) factors as a phase e(<ra,sb> + <sa,rb>) times a Weyl sum
    over the r-weights (the level-(u-3) affine S-matrix) times one over the
    s-weights (level v-3).  The Weyl-sum tables `r_sums` and `s_sums`, over
    every weight of the two alcoves, are built once; `rows` gathers the
    entries of any labels from them, and `matrix` is `rows` of the orbit
    representatives.  All arrays are read-only.

    Besides `matrix`, two arrays feed the Verlinde sums: `vacuum_inverse`,
    1 / S[vac, mu], and `member_phase_sum`, the sum of e(jtw) over the three
    members of each orbit mu.
    """

    def __init__(self, params: LevelParams):
        self.params = params
        table = orbit_table(params)
        self.orbits = table.orbits
        u, v = params.u, params.v
        # each label triple at level u-3 (r) and v-3 (s), by table position
        self._r_at, self._s_at = (
            {t: i for i, t in enumerate((k - a - b, a, b) for a in range(k + 1) for b in range(k + 1 - a))}
            for k in (u - 3, v - 3)
        )
        r, s = (np.array([_plus_rho(_proj(t)) for t in at], dtype=np.int64) for at in (self._r_at, self._s_at))
        self.r_sums = _read_only(_weyl_sums(Fraction(v, u), r, r))
        self.s_sums = _read_only(_weyl_sums(Fraction(u, v), s, s))
        # 3<x, y> (> 0) of r- and s-weights; e(k / 3) as cexp gives it, for each k a phase can take
        self._ip3 = _read_only(r @ _FORM3 @ s.T, np.int64)
        self._phases = _read_only(np.exp(2j * math.pi * (np.arange(2 * self._ip3.max() + 1) / 3)))
        reps = [orb.rep for orb in self.orbits]
        self._r_of, self._s_of = self._positions(reps)
        self.matrix = _read_only(self.rows(reps))
        self.vacuum_inverse = _read_only(1 / self.matrix[self.index(table.vacuum)])
        # e(jtw) as cexp would take it, from the integer 6v * jtw
        self.member_phase_sum = _read_only(
            [
                sum(cmath.exp(2j * math.pi * (jtw_6v(params, m) / (6 * v))) for m in orb.members)
                for orb in self.orbits
            ]
        )

    def _positions(self, labels) -> tuple[np.ndarray, np.ndarray]:
        try:
            return np.array([self._r_at[x.r] for x in labels]), np.array([self._s_at[x.s] for x in labels])
        except KeyError as exc:
            raise LabelError(f"{exc.args[0]} is not an interior triple at ({self.params.u},{self.params.v})") from None

    def rows(self, labels) -> np.ndarray:
        """The S-entries of interior labels against every orbit (in `orbits`
        order), gathered from the tables: phase * r-sum * s-sum / (sqrt(3) u v)
        in the real operations of Python's complex product and quotient (numpy's
        round differently), so each equals `w3_smatrix_entry` bit for bit."""
        ra, sa = self._positions(labels)
        out = np.empty((len(ra), len(self.orbits)), dtype=complex)
        d = math.sqrt(3) * self.params.u * self.params.v
        for lo in range(0, len(ra), 256):  # 256 rows at a time bounds the temporaries
            i, j, block = ra[lo : lo + 256], sa[lo : lo + 256], out[lo : lo + 256]
            k = self._ip3[np.ix_(i, self._s_of)] + self._ip3[np.ix_(self._r_of, j)].T
            zr, zi = self._phases.real[k], self._phases.imag[k]
            for w in (self.r_sums[np.ix_(i, self._r_of)], self.s_sums[np.ix_(j, self._s_of)]):
                zr, zi = zr * w.real - zi * w.imag, zr * w.imag + zi * w.real
            block.real, block.imag = (zr + zi * 0.0) / d, (zi - zr * 0.0) / d
        return out

    def index(self, orbit: OrbitClass) -> int:
        return _position(self.params, orbit)

    def entry(self, a: OrbitClass, b: OrbitClass) -> complex:
        return self.matrix[self.index(a), self.index(b)]

    def conjugation_permutation(self) -> list[int]:
        return [self.index(conjugate_orbit(self.params, orb)) for orb in self.orbits]

    def is_symmetric(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.T)) <= tol)

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        n = self.matrix.shape[0]
        return bool(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(n))) <= tol)

    def squares_to_conjugation(self, tol: float = DEFAULT_TOL) -> bool:
        n = self.matrix.shape[0]
        perm = np.zeros((n, n))
        for i, jx in enumerate(self.conjugation_permutation()):
            perm[i, jx] = 1.0
        return bool(np.max(np.abs(self.matrix @ self.matrix - perm)) <= tol)


# ---------------------------------------------------------------------------
# Identity suite


def sigma_phase_checks(params: LevelParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Cycling the r- or s-triple of a row label multiplies its S-entry by a
    phase fixed by the column's twisted charge; cycling both leaves it.  As
    an n x n boolean array over orbit pairs: the rows of the r-cycled,
    s-cycled and fully cycled representatives, gathered by the cached
    matrix's `rows`, against phase * S, S / phase and S."""
    smat = _cached_smatrix(params)
    reps = [orb.rep for orb in smat.orbits]
    cycled = [sigma(x) for x in reps]
    phase = np.array([(-1) ** params.v * cexp(params.v * jtw_of(params, x)) for x in reps])
    s = smat.matrix
    ok = np.abs(smat.rows([RSLabel(c.r, x.s) for x, c in zip(reps, cycled)]) - phase * s) <= tol
    ok &= np.abs(smat.rows([RSLabel(x.r, c.s) for x, c in zip(reps, cycled)]) - s / phase) <= tol
    return ok & (np.abs(smat.rows(cycled) - s) <= tol)


def ratio_weyl_character_check(
    params: LevelParams, a: RSLabel, b: RSLabel, tol: float = DEFAULT_TOL
) -> bool:
    """Entry ratios against the s-vacuum row are exponential-weighted characters."""
    v = params.v
    zero_s = RSLabel(a.r, (v - 3, 0, 0))
    denom = w3_smatrix_entry(params, zero_s, b)
    if abs(denom) < 1e3 * tol:
        raise SingularInputError(f"reference entry too small ({abs(denom):.2e}) for a ratio")
    lhs = w3_smatrix_entry(params, a, b) / denom
    s_proj = _proj(a.s)
    rhs = cexp(ip(s_proj, _plus_rho(_proj(b.r)))) * weyl_character(s_proj, xi_point(params, _proj(b.s)))
    return abs(lhs - rhs) <= tol


def tensor_sum_check(
    params: LevelParams, a: RSLabel, t, b: RSLabel, tol: float = DEFAULT_TOL
) -> bool:
    """Summing the row's s-label over the weights of a finite module is a
    character multiple of the undisplaced entry."""
    total = 0j
    for mu, mult in weight_multiplicities(tuple(t)).items():
        s_new = (a.s[0] - mu[0] - mu[1], a.s[1] + mu[0], a.s[2] + mu[1])
        total += mult * w3_smatrix_entry(params, RSLabel(a.r, s_new), b)
    rhs = (
        cexp(ip(tuple(t), _plus_rho(_proj(b.r))))
        * weyl_character(tuple(t), xi_point(params, _proj(b.s)))
        * w3_smatrix_entry(params, a, b)
    )
    return abs(total - rhs) <= tol


def _gap_sines(params: LevelParams, jp: Fraction, orbit: OrbitClass):
    """The offsets c_i whose sines control every denominator below."""
    return [Fraction(jp) - params.kappa - jtw_of(params, m) for m in orbit.members]


def sum_fund_modules_check(
    params: LevelParams, b: RSLabel, jp, tol: float = DEFAULT_TOL
) -> bool:
    """Closed form for the weighted character sum over the symmetric powers
    of the conjugate fundamental, evaluated at a regular charge."""
    v = params.v
    kappa = params.kappa
    jp = Fraction(jp)
    orbit = orbit_of(params, b)
    cs = _gap_sines(params, jp, orbit)
    if any(c.denominator == 1 for c in cs):
        raise SingularInputError(f"charge {jp} is singular for {orbit}")
    xi = xi_point(params, _proj(b.s))
    x = -cexp(ip(_plus_rho(_proj(b.r)), OMEGA[1]) - (jp - kappa))
    lhs = sum(x**m * weyl_character((0, m), xi) for m in range(v - 2))
    sines = 8 * math.prod(math.sin(math.pi * float(c)) for c in cs)
    rhs = (
        (1 - cexp(-v * (jp - kappa)) * cexp(v * jtw_of(params, b)))
        * cmath.exp(3j * math.pi * float(jp - kappa))
        / sines
    )
    return abs(lhs - rhs) <= tol


# ---------------------------------------------------------------------------
# Fusion coefficients


def w3_fusion_with_label(params: LevelParams, a: OrbitClass, b_label: RSLabel, c: OrbitClass) -> int:
    """Fusion against an explicit (r; s) label whose s-triple may sit on a
    shifted alcove boundary; boundary labels have vanishing S-rows and
    contribute nothing."""
    if any(x == -1 for x in b_label.s):
        return 0
    if any(x < -1 for x in b_label.s) or any(x < 0 for x in b_label.r):
        raise LabelError(f"{b_label} is outside the extended label range")
    b = orbit_table(params).index.get(b_label)
    if b is None:
        raise LabelError(f"{b_label} is not an interior label at ({params.u},{params.v})")
    return w3_fusion(params, a, b, c)


class FusionFactors:
    """The W3 fusion ring at (u, v) as the product of two sl3 rings on the
    `OrbitTable.fusion_rep` triples: `n_r` (level u-3) and `n_s` (level v-3)
    over the distinct r- and s-triples, each orbit's `r_index` and `s_index`,
    all read-only int64.  A cycle step moves the r- and s-trialities by u-3
    and v-3 (mod 3), so one side of each representative has triality 0,
    which fusion keeps: w3_fusion(a, b, c) = n_r[ra, rb, rc] * n_s[sa, sb, sc]."""

    def __init__(self, params: LevelParams):
        table = orbit_table(params)
        reps = [table.fusion_rep[orb] for orb in table.orbits]
        r_weights, r_index = _distinct(rep.r for rep in reps)
        s_weights, s_index = _distinct(rep.s for rep in reps)
        self.n_r, self.n_s = (
            _read_only([[[fusion_table(level, x, y).get(z, 0) for z in ws] for y in ws] for x in ws], np.int64)
            for level, ws in ((params.u - 3, r_weights), (params.v - 3, s_weights))
        )
        self.r_index, self.s_index = _read_only(r_index, np.int64), _read_only(s_index, np.int64)

    def fusion_matrix(self, a: int) -> np.ndarray:
        """N_a[b, c] = w3_fusion of the orbits at positions a, b and c."""
        r, s = self.r_index, self.s_index
        return self.n_r[r[a]][np.ix_(r, r)] * self.n_s[s[a]][np.ix_(s, s)]


@per_level
def fusion_factors(params: LevelParams) -> FusionFactors:
    """The fusion factors of the level (see `FusionFactors`)."""
    return FusionFactors(params)


def _position(params: LevelParams, orbit: OrbitClass) -> int:
    try:
        return orbit_table(params).position[orbit]
    except KeyError:
        raise LabelError(f"{orbit} is not an orbit at ({params.u},{params.v})") from None


def w3_fusion(params: LevelParams, a: OrbitClass, b: OrbitClass, c: OrbitClass) -> int:
    """Fusion multiplicity of three orbits, n_r[ra, rb, rc] * n_s[sa, sb, sc]
    read off `fusion_factors` at the orbits' positions."""
    f = fusion_factors(params)
    ia, ib, ic = _position(params, a), _position(params, b), _position(params, c)
    r, s = f.r_index, f.s_index
    return int(f.n_r[r[ia], r[ib], r[ic]] * f.n_s[s[ia], s[ib], s[ic]])


def w3_fusion_support(params: LevelParams, a: OrbitClass, b: OrbitClass) -> list[OrbitClass]:
    """The orbits c where w3_fusion(a, b, c) is nonzero, each once, in table
    order: the nonzero entries of the r-row times the s-row of the factors."""
    f = fusion_factors(params)
    ia, ib = _position(params, a), _position(params, b)
    r, s = f.r_index, f.s_index
    row = f.n_r[r[ia], r[ib]][r] * f.n_s[s[ia], s[ib]][s]
    orbits = orbit_table(params).orbits
    return [orbits[i] for i in np.flatnonzero(row).tolist()]


def w3_verlinde(params: LevelParams, a: OrbitClass, b: OrbitClass, c: OrbitClass) -> complex:
    """Numeric Verlinde sum over orbits; the independent check of w3_fusion."""
    smat = _cached_smatrix(params)
    s = smat.matrix
    terms = s[smat.index(a)] * s[smat.index(b)] * s[smat.index(c)].conj() * smat.vacuum_inverse
    return complex(terms.sum())


@per_level
def _cached_smatrix(params: LevelParams) -> W3SMatrix:
    """The S-matrix at the level, built once per level; its arrays are read-only."""
    return W3SMatrix(params)
