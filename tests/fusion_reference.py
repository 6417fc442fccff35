"""Reference fusion algorithms, kept for the tests only.

`bpfusion.sl3` counts tensor and affine fusion coefficients with one
closed form, and `bpfusion.w3modular` reads W3 fusion off two int64
factor tensors.  The algorithms they replaced live on here as the
independent references those fast paths are checked against:

* `peel_tensor`: the tensor decomposition by peeling highest weights
  off the product of two characters (Freudenthal multiplicities);
* `fold_alcove` and `fold_fusion_table`: the Kac-Walton formula, each
  tensor constituent folded into the fundamental alcove with a sign;
* `w3_fusion` and `w3_fusion_support`: W3 fusion as a product of two
  affine fusion tables read at the orbits' fusion representatives.

`weyl_sum` is the S-matrix's sl3 Weyl sum with its exponent formed as a
`Fraction`, the reference for the library's integer exponents, and
`smatrix_json` the `smatrix-w3` payload as the plain dicts and lists that
`json.dumps` writes, the reference for the CLI's matrix writer.

`fusion_oracle_suite` is the fusion-oracle suite as it was before it read
the closed form as integer gathers: one `fuse_standard` per (a, b) pair,
its terms placed label by label into a (b, class, orbit) array.

Some names live here because the library itself never calls them, while
two test files do: `standard_to_twisted` and `twisted_to_standard`, the
conversions between the integral and the half-integer flow gradings;
`complete_symmetric_sum` and `symmetric_sum_closed_form_check`, the
collapse of a truncated generating function; `verlinde_oracle_row`, the
oracle's coefficients of one class over every orbit; and `restrict`, the
terms of a formal sum that satisfy a predicate.

`resolution` is the resolution of a highest-weight module by its three
loops, cut at a depth, and `fuse_general` the depth-truncated fusion that
preceded the exact division by (1 - εq^P): both resolutions cut about 12v
flows deep, the product settled at two tops, a 3v-wide zone checked for
telescoping and two windows compared.  It raises
`DepthNotStabilisedError` when a cut has not telescoped.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from bpfusion import verlinde, w3modular
from bpfusion.labels import (
    FormalSum,
    HalfInt,
    HWLabel,
    StandardLabel,
    _exact_charge,
    _mod1,
    hw_label,
    nonsimple_standard,
    rewrite_gaps,
    standard_label,
)
from bpfusion.levels import (
    LabelError,
    RSLabel,
    _surv,
    check_surv,
    enumerate_infwts,
    orbit_table,
    per_level,
    sigma,
    sigma_inv,
)
from bpfusion.verify import ORACLE_WINDOW
from bpfusion.verlinde import STANDARD_CLASSES, NotStabilisedError, _standard_rows
from bpfusion.sl3 import WEYL, _mat_apply, dominant, integrable, ip, weight_multiplicities


def weyl_sum(scale: Fraction, a, b) -> complex:
    """sum over the Weyl group of det(w) e^{-2 pi i scale <w(a), b>}."""
    total = 0j
    for m, det in WEYL:
        total += det * w3modular.cexp(-scale * ip(_mat_apply(m, a), b))
    return total


def smatrix_json(smat: w3modular.W3SMatrix) -> dict:
    """The orbits and the matrix's rows of {"re", "im"} dicts of floats."""
    return {
        "orbits": [str(orb) for orb in smat.orbits],
        "entries": [
            [{"re": x, "im": y} for x, y in zip(re_row, im_row)]
            for re_row, im_row in zip(smat.matrix.real.tolist(), smat.matrix.imag.tolist())
        ],
    }


def peel_tensor(t, tp) -> dict:
    """Decomposition of the tensor product of two simple modules."""
    conv: dict = {}
    for mu, ma in weight_multiplicities(t).items():
        for nu, mb in weight_multiplicities(tp).items():
            key = (mu[0] + nu[0], mu[1] + nu[1])
            conv[key] = conv.get(key, 0) + ma * mb
    out = {}
    while conv:
        height = max(mu[0] + mu[1] for mu in conv)  # <mu, rho>
        tops = [mu for mu in conv if mu[0] + mu[1] == height]
        for mu in tops:
            c = conv[mu]
            assert dominant(mu) and c > 0, (t, tp, mu, c)
            out[mu] = c
            for nu, m in weight_multiplicities(mu).items():
                key = conv[nu] - c * m
                if key:
                    conv[nu] = key
                else:
                    del conv[nu]
    return out


def fold_alcove(level: int, w) -> tuple:
    """Fold the shifted weight into the fundamental alcove; None on a wall."""
    big = level + 3
    a, b = w[0] + 1, w[1] + 1
    det = 1
    for _ in range(100 * (abs(a) + abs(b) + big + 1)):
        c = big - a - b
        if a == 0 or b == 0 or c == 0:
            return None, 0
        if a < 0:
            a, b = -a, a + b
        elif b < 0:
            a, b = a + b, -b
        elif c < 0:
            a, b = big - b, big - a
        else:
            return (a - 1, b - 1), det
        det = -det
    raise RuntimeError("alcove folding did not terminate")


def fold_fusion_table(level: int, t, tp) -> dict:
    """Fusion product of two integrable weights by the Kac-Walton formula."""
    for x in (t, tp):
        if not integrable(level, x):
            raise ValueError(f"{x} is not integrable at level {level}")
    out: dict = {}
    for mu, c in peel_tensor(t[1:], tp[1:]).items():
        folded, det = fold_alcove(level, mu)
        if folded is None:
            continue
        key = (level - folded[0] - folded[1], *folded)
        val = out.get(key, 0) + det * c
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    assert all(c > 0 for c in out.values())
    return out


# The two W3 functions below read the affine tables as `w3modular.fusion_table`
# at call time, the name the library's factor tensors are filled through, so a
# test that patches that name reaches the reference and the library alike.


def _fusion_reps(params, *orbits) -> list:
    reps = orbit_table(params).fusion_rep
    try:
        return [reps[orb] for orb in orbits]
    except KeyError as exc:
        raise LabelError(f"{exc.args[0]} is not an orbit at ({params.u},{params.v})") from None


def w3_fusion(params, a, b, c) -> int:
    """Fusion multiplicity of three orbits: the level-(u-3) coefficient of the
    representatives' r-triples times the level-(v-3) one of their s-triples."""
    ra, rb, rc = _fusion_reps(params, a, b, c)
    n_r = w3modular.fusion_table(params.u - 3, ra.r, rb.r).get(rc.r, 0)
    if n_r == 0:
        return 0
    return n_r * w3modular.fusion_table(params.v - 3, ra.s, rb.s).get(rc.s, 0)


def w3_fusion_support(params, a, b) -> list:
    """The orbits c where w3_fusion(a, b, c) can be nonzero: each pair of
    entries of the two tables is the representative of its own orbit."""
    ra, rb = _fusion_reps(params, a, b)
    index = orbit_table(params).index
    s_side = w3modular.fusion_table(params.v - 3, ra.s, rb.s)
    return [index[RSLabel(r, s)] for r in w3modular.fusion_table(params.u - 3, ra.r, rb.r) for s in s_side]


def fusion_oracle_suite(params, tol=None):
    """The Verlinde oracle against the closed-form standard product on every
    simple candidate (a, b, ell, shift, c), with the verdict and detail of
    `verify.suite_fusion_oracle`.  For each a, every b's values form one
    (b, class, orbit) array, compared with `fuse_standard` of each pair
    placed label by label.  The library names (`verlinde.fuse_standard`,
    `verlinde.oracle_values`) are read at call time, so a test that patches
    them reaches this suite too."""
    orbits = enumerate_infwts(params)
    n, kappa = len(orbits), params.kappa
    js = [Fraction(1, 7), Fraction(2, 7)]
    classes = [
        (HalfInt.of(ell), _mod1(js[0] + js[1] + shift))
        for ell in range(-ORACLE_WINDOW, ORACLE_WINDOW + 2)
        for shift in (0, -4 * kappa, 2 * kappa, -2 * kappa)
    ]
    # the flat (class, orbit) positions of the simple candidates, in order
    checked = np.flatnonzero([verlinde.simple_candidates(params, charge) for _, charge in classes])
    rows_of: dict = {}
    for k, (ell, charge) in enumerate(classes):
        rows_of.setdefault((ell.twice, charge.numerator, charge.denominator), []).append(k)
    position = orbit_table(params).position
    inputs_a, inputs_b = ([standard_label(j, orb, 0) for orb in orbits] for j in js)
    oracle = verlinde.VerlindeOracle(params, inputs_a[0], inputs_b[0])
    terms = [oracle.term(ell.twice, charge) for ell, charge in classes]
    smat = w3modular._cached_smatrix(params)

    def candidate_at(i):
        ell, charge = classes[i // n]
        return standard_label(charge, orbits[i % n], ell)

    for row_a, a in zip(smat.matrix, inputs_a):
        base = smat.vacuum_inverse * row_a * smat.matrix
        products = verlinde.oracle_values(smat, base, terms)
        values = np.stack([products.get(t, np.zeros(base.shape, complex)) for t in terms], axis=1).reshape(n, -1)
        want = np.zeros(values.shape, dtype=np.int64)
        for want_b, b in zip(want, inputs_b):
            for label, coeff in verlinde.fuse_standard(params, a, b).items():
                for k in rows_of.get((label.ell.twice, label.j.numerator, label.j.denominator), ()):
                    want_b[k * n + position[label.orbit]] += coeff
        bad = ~(np.abs(values[:, checked] - want[:, checked]) <= w3modular.INTEGER_TOL)  # a NaN fails too
        if bad.any():
            ib, x = divmod(int(np.argmax(bad)), checked.size)
            i, b = int(checked[x]), inputs_b[ib]
            got = verlinde.oracle_integers(params, a, b, values[ib, i : i + 1], lambda _: candidate_at(i))
            return False, f"oracle mismatch at {candidate_at(i)}: {got[0]} vs {want[ib, i]}"
    return True, f"{n * n * checked.size} coefficients"


# ---------------------------------------------------------------------------
# Names the library never calls


def standard_to_twisted(params, label: StandardLabel) -> tuple:
    """Present a standard label as a flowed module in the half-integer-flow grading."""
    return label.ell + HalfInt.of(Fraction(1, 2)), _mod1(label.j - params.kappa), label.orbit


def twisted_to_standard(params, ell, j, orbit) -> StandardLabel:
    ell = HalfInt.of(ell)
    return standard_label(_exact_charge(j) + params.kappa, orbit, ell - HalfInt.of(Fraction(1, 2)))


def complete_symmetric_sum(x: complex, xs, m: int) -> complex:
    """h_m(x1, x2, x3) scaled by x^m, summed directly."""
    total = 0j
    for p in range(m + 1):
        for q in range(m + 1 - p):
            total += xs[0] ** p * xs[1] ** q * xs[2] ** (m - p - q)
    return x**m * total


def symmetric_sum_closed_form_check(x, xs, v: int, tol: float = w3modular.DEFAULT_TOL) -> bool:
    """The truncated generating function of complete symmetric polynomials
    collapses when the three arguments share their v-th power."""
    if len({round(z.real, 9) + 1j * round(z.imag, 9) for z in xs}) != 3:
        raise w3modular.SingularInputError("arguments must be distinct")
    for z in xs:
        if abs(1 - x * z) < 1e3 * tol:
            raise w3modular.SingularInputError("x is too close to an inverse argument")
    powers = [z**v for z in xs]
    if max(abs(p - powers[0]) for p in powers) > tol:
        raise w3modular.SingularInputError("arguments must share their v-th power")
    lhs = sum(complete_symmetric_sum(x, xs, m) for m in range(v - 2))
    rhs = (1 - x**v * powers[1]) / ((1 - x * xs[0]) * (1 - x * xs[1]) * (1 - x * xs[2]))
    return abs(lhs - rhs) <= tol


def verlinde_oracle_row(params, a, b, ell, charge) -> np.ndarray:
    """Coefficients of standard_label(charge, c, ell) in a x b for every orbit
    c of `enumerate_infwts`, as one integer vector, from the library's
    `VerlindeOracle`.  Nonsimple candidates, where the oracle is undefined,
    read 0."""
    charge, ell = _mod1(charge), HalfInt.of(ell)
    simple = verlinde.simple_candidates(params, charge)
    values = verlinde.VerlindeOracle(params, a, b).values(ell, charge)
    orbits = orbit_table(params).orbits
    out = verlinde.oracle_integers(params, a, b, values, lambda i: standard_label(charge, orbits[i], ell), simple)
    out[~simple] = 0
    return out


def restrict(fs: FormalSum, pred) -> FormalSum:
    """The terms of fs whose label satisfies pred."""
    return FormalSum((label, coeff) for label, coeff in fs.items() if pred(label))


# ---------------------------------------------------------------------------
# Resolutions by their loops, and depth-truncated fusion


def resolution(params, lam, depth: int) -> FormalSum:
    """Alternating sum of nonsimple standard labels resolving a flowed
    highest-weight module, truncated at flow index <= base flow + depth.

    Accepts a bare weight label (flow 0) or a normalised HWLabel.
    """
    if depth < 1:
        raise LabelError("depth must be >= 1")
    if isinstance(lam, HWLabel):
        base = lam
    else:
        base = hw_label(params, lam, 0)
    if not base.ell.is_integer:
        raise LabelError("resolutions are taken in the integral-flow sector")
    shift = base.ell.twice // 2
    lam = base.lam
    v = params.v
    r3 = lam.r
    s0, s1, s2 = lam.s
    cut = shift + depth

    terms: list[tuple[RSLabel, int, int]] = []  # (interior label, flow, sign)

    for m in range(s2):
        terms.append((RSLabel(r3, (s0, s1 + m + 1, s2 - m - 1)), m + shift, (-1) ** m))

    cycles = (sigma_inv(RSLabel(r3, (0, 0, 0))).r, r3, sigma(RSLabel(r3, (0, 0, 0))).r)

    if s0 > 0:
        n = 0
        while True:
            base_flow = 3 * n * v + s2 + 1 + shift
            if base_flow > cut:
                break
            for m in range(s0):
                sgn = (-1) ** ((s2 + m + n * v) % 2)
                svals = (v - 2 - s0, m, s0 - m - 1)
                for i, rpart in enumerate(cycles):
                    flow = m + (3 * n + i) * v + s2 + 1 + shift
                    if flow > cut:
                        continue
                    isgn = sgn * ((-1) ** (v % 2) if i == 1 else 1)
                    terms.append((RSLabel(rpart, svals), flow, isgn))
            n += 1

    n = 1
    while True:
        base_flow = (3 * n - 2) * v - s1 - 1 + shift
        if base_flow > cut:
            break
        for m in range(v - 2 - s0):
            sgn = -((-1) ** ((s1 + m + n * v) % 2))
            svals = (s0, m, v - 3 - s0 - m)
            for i, rpart in enumerate((cycles[2], cycles[0], cycles[1])):
                flow = m + (3 * n - 2 + i) * v - s1 - 1 + shift
                if flow > cut:
                    continue
                isgn = sgn * ((-1) ** (v % 2) if i == 1 else 1)
                terms.append((RSLabel(rpart, svals), flow, isgn))
        n += 1

    return FormalSum(
        (nonsimple_standard(params, inner, flow), sgn) for inner, flow, sgn in terms
    )


class DepthNotStabilisedError(NotStabilisedError):
    """A depth-truncated fusion failed to settle; raise the depth.

    Carries the level pair `uv`, the inputs `a` and `b`, the `depth`, the
    flow `top` the failed pass reached, and `terms`, the nonzero terms of
    the window that did not settle.
    """

    def __init__(self, message: str, params, a, b, depth: int, top: int, terms: FormalSum):
        self.uv = (params.u, params.v)
        self.a, self.b, self.depth, self.top, self.terms = a, b, depth, top, terms
        shown = FormalSum(list(terms)[: verlinde.UNSETTLED_SHOWN])
        more = f" + ... ({len(terms)} terms in all)" if len(terms) > len(shown) else ""
        RuntimeError.__init__(
            self,
            f"{message} (u,v)=({params.u},{params.v}), depth {depth}, top {top}; "
            f"unsettled terms {shown}{more}",
        )


@per_level
def _resolution_ints(params, lam: int, depth: int) -> tuple:
    """resolution(params, I[lam]^0, depth), lam a position in `enumerate_surv`,
    as (twice flow, charge numerator over 6v, orbit position, coefficient)."""
    position = orbit_table(params).position
    res = resolution(params, HWLabel(HalfInt(0), _surv(params)[lam]), depth)
    return tuple(
        (x.ell.twice, x.j.numerator * 6 * params.v // x.j.denominator, position[x.orbit], c) for x, c in res.items()
    )


@per_level
def _rows(params, ia: int, ib: int) -> tuple:
    """`verlinde._standard_rows`, which reads `w3_fusion`, kept on the level."""
    return _standard_rows(params, ia, ib)


def _resolved_product(params, a: HWLabel, res_b: FormalSum, depth_at) -> FormalSum:
    """The sum of cx * cy * fuse_standard(x, y) over the terms y, cy of res_b
    and x, cx of resolution(params, a, depth_at(f)), f the lowest flow at
    which y's charge and orbit occur in res_b, on integer keys."""
    u, v = params.u, params.v
    den = math.lcm(6 * v, *(y.j.denominator for y, _ in res_b.items()))
    scale = den // (6 * v)
    classes = [(2 * step, mult * (params.kappa * den).numerator) for step, mult in STANDARD_CLASSES]
    lam, a_twice = bisect_left(_surv(params), check_surv(params, a.lam)), a.ell.twice
    position = orbit_table(params).position
    placed: dict = {}  # (charge, orbit) of a term of res_b -> [(twice its flow, coeff)]
    for y, cy in res_b.items():
        placed.setdefault((y.j, y.orbit), []).append((y.ell.twice, cy))
    total: dict[tuple[int, int, int], int] = {}
    for (j, orb_b), copies in placed.items():
        num_b, ib = j.numerator * (den // j.denominator), position[orb_b]
        part: dict[tuple[int, int, int], int] = {}
        for tx, nx, ia, cx in _resolution_ints(params, lam, depth_at(min(t for t, _ in copies) // 2)):
            tx, num = tx + a_twice, nx * scale + num_b
            for (dt, dn), row in zip(classes, _rows(params, ia, ib)):
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


def _zone(fs: FormalSum, top: int, width: int) -> FormalSum:
    """The terms of fs at flows in (top - width, top]; empty once fs has telescoped."""
    return restrict(fs, lambda lab: 2 * (top - width) < lab.ell.twice <= 2 * top)


def fuse_general(params, a: HWLabel, b, depth: int | None = None) -> FormalSum:
    """Fusion of a highest-weight label `a` with a highest-weight or standard
    label `b` from depth-truncated resolutions: the product settled cut at a
    shallow and at a deep top must telescope within the given depth and
    agree between the two cuts."""
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
    half = HalfInt.of(Fraction(1, 2))
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
    if isinstance(b, StandardLabel):
        res_b = FormalSum.lone(b)
    else:
        res_b = resolution(params, b, top2 - flow_a - flow_b + margin)
    product = _resolved_product(params, a, res_b, lambda flow: max(top2 - flow - flow_a + margin, 1))

    def settle(top: int) -> FormalSum:
        raw = restrict(product, lambda lab: lab.ell.twice <= 2 * top)
        if not _zone(raw, top, period):
            return raw
        safe_top = top - margin
        rewritten = restrict(rewrite_gaps(params, raw), lambda lab: lab.ell.twice <= 2 * safe_top)
        unsettled = _zone(rewritten, safe_top, period)
        if unsettled:
            raise DepthNotStabilisedError(
                f"fusion of {a} and {b} did not telescope by flow {top}; raise the depth:",
                params, a, b, depth, top, unsettled,
            )
        return rewritten

    out1 = settle(top1)
    out2 = settle(top2)
    window = top1 - period - margin
    r1 = restrict(out1, lambda lab: lab.ell.twice <= 2 * window)
    r2 = restrict(out2, lambda lab: lab.ell.twice <= 2 * window)
    if r1 != r2 or out2 != r2:
        raise DepthNotStabilisedError(
            f"fusion of {a} and {b} is not stable at depth {depth}:", params, a, b, depth, top2, out2 - r1
        )
    return r1
