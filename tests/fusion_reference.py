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
`Fraction`, the reference for the library's integer exponents.

`fusion_oracle_suite` is the fusion-oracle suite as it was before it read
the closed form as integer gathers: one `fuse_standard` per (a, b) pair,
its terms placed label by label into a (b, class, orbit) array.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from bpfusion import verlinde, w3modular
from bpfusion.labels import HalfInt, _mod1, standard_label
from bpfusion.levels import LabelError, RSLabel, enumerate_infwts, orbit_index, orbit_table
from bpfusion.sl3 import WEYL, _mat_apply, dominant, integrable, ip, weight_multiplicities


def weyl_sum(scale: Fraction, a, b) -> complex:
    """sum over the Weyl group of det(w) e^{-2 pi i scale <w(a), b>}."""
    total = 0j
    for m, det in WEYL:
        total += det * w3modular.cexp(-scale * ip(_mat_apply(m, a), b))
    return total


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
    index = orbit_index(params)
    s_side = w3modular.fusion_table(params.v - 3, ra.s, rb.s)
    return [index[RSLabel(r, s)] for r in w3modular.fusion_table(params.u - 3, ra.r, rb.r) for s in s_side]


def fusion_oracle_suite(params, tol=None, window=2):
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
        for ell in range(-window, window + 2)
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
