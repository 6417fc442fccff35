"""Finite rank-2 representation combinatorics and the affine fusion ring.

Weights are pairs of Dynkin labels.  Multiplicities come from the
Freudenthal recursion, tensor coefficients from exact character-ring
multiplication, and affine fusion coefficients from alcove folding of
the tensor decomposition.  The three memoised tables are read-only
mappings, shared by every caller.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

Weight2 = tuple[int, int]
Affine3 = tuple[int, int, int]

RHO: Weight2 = (1, 1)
ALPHA1: Weight2 = (2, -1)
ALPHA2: Weight2 = (-1, 2)
THETA: Weight2 = (1, 1)
POSITIVE_ROOTS = (ALPHA1, ALPHA2, THETA)
OMEGA = ((1, 0), (0, 1))


def ip(x, y) -> Fraction:
    """Invariant form in Dynkin-label coordinates (normalised so roots have length^2 = 2)."""
    return Fraction(2 * x[0] * y[0] + x[0] * y[1] + x[1] * y[0] + 2 * x[1] * y[1], 3)


def ip_c(x, y) -> complex:
    """Same form, for complex-valued points."""
    return (2 * x[0] * y[0] + x[0] * y[1] + x[1] * y[0] + 2 * x[1] * y[1]) / 3


def _mat_apply(m, w):
    return (m[0][0] * w[0] + m[0][1] * w[1], m[1][0] * w[0] + m[1][1] * w[1])


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _gen_weyl():
    s1 = ((-1, 0), (1, 1))
    s2 = ((1, 1), (0, -1))
    ident = ((1, 0), (0, 1))
    found = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (s1, s2):
                prod = _mat_mul(g, m)
                if prod not in found:
                    found[prod] = -found[m]
                    nxt.append(prod)
        frontier = nxt
    return tuple((m, d) for m, d in found.items())


WEYL = _gen_weyl()
assert len(WEYL) == 6


def weyl_orbit(w: Weight2):
    return {_mat_apply(m, w) for m, _ in WEYL}


def dominant(w: Weight2) -> bool:
    return w[0] >= 0 and w[1] >= 0


def to_dominant(w: Weight2) -> tuple[Weight2, int]:
    """Weyl image in the dominant chamber, with the sign of the folding."""
    det = 1
    a, b = w
    while a < 0 or b < 0:
        if a < 0:
            a, b = -a, a + b
        else:
            a, b = a + b, -b
        det = -det
    return (a, b), det


def rep_dimension(t: Weight2) -> int:
    return (t[0] + 1) * (t[1] + 1) * (t[0] + t[1] + 2) // 2


@lru_cache(maxsize=None)
def weight_multiplicities(t: Weight2) -> MappingProxyType:
    """All weights of the simple module with highest weight t, with multiplicity."""
    if not dominant(t):
        raise ValueError(f"highest weight must be dominant, got {t}")
    # dominant weights below t, ordered by height of the drop
    doms = []
    bound = t[0] + t[1]
    for a in range(bound + 1):
        for b in range(bound + 1):
            mu = (t[0] - 2 * a + b, t[1] + a - 2 * b)
            if dominant(mu):
                doms.append((a + b, mu))
    doms.sort()
    lam_rho = (t[0] + 1, t[1] + 1)
    norm_top = ip(lam_rho, lam_rho)
    mult: dict[Weight2, int] = {}
    dom_mult: dict[Weight2, int] = {}
    for height, mu in doms:
        if height == 0:
            dom_mult[mu] = 1
            continue
        mu_rho = (mu[0] + 1, mu[1] + 1)
        denom = norm_top - ip(mu_rho, mu_rho)
        total = Fraction(0)
        for alpha in POSITIVE_ROOTS:
            k = 1
            while True:
                nu = (mu[0] + k * alpha[0], mu[1] + k * alpha[1])
                nu_dom, _ = to_dominant(nu)
                m = dom_mult.get(nu_dom, 0)
                # past the top of the module: nothing further along this string
                if ip((nu[0] - t[0], nu[1] - t[1]), RHO) > 0:
                    break
                total += m * ip(nu, alpha)
                k += 1
        val = 2 * total / denom
        assert val.denominator == 1 and val >= 0
        if val:
            dom_mult[mu] = int(val)
    for mu, m in dom_mult.items():
        for img in weyl_orbit(mu):
            mult[img] = m
    assert sum(mult.values()) == rep_dimension(t)
    return MappingProxyType(mult)


def weyl_character(t: Weight2, xi) -> complex:
    """Character of the module with highest weight t at the complex point xi.

    xi is a pair of complex coordinates against the fundamental weights;
    the value is the multiplicity-weighted sum of exp<mu, xi>.
    """
    return sum(m * cmath.exp(ip_c(mu, xi)) for mu, m in weight_multiplicities(t).items())


def weyl_character_quotient(t: Weight2, xi) -> complex:
    """Weyl-quotient form of the character; singular where the denominator vanishes."""
    num = sum(d * cmath.exp(ip_c(_mat_apply(m, (t[0] + 1, t[1] + 1)), xi)) for m, d in WEYL)
    den = sum(d * cmath.exp(ip_c(_mat_apply(m, RHO), xi)) for m, d in WEYL)
    return num / den


@lru_cache(maxsize=None)
def tensor_decompose(t: Weight2, tp: Weight2) -> MappingProxyType:
    """Decomposition of the tensor product of two simple modules."""
    conv: dict[Weight2, int] = {}
    wa = weight_multiplicities(t)
    wb = weight_multiplicities(tp)
    for mu, ma in wa.items():
        for nu, mb in wb.items():
            key = (mu[0] + nu[0], mu[1] + nu[1])
            conv[key] = conv.get(key, 0) + ma * mb
    out: dict[Weight2, int] = {}
    while conv:
        height = max(ip(mu, RHO) for mu, c in conv.items() if c)
        tops = [mu for mu, c in conv.items() if c and ip(mu, RHO) == height]
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
    return MappingProxyType(out)


def tensor_coeff(t: Weight2, tp: Weight2, tpp: Weight2) -> int:
    """Multiplicity of the third module inside the tensor product of the first two."""
    return tensor_decompose(t, tp).get(tpp, 0)


# ---------------------------------------------------------------------------
# Affine fusion at a nonnegative integer level


def integrable(level: int, t: Affine3) -> bool:
    return all(x >= 0 for x in t) and sum(t) == level


def finite_part(t: Affine3) -> Weight2:
    return (t[1], t[2])


def affinise(level: int, w: Weight2) -> Affine3:
    return (level - w[0] - w[1], w[0], w[1])


def sigma_affine(t: Affine3) -> Affine3:
    return (t[2], t[0], t[1])


def _fold_alcove(level: int, w: Weight2) -> tuple[Weight2 | None, int]:
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


@lru_cache(maxsize=None)
def fusion_table(level: int, t: Affine3, tp: Affine3) -> MappingProxyType:
    """Fusion product of two integrable weights as a map to multiplicities."""
    for x in (t, tp):
        if not integrable(level, x):
            raise ValueError(f"{x} is not integrable at level {level}")
    out: dict[Affine3, int] = {}
    for mu, c in tensor_decompose(finite_part(t), finite_part(tp)).items():
        folded, det = _fold_alcove(level, mu)
        if folded is None:
            continue
        key = affinise(level, folded)
        val = out.get(key, 0) + det * c
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    assert all(c > 0 for c in out.values())
    return MappingProxyType(out)


def kac_walton(level: int, t: Affine3, tp: Affine3, tpp: Affine3) -> int:
    """Affine fusion coefficient as an alternating sum of tensor multiplicities."""
    if not integrable(level, tpp):
        raise ValueError(f"{tpp} is not integrable at level {level}")
    return fusion_table(level, t, tp).get(tpp, 0)


def sl3_sigma_symmetry_check(level: int, t: Affine3, tp: Affine3, tpp: Affine3) -> bool:
    """Fusion coefficients are invariant under cycling one input against the output."""
    n = kac_walton(level, t, tp, tpp)
    return (
        kac_walton(level, sigma_affine(t), tp, sigma_affine(tpp)) == n
        and kac_walton(level, t, sigma_affine(tp), sigma_affine(tpp)) == n
    )


def triality(w: Weight2) -> int:
    return (w[0] + 2 * w[1]) % 3
