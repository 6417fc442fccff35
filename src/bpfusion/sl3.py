"""Finite rank-2 representation combinatorics and the affine fusion ring.

Weights are pairs of Dynkin labels.  Weight multiplicities come from the
Freudenthal recursion.  Tensor and affine fusion coefficients both come
from one integer count of invariants in a triple tensor product, the
closed form of Begin, Mathieu and Walton (Mod. Phys. Lett. A 7 (1992)):
at level k the count is capped by k.  The three memoised tables are
read-only mappings, shared by every caller.
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


def _coupling(level: int | None, x: Weight2, y: Weight2, z: Weight2) -> int:
    """Number of invariants in L(x) (x) L(y) (x) L(z), at an affine level or,
    for level None, in the finite tensor product: the Begin-Mathieu-Walton
    closed form, max(0, min(a, b, level) - low + 1)."""
    s1, s2 = x[0] + y[0] + z[0], x[1] + y[1] + z[1]
    if (2 * s1 + s2) % 3:
        return 0
    a, b = (2 * s1 + s2) // 3, (s1 + 2 * s2) // 3
    low = max(sum(x), sum(y), sum(z), a - min(x[0], y[0], z[0]), b - min(x[1], y[1], z[1]))
    high = min(a, b) if level is None else min(a, b, level)
    return max(0, high - low + 1)


def _constituents(level: int | None, x: Weight2, y: Weight2, top: int):
    """(mu, n) for each dominant mu of height at most `top` that couples
    n > 0 times to x and y: mu enters `_coupling` conjugated."""
    for p in range(top + 1):
        for q in range(top + 1 - p):
            n = _coupling(level, x, y, (q, p))
            if n:
                yield (p, q), n


@lru_cache(maxsize=None)
def tensor_decompose(t: Weight2, tp: Weight2) -> MappingProxyType:
    """Decomposition of the tensor product of two simple modules."""
    for x in (t, tp):
        if not dominant(x):
            raise ValueError(f"highest weight must be dominant, got {x}")
    return MappingProxyType(dict(_constituents(None, t, tp, sum(t) + sum(tp))))


def tensor_coeff(t: Weight2, tp: Weight2, tpp: Weight2) -> int:
    """Multiplicity of the third module inside the tensor product of the first two."""
    return tensor_decompose(t, tp).get(tpp, 0)


# ---------------------------------------------------------------------------
# Affine fusion at a nonnegative integer level


def integrable(level: int, t: Affine3) -> bool:
    return all(x >= 0 for x in t) and sum(t) == level


def sigma_affine(t: Affine3) -> Affine3:
    return (t[2], t[0], t[1])


@lru_cache(maxsize=None)
def fusion_table(level: int, t: Affine3, tp: Affine3) -> MappingProxyType:
    """Fusion product of two integrable weights as a map to multiplicities."""
    for x in (t, tp):
        if not integrable(level, x):
            raise ValueError(f"{x} is not integrable at level {level}")
    return MappingProxyType(
        {(level - p - q, p, q): n for (p, q), n in _constituents(level, t[1:], tp[1:], level)}
    )


def kac_walton(level: int, t: Affine3, tp: Affine3, tpp: Affine3) -> int:
    """Affine fusion coefficient of three integrable weights, read off
    `fusion_table`.  It equals the Kac-Walton alternating sum of tensor
    multiplicities over the affine Weyl group, which `_coupling` sums in
    closed form."""
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
