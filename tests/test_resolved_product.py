"""The resolution-path product on integer keys against term-by-term fusion,
over random coprime 3 <= u, v <= 8, charges k/97 and flows -2..2.

`fuse_general` fuses resolutions on integer keys (twice the flow, the
charge numerator over one per-call denominator, the orbit position) and
reads each pair of orbits' W3 rows once.  That product must equal the
sum of `fuse_standard` over the same resolution terms, and
`fuse_standard`, now read off those rows, must equal the per-orbit loop
over `w3_fusion_support` and `w3_fusion` it replaced, kept here as the
reference.
"""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.labels import FormalSum, StandardLabel, hw_label, resolution, standard_label
from bpfusion.levels import RSLabel, enumerate_infwts, enumerate_surv, level_params, orbit_index
from bpfusion.verlinde import _resolved_product, fuse_standard
from bpfusion.w3modular import w3_fusion, w3_fusion_support

PAIRS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]
levels = st.sampled_from(PAIRS).map(lambda uv: level_params(*uv))
charges = st.integers(0, 96).map(lambda k: Fraction(k, 97))
flows = st.integers(-4, 4).map(lambda twice: Fraction(twice, 2))


def _standard(data, p) -> StandardLabel:
    return standard_label(data.draw(charges), data.draw(st.sampled_from(enumerate_infwts(p))), data.draw(flows))


def _resolved(data, p) -> FormalSum:
    """The resolution of a random highest-weight label at integral flow -2..2."""
    lam = data.draw(st.sampled_from(enumerate_surv(p)))
    return resolution(p, hw_label(p, lam, data.draw(st.integers(-2, 2))), data.draw(st.integers(1, 3 * p.v)))


def _reference_fuse_standard(p, a: StandardLabel, b: StandardLabel) -> FormalSum:
    """Standard fusion one support orbit at a time: the plain W3 product at
    flows ell + 2 and ell - 1, the products with b's six omega-shifted
    s-labels at ell + 1 (shift down) and ell (shift up)."""
    kappa, ell, jj = p.kappa, a.ell + b.ell, a.j + b.j
    parts = []
    for orb in w3_fusion_support(p, a.orbit, b.orbit):
        n = w3_fusion(p, a.orbit, b.orbit, orb)
        for flow, charge in ((ell + 2, jj - 4 * kappa), (ell - 1, jj + 2 * kappa)):
            parts.append((FormalSum.lone(standard_label(charge, orb, flow)), n))
    rep = b.orbit.rep
    for i in range(3):
        for sign, flow, charge in ((-1, ell + 1, jj - 2 * kappa), (+1, ell, jj)):
            s = list(rep.s)
            s[i] += sign
            s[(i + 1) % 3] -= sign
            shifted = orbit_index(p).get(RSLabel(rep.r, tuple(s)))
            if shifted is None:
                continue
            for orb in w3_fusion_support(p, a.orbit, shifted):
                n = w3_fusion(p, a.orbit, shifted, orb)
                parts.append((FormalSum.lone(standard_label(charge, orb, flow)), n))
    return FormalSum.combine(parts)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_fuse_standard_matches_the_per_orbit_loop(data):
    p = data.draw(levels)
    a, b = _standard(data, p), _standard(data, p)
    assert fuse_standard(p, a, b) == _reference_fuse_standard(p, a, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_product_matches_standard_fusion_term_by_term(data):
    p = data.draw(levels)
    res_a = _resolved(data, p)
    # a resolution plus a standard term: charges over 6v and over 97 together
    extra = FormalSum.lone(_standard(data, p), data.draw(st.integers(-2, 2)))
    res_b = FormalSum.combine([(_resolved(data, p), 1), (extra, 1)])
    expected = FormalSum.combine(
        (fuse_standard(p, x, y), cx * cy) for x, cx in res_a.items() for y, cy in res_b.items()
    )
    assert _resolved_product(p, res_b, lambda flow: res_a) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_each_flow_zero_term_meets_the_resolution_for_its_lowest_flow(data):
    p = data.draw(levels)
    a = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(st.integers(-2, 2)))
    depth = data.draw(st.integers(p.v, 4 * p.v))

    def resolve_a(flow):
        return resolution(p, a, max(depth - flow, 1))

    res_b = _resolved(data, p)
    lowest = {}
    for y, _ in res_b.items():
        key = (y.j, y.orbit)
        lowest[key] = min(y.ell.twice // 2, lowest.get(key, y.ell.twice // 2))
    expected = FormalSum.combine(
        (fuse_standard(p, x, y), cx * cy)
        for y, cy in res_b.items()
        for x, cx in resolve_a(lowest[y.j, y.orbit]).items()
    )
    assert _resolved_product(p, res_b, resolve_a) == expected
