"""The resolution-path product on integer keys against term-by-term fusion,
over random coprime 3 <= u, v <= 8, charges k/97 and flows -2..2.

`fuse_general` fuses resolutions on integer keys (twice the flow, the
charge numerator over one per-call denominator, the orbit position) and
reads each pair of orbits' W3 rows once.  That product must equal the
sum of `fuse_standard` over the same resolution terms, and
`fuse_standard`, now read off those rows, must equal the per-orbit loop
over `w3_fusion_support` and `w3_fusion` it replaced, kept here as the
reference.

The resolutions and rows it reads live in two process-wide tables keyed
on ints, `_resolution_ints` and `_rows_at`; their entries must be the
resolutions they stand for, and threads filling them from empty must
agree.
"""
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion import verlinde
from bpfusion.labels import FormalSum, HalfInt, HWLabel, StandardLabel, hw_label, resolution, standard_label
from bpfusion.levels import RSLabel, enumerate_infwts, enumerate_surv, level_params, orbit_index, orbit_table
from bpfusion.verlinde import _resolution_ints, _resolved_product, fuse, fuse_standard
from bpfusion.w3modular import w3_fusion, w3_fusion_support

PAIRS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]
levels = st.sampled_from(PAIRS).map(lambda uv: level_params(*uv))
charges = st.integers(0, 96).map(lambda k: Fraction(k, 97))
flows = st.integers(-4, 4).map(lambda twice: Fraction(twice, 2))


def _standard(data, p) -> StandardLabel:
    return standard_label(data.draw(charges), data.draw(st.sampled_from(enumerate_infwts(p))), data.draw(flows))


def _highest_weight(data, p) -> tuple[HWLabel, int]:
    """A random highest-weight label at integral flow -2..2, and a depth."""
    lam = data.draw(st.sampled_from(enumerate_surv(p)))
    return hw_label(p, lam, data.draw(st.integers(-2, 2))), data.draw(st.integers(1, 3 * p.v))


def _resolved(data, p) -> FormalSum:
    """The resolution of a random highest-weight label at integral flow -2..2."""
    return resolution(p, *_highest_weight(data, p))


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
    a, depth = _highest_weight(data, p)
    res_a = resolution(p, a, depth)
    # a resolution plus a standard term: charges over 6v and over 97 together
    extra = FormalSum.lone(_standard(data, p), data.draw(st.integers(-2, 2)))
    res_b = FormalSum.combine([(_resolved(data, p), 1), (extra, 1)])
    expected = FormalSum.combine(
        (fuse_standard(p, x, y), cx * cy) for x, cx in res_a.items() for y, cy in res_b.items()
    )
    assert _resolved_product(p, a, res_b, lambda flow: depth) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_each_flow_zero_term_meets_the_resolution_for_its_lowest_flow(data):
    p = data.draw(levels)
    a = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(st.integers(-2, 2)))
    depth = data.draw(st.integers(p.v, 4 * p.v))

    def depth_at(flow):
        return max(depth - flow, 1)

    res_b = _resolved(data, p)
    lowest = {}
    for y, _ in res_b.items():
        key = (y.j, y.orbit)
        lowest[key] = min(y.ell.twice // 2, lowest.get(key, y.ell.twice // 2))
    expected = FormalSum.combine(
        (fuse_standard(p, x, y), cx * cy)
        for y, cy in res_b.items()
        for x, cx in resolution(p, a, depth_at(lowest[y.j, y.orbit])).items()
    )
    assert _resolved_product(p, a, res_b, depth_at) == expected


# ---------------------------------------------------------------------------
# The process-wide resolution and row tables


@pytest.mark.parametrize("u,v", PAIRS)
def test_resolution_ints_match_resolution_term_by_term(u, v):
    p = level_params(u, v)
    orbits, surv = orbit_table(p).orbits, enumerate_surv(p)
    rng = random.Random(100 * u + v)
    for lam in rng.sample(range(len(surv)), min(8, len(surv))):
        for depth in (1, rng.randint(2, 3 * v), rng.randint(3 * v, 12 * v)):
            ints = _resolution_ints(u, v, lam, depth)
            flow = rng.randint(-3, 3)
            res = resolution(p, HWLabel(HalfInt(2 * flow), surv[lam]), depth)
            assert len(ints) == len(res)
            for (twice, num, pos, c), (x, cx) in zip(ints, res.items()):
                assert x == StandardLabel(HalfInt(twice + 2 * flow), Fraction(num, 6 * v), orbits[pos])
                assert c == cx


def _recorded(monkeypatch, name, calls):
    """Record the arguments and value of every call of verlinde's `name`."""
    table = getattr(verlinde, name)

    def recorded(*args):
        out = table(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(verlinde, name, recorded)


def test_tables_are_keyed_on_ints_and_hold_tuples(monkeypatch):
    p = level_params(5, 4)
    rows, resolutions = [], []
    _recorded(monkeypatch, "_rows_at", rows)
    _recorded(monkeypatch, "_resolution_ints", resolutions)
    a = hw_label(p, RSLabel((1, 0, 1), (1, -1, 1)), 1)
    fuse(p, hw_label(p, RSLabel((2, 0, 0), (1, -1, 1)), 3), a)
    fuse(p, a, standard_label(Fraction(5, 97), enumerate_infwts(p)[3], 1))
    assert rows and resolutions
    for args, out in rows + resolutions:
        assert all(type(x) is int for x in args), args
        assert type(out) is tuple and all(type(term) is tuple for term in out)
    for _, out in rows:
        assert len(out) == 4
        assert all(type(x) is int for row in out for pair in row for x in pair)
    for _, out in resolutions:
        assert all(len(term) == 4 and all(type(x) is int for x in term) for term in out)


def test_threads_filling_the_tables_from_empty_agree():
    p = level_params(7, 5)
    surv, orbits = enumerate_surv(p), enumerate_infwts(p)
    rng = random.Random(75)
    pairs = [
        (
            hw_label(p, rng.choice(surv), rng.randint(-1, 1)),
            standard_label(Fraction(rng.randint(1, 96), 97), rng.choice(orbits), rng.randint(-2, 2)),
        )
        for _ in range(12)
    ] + [(hw_label(p, rng.choice(surv), 0), hw_label(p, rng.choice(surv), 1)) for _ in range(2)]
    expected = [fuse(p, a, b) for a, b in pairs]
    verlinde._resolution_ints.cache_clear()
    verlinde._rows_at.cache_clear()
    barrier = threading.Barrier(4, timeout=60)

    def work():
        barrier.wait()
        return [fuse(p, a, b) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(products == expected for products in results)
    assert verlinde._rows_at.cache_info().currsize and verlinde._resolution_ints.cache_info().currsize
