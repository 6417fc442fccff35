"""The resolution path on integer keys against term-by-term fusion and
against the depth-truncated reference, over random coprime 3 <= u, v <= 8,
charges k/97 and flows -2..2.

A resolution is a finite head plus one block that repeats every P = 3v
flows with sign ε = (-1)^v; `labels._series` keeps the two per label, and
`labels.resolution` is the flow cut of that series.  `fuse_general`
multiplies the numerators (the resolutions times (1 - εq^P)) on integer
keys (`_product`), reading each pair of orbits' W3 rows once (`_rows_at`),
and divides exactly by (1 - εq^P) (`_divide`).  The product must equal
the sum of `fuse_standard` over the same terms; `fuse_standard`, read off
`_standard_rows`, must equal the per-orbit loop it replaced; and the
answer must equal the two-top, depth-truncated `fuse_general` of
`fusion_reference`, whose resolutions come from the three loops.

The series and the rows are tables on the level (`levels.per_level`),
keyed on ints; their entries must be what they stand for, and threads
filling them on a fresh level must agree.
"""
import dataclasses
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import fusion_reference as reference
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion import labels, verlinde
from bpfusion.labels import FormalSum, HalfInt, HWLabel, StandardLabel, hw_label, resolution, standard_label
from bpfusion.levels import (
    LabelError,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    level_params,
    orbit_table,
)
from bpfusion.verlinde import (
    NotStabilisedError,
    _numerator,
    _product,
    _rows_at,
    _standard_rows,
    fuse,
    fuse_general,
    fuse_standard,
)
from bpfusion.w3modular import w3_fusion, w3_fusion_support

PAIRS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]
SMALL_PAIRS = [(u, v) for u, v in PAIRS if u <= 7 and v <= 5]  # up to (7,5)
levels = st.sampled_from(PAIRS).map(lambda uv: level_params(*uv))
small_levels = st.sampled_from(SMALL_PAIRS).map(lambda uv: level_params(*uv))
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
            shifted = orbit_table(p).index.get(RSLabel(rep.r, tuple(s)))
            if shifted is None:
                continue
            for orb in w3_fusion_support(p, a.orbit, shifted):
                n = w3_fusion(p, a.orbit, shifted, orb)
                parts.append((FormalSum.lone(standard_label(charge, orb, flow)), n))
    return FormalSum.combine(parts)


def _ints(p, fs: FormalSum, den: int) -> list:
    """The terms of a sum of standard labels as (twice flow, charge numerator
    over den, orbit position, coefficient)."""
    position = orbit_table(p).position
    return [(x.ell.twice, x.j.numerator * (den // x.j.denominator), position[x.orbit], c) for x, c in fs.items()]


def _labels(p, terms: dict, den: int) -> FormalSum:
    """A `_product` dict back as standard labels, by the key layout of its docstring."""
    orbits = orbit_table(p).orbits
    width = den * len(orbits) + len(enumerate_surv(p))
    out = []
    for key, c in terms.items():
        t, chain = divmod(key, width)
        n, pos = divmod(chain, len(orbits))
        out.append((FormalSum.lone(StandardLabel(HalfInt(t), Fraction(n, den), orbits[pos])), c))
    return FormalSum.combine(out)


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
    den = math.lcm(6 * p.v, 97)
    width = den * len(enumerate_infwts(p)) + len(enumerate_surv(p))
    product = _product(p, _ints(p, res_a, den), _ints(p, res_b, den), den, width)
    assert _labels(p, product, den) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_the_numerator_is_the_resolution_times_one_minus_eps_q_to_the_period(data):
    p = data.draw(levels)
    a = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(st.integers(-2, 2)))
    period, eps = 3 * p.v, (-1) ** p.v
    # every numerator term lies below two periods up, so this cut holds them all
    depth = data.draw(st.integers(2 * period, 4 * period))
    res = resolution(p, a, depth)
    expected = reference.restrict(res - eps * res.shifted(p, period), lambda x: x.ell.twice <= a.ell.twice + 2 * depth)
    got = FormalSum.combine(
        (FormalSum.lone(StandardLabel(HalfInt(t), Fraction(n, 6 * p.v), orbit_table(p).orbits[pos])), c)
        for t, n, pos, c in _numerator(p, a, 1)
    )
    assert got == expected


# ---------------------------------------------------------------------------
# Against the depth-truncated reference


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_highest_weight_by_standard_matches_the_reference(data):
    p = data.draw(small_levels)
    a = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(flows))
    b = _standard(data, p)
    assert fuse_general(p, a, b) == reference.fuse_general(p, a, b)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_highest_weight_pairs_match_the_reference(data):
    p = data.draw(small_levels)
    a = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(flows))
    b = hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(flows))
    assert fuse_general(p, a, b) == reference.fuse_general(p, a, b)


@pytest.mark.parametrize("change", ["flip", "drop"])
@pytest.mark.parametrize(
    "first,second",
    [("I[2,0,0;1,-1,1]^3", "R~[5/97;[[1,0,1;1,0,0]]]^1"), ("I[2,0,0;1,-1,1]^3", "I[1,0,1;1,-1,1]^1")],
    ids=["hw-by-standard", "hw-by-hw"],
)
def test_a_perturbed_block_term_fails_or_differs(change, first, second):
    """Flipping the sign of one block term of a's series, or dropping it,
    raises NotStabilisedError or changes the answer, for every block term."""
    p = level_params(5, 4)
    a, b = labels.parse_label(p, first), labels.parse_label(p, second)
    expected = reference.fuse_general(p, a, b)
    lam = enumerate_surv(p).index(a.lam)
    head, block = labels._series(p, lam)
    for k in range(len(block)):
        t, n, pos, c = block[k]
        changed = block[:k] + (((t, n, pos, -c),) if change == "flip" else ()) + block[k + 1 :]
        # a fresh level that holds the changed series of a in place of its own
        q = dataclasses.replace(p)
        q.tables[labels._series] = {(lam,): (head, changed)}
        try:
            got = fuse_general(q, a, b)
        except NotStabilisedError as exc:
            assert exc.uv == (5, 4) and exc.a == a and exc.b == b and exc.terms
            text = str(exc)
            assert text.startswith(f"fusion of {a} and {b} does not divide exactly by (1 - eps q^P):")
            assert "(u,v)=(5,4); remainder " in text
            assert str(FormalSum(list(exc.terms)[: verlinde.UNSETTLED_SHOWN])) in text
        else:
            assert got != expected, k


# ---------------------------------------------------------------------------
# The series and row tables on the level


@pytest.mark.parametrize("u,v", PAIRS)
def test_resolution_is_the_flow_cut_of_its_series(u, v):
    """labels.resolution, read off the series, against the three loops term
    by term at every depth 1..4P; half-integer flows are refused alike."""
    p = level_params(u, v)
    surv = enumerate_surv(p)
    rng = random.Random(100 * u + v)
    for lam in rng.sample(surv, min(6, len(surv))):
        flow = rng.randint(-3, 3)
        for depth in range(1, 4 * 3 * v + 1):
            a = hw_label(p, lam, flow)
            assert resolution(p, a, depth) == reference.resolution(p, a, depth)
        half = hw_label(p, lam, Fraction(2 * flow + 1, 2))
        for resolve in (resolution, reference.resolution):
            with pytest.raises(LabelError, match="integral-flow sector"):
                resolve(p, half, 1)


@pytest.mark.parametrize("u,v", [(u, v) for u, v in PAIRS if v <= 7])
def test_rows_read_off_the_factors_equal_the_w3_fusion_rows(u, v):
    p = level_params(u, v)
    n = len(enumerate_infwts(p))
    for ia in range(n):
        for ib in range(n):
            rows, reference_rows = _rows_at(p, ia, ib), _standard_rows(p, ia, ib)
            assert [dict(zip(*row)) for row in rows] == [dict(row) for row in reference_rows]


def test_tables_are_keyed_on_ints_and_hold_tuples():
    p = dataclasses.replace(level_params(5, 4))  # a fresh level: its tables hold this test's entries only
    a = hw_label(p, RSLabel((1, 0, 1), (1, -1, 1)), 1)
    fuse(p, hw_label(p, RSLabel((2, 0, 0), (1, -1, 1)), 3), a)
    fuse(p, a, standard_label(Fraction(5, 97), enumerate_infwts(p)[3], 1))
    rows, series = p.tables[verlinde._rows_at], p.tables[labels._series]
    assert rows and series
    for key, out in [*rows.items(), *series.items()]:
        assert all(type(x) is int for x in key), key
        assert type(out) is tuple and all(type(part) is tuple for part in out)
    for out in rows.values():
        assert len(out) == 4 and all(len(row) == 2 for row in out)
        assert all(type(x) is int for row in out for part in row for x in part)
    for out in series.values():
        assert len(out) == 2
        assert all(len(term) == 4 and all(type(x) is int for x in term) for part in out for term in part)


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
    q = dataclasses.replace(p)  # a fresh level: every table starts empty
    barrier = threading.Barrier(4, timeout=60)

    def work():
        barrier.wait()
        return [fuse(q, a, b) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(products == expected for products in results)
    assert q.tables[verlinde._rows_at] and q.tables[labels._series]
