"""Properties of labels and of closed-form standard fusion, over random
coprime 3 <= u, v <= 8.

Labels keep their hash after its first use, so a label must hash the
same whichever way it was built, and differently from a label that
differs in any one field.  Printed labels parse back to equal labels.
Standard fusion is commutative and conserves J = j + 2 kappa ell mod 1,
is associative through `fuse_sums`, and agrees with the Verlinde oracle
on every simple candidate of every class (flow, charge) a product
touches.
"""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_reference import verlinde_oracle_row
from bpfusion.labels import (
    HWLabel,
    StandardLabel,
    hw_flow_maps,
    hw_label,
    parse_label,
    spectral_flow,
    standard_label,
)
from bpfusion.labels import FormalSum
from bpfusion.levels import (
    OrbitClass,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    level_params,
    orbit_of,
    parse_orbit,
)
from bpfusion.verlinde import fuse_standard, fuse_sums, simple_candidates

PAIRS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]
levels = st.sampled_from(PAIRS).map(lambda uv: level_params(*uv))
flows = st.integers(-6, 6).map(lambda twice: Fraction(twice, 2))
charges = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 120))


def _standard(data, p) -> StandardLabel:
    return standard_label(data.draw(charges), data.draw(st.sampled_from(enumerate_infwts(p))), data.draw(flows))


def _hw(data, p) -> HWLabel:
    return hw_label(p, data.draw(st.sampled_from(enumerate_surv(p))), data.draw(flows))


def _same(x, y):
    assert x == y and hash(x) == hash(y)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_equal_standard_labels_hash_equal(data):
    p = data.draw(levels)
    x = _standard(data, p)
    m = data.draw(st.integers(-4, 4))
    _same(parse_label(p, str(x)), x)
    _same(standard_label(x.j + 1, x.orbit, x.ell), x)
    _same(standard_label(x.j - 3, x.orbit, x.ell), x)
    _same(spectral_flow(p, spectral_flow(p, x, m), -m), x)
    # a rebuilt orbit object, named by any member
    member = data.draw(st.sampled_from(x.orbit.members))
    _same(StandardLabel(x.ell, x.j, orbit_of(p, member)), x)
    _same(StandardLabel(x.ell, x.j, OrbitClass(x.orbit.rep, x.orbit.members)), x)
    # e.g. Fraction(2, 4) against Fraction(1, 2)
    num, den = x.j.numerator, x.j.denominator
    _same(standard_label(Fraction(2 * num, 2 * den), x.orbit, x.ell), x)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_equal_highest_weight_labels_hash_equal(data):
    p = data.draw(levels)
    x = _hw(data, p)
    m = data.draw(st.integers(-4, 4))
    _same(parse_label(p, str(x)), x)
    _same(spectral_flow(p, spectral_flow(p, x, m), -m), x)
    _same(HWLabel(x.ell, RSLabel.parse(str(x.lam))), x)
    # the same module reached from another highest-weight label of its flow orbit
    for step, image in hw_flow_maps(p, x.lam):
        _same(hw_label(p, image, x.ell - step), x)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_labels_that_differ_in_one_field_hash_apart(data):
    """A hash that skipped a field would still be correct, but flowed or
    recharged copies of one label would collide in every formal sum."""
    p = data.draw(levels)
    x = _standard(data, p)
    assert hash(spectral_flow(p, x, 1)) != hash(x)
    assert hash(standard_label(x.j + Fraction(1, 3), x.orbit, x.ell)) != hash(x)
    other = data.draw(st.sampled_from(enumerate_infwts(p)))
    if other != x.orbit:
        assert hash(StandardLabel(x.ell, x.j, other)) != hash(x)
        assert hash(other) != hash(x.orbit)
    h = _hw(data, p)
    assert hash(spectral_flow(p, h, 1)) != hash(h)
    lam = data.draw(st.sampled_from(enumerate_surv(p)))
    if lam != h.lam:
        assert hash(HWLabel(h.ell, lam)) != hash(h)
        assert hash(lam) != hash(h.lam)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_printed_labels_parse_back(data):
    p = data.draw(levels)
    lam = data.draw(st.sampled_from(enumerate_surv(p)))
    assert RSLabel.parse(str(lam)) == lam
    assert parse_label(p, str(lam)) == lam
    orb = data.draw(st.sampled_from(enumerate_infwts(p)))
    assert parse_orbit(p, str(orb)) == orb and parse_label(p, str(orb)) == orb
    assert all(parse_orbit(p, f"[{member}]") == orb for member in orb.members)
    h = _hw(data, p)
    assert parse_label(p, str(h)) == h
    x = _standard(data, p)
    assert parse_label(p, str(x)) == x


def total_charge(p, x: StandardLabel) -> Fraction:
    return x.j + 2 * p.kappa * Fraction(x.ell.twice, 2)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_standard_fusion_is_commutative_and_conserves_charge(data):
    p = data.draw(levels)
    a, b = _standard(data, p), _standard(data, p)
    product = fuse_standard(p, a, b)
    assert product == fuse_standard(p, b, a)
    assert all(isinstance(coeff, int) and coeff > 0 for _, coeff in product)
    want = total_charge(p, a) + total_charge(p, b)
    flows = {(a.ell + b.ell + d).twice for d in (-1, 0, 1, 2)}
    for label, _ in product:
        assert isinstance(label.j, Fraction) and 0 <= label.j < 1
        assert (total_charge(p, label) - want).denominator == 1, (a, b, label)
        assert label.ell.twice in flows


# charges k/97 share no denominator with any level's kappa; flows -2..2
fusion_charges = st.integers(0, 96).map(lambda k: Fraction(k, 97))
fusion_flows = st.integers(-4, 4).map(lambda twice: Fraction(twice, 2))


def _fusion_standard(data, p) -> StandardLabel:
    orbit = data.draw(st.sampled_from(enumerate_infwts(p)))
    return standard_label(data.draw(fusion_charges), orbit, data.draw(fusion_flows))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_standard_fusion_is_associative(data):
    p = data.draw(levels)
    a, b, c = (_fusion_standard(data, p) for _ in range(3))
    lhs = fuse_sums(p, fuse_standard(p, a, b), FormalSum.lone(c))
    rhs = fuse_sums(p, FormalSum.lone(a), fuse_standard(p, b, c))
    assert lhs == rhs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verlinde_oracle_row_matches_standard_fusion(data):
    p = data.draw(levels)
    a, b = _fusion_standard(data, p), _fusion_standard(data, p)
    product = fuse_standard(p, a, b)
    orbits = enumerate_infwts(p)
    for ell, charge in {(label.ell, label.j) for label, _ in product}:
        row = verlinde_oracle_row(p, a, b, ell, charge)
        for orbit, simple, got in zip(orbits, simple_candidates(p, charge), row):
            if simple:
                assert got == product.coeff(standard_label(charge, orbit, ell)), (a, b, orbit, ell, charge)
