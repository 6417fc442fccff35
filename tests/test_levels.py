from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.levels import (
    AdmissibilityError,
    LabelError,
    RSLabel,
    conjugate_rs,
    enumerate_infwts,
    enumerate_surv,
    hw_data,
    in_infwts,
    j_of,
    jtw_6v,
    jtw_of,
    level_params,
    orbit_of,
    sigma,
    sigma_inv,
    vacuum_orbit,
    w3_data,
)


def lab(r, s):
    return RSLabel(tuple(r), tuple(s))


class TestLevelParams:
    def test_4_3(self):
        p = level_params(4, 3)
        assert p.k == Fraction(-5, 3)
        assert p.c_bp == -1
        assert p.kappa == Fraction(-1, 18)

    def test_3_4(self):
        p = level_params(3, 4)
        assert p.k == Fraction(-9, 4)
        assert p.c_bp == Fraction(-23, 2)

    def test_5_3(self):
        p = level_params(5, 3)
        assert p.kappa == Fraction(1, 18)
        assert p.c_bp == Fraction(3, 5)
        assert p.k == Fraction(-4, 3)

    @pytest.mark.parametrize("u,v", [(6, 3), (4, 2), (2, 5), (3, 3), (9, 6)])
    def test_rejects_bad_pairs(self, u, v):
        with pytest.raises(AdmissibilityError):
            level_params(u, v)

    @given(st.integers(3, 30), st.integers(3, 30))
    @settings(max_examples=150)
    def test_central_charge_additivity(self, u, v):
        if gcd(u, v) != 1:
            return
        p = level_params(u, v)
        assert p.c_bp == p.c_pi + p.c_w3
        assert p.kappa == (2 * p.k + 3) / 6


class TestEnumeration:
    @pytest.mark.parametrize("u,v,n_surv,n_orbits", [(4, 3, 9, 1), (3, 4, 6, 1), (5, 3, 18, 2)])
    def test_counts(self, u, v, n_surv, n_orbits):
        p = level_params(u, v)
        assert len(enumerate_surv(p)) == n_surv
        assert len(enumerate_infwts(p)) == n_orbits

    def test_interior_size_is_three_per_orbit(self):
        for u, v in [(4, 3), (5, 3), (3, 4), (4, 5), (5, 4), (7, 5)]:
            p = level_params(u, v)
            interior = [x for x in enumerate_surv(p) if in_infwts(p, x)]
            assert len(interior) == 3 * len(enumerate_infwts(p))

    def test_surv_matches_brute_force(self):
        p = level_params(5, 4)
        brute = set()
        for r0 in range(3):
            for r1 in range(3 - r0):
                for f0 in range(1, 4):
                    for f1 in range(4 - f0):
                        brute.add(lab((r0, r1, 2 - r0 - r1), (f0 - 1, f1 - 1, 3 - f0 - f1)))
        assert set(enumerate_surv(p)) == brute

    def test_5_3_orbits(self):
        p = level_params(5, 3)
        orbits = enumerate_infwts(p)
        groups = [set(o.members) for o in orbits]
        assert {lab((2, 0, 0), (0, 0, 0)), lab((0, 2, 0), (0, 0, 0)), lab((0, 0, 2), (0, 0, 0))} in groups
        assert {lab((1, 1, 0), (0, 0, 0)), lab((0, 1, 1), (0, 0, 0)), lab((1, 0, 1), (0, 0, 0))} in groups


class TestSigma:
    def test_basic_cycle(self):
        assert sigma(lab((0, 1, 0), (0, 0, 0))) == lab((0, 0, 1), (0, 0, 0))

    def test_order_three(self):
        x = lab((2, 1, 0), (1, 0, 1))
        assert sigma(sigma(sigma(x))) == x
        assert sigma_inv(sigma(x)) == x

    def test_5_3_orbit_of_110(self):
        x = lab((1, 1, 0), (0, 0, 0))
        rs = {x.r, sigma(x).r, sigma(sigma(x)).r}
        assert rs == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}

    def test_free_action_on_interior(self):
        for u, v in [(4, 3), (3, 4), (4, 5), (5, 4)]:
            p = level_params(u, v)
            for orb in enumerate_infwts(p):
                for member in orb.members:
                    assert sigma(member) != member


class TestHWData:
    def test_spot_values_4_3(self):
        p = level_params(4, 3)
        d = hw_data(p, lab((0, 1, 0), (1, -1, 0)))
        assert (d.j, d.delta) == (Fraction(1, 3), Fraction(1, 2))
        d2 = hw_data(p, lab((0, 0, 1), (0, 0, 0)))
        assert (d2.j, d2.delta) == (Fraction(-7, 9), Fraction(5, 18))

    def test_vacuum_is_zero(self):
        for u, v in [(4, 3), (3, 4), (5, 4), (7, 3)]:
            p = level_params(u, v)
            d = hw_data(p, lab((u - 3, 0, 0), (v - 2, -1, 0)))
            assert (d.j, d.delta) == (0, 0)

    def test_full_4_3_weight_table(self):
        p = level_params(4, 3)
        rows = {
            ((1, 0, 0), (0, -1, 1)): (Fraction(4, 9), Fraction(1, 9)),
            ((0, 1, 0), (1, -1, 0)): (Fraction(1, 3), Fraction(1, 2)),
            ((0, 0, 1), (0, 0, 0)): (Fraction(-7, 9), Fraction(5, 18)),
            ((0, 0, 1), (0, -1, 1)): (Fraction(1, 9), Fraction(-1, 18)),
            ((1, 0, 0), (1, -1, 0)): (Fraction(0), Fraction(0)),
            ((0, 1, 0), (0, 0, 0)): (Fraction(-1, 9), Fraction(-1, 18)),
            ((0, 1, 0), (0, -1, 1)): (Fraction(7, 9), Fraction(5, 18)),
            ((0, 0, 1), (1, -1, 0)): (Fraction(-1, 3), Fraction(1, 2)),
            ((1, 0, 0), (0, 0, 0)): (Fraction(-4, 9), Fraction(1, 9)),
        }
        for (r, s), (j, delta) in rows.items():
            d = hw_data(p, lab(r, s))
            assert (d.j, d.delta) == (j, delta)

    def test_twisted_shift(self):
        p = level_params(5, 4)
        for x in enumerate_surv(p):
            d = hw_data(p, x)
            assert d.j_tw == d.j + p.kappa
            assert j_of(p, x) == d.j and jtw_of(p, x) == d.j_tw

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(u, v) for u in range(3, 12) for v in range(3, 12) if gcd(u, v) == 1]),
        st.lists(st.integers(-12, 12), min_size=6, max_size=6),
    )
    def test_twisted_charge_over_6v_is_an_integer(self, uv, xs):
        p = level_params(*uv)
        x = lab(xs[:3], xs[3:])
        assert isinstance(jtw_6v(p, x), int)
        assert jtw_of(p, x) == j_of(p, x) + p.kappa == Fraction(jtw_6v(p, x), 6 * p.v)

    def test_rejects_non_member(self):
        p = level_params(4, 3)
        with pytest.raises(LabelError):
            hw_data(p, lab((2, 0, 0), (0, 0, 0)))


class TestW3Data:
    def test_vacuum_orbit_weight_zero(self):
        for u, v in [(4, 3), (3, 4), (4, 5), (7, 4)]:
            p = level_params(u, v)
            wd = w3_data(p, vacuum_orbit(p))
            assert wd.delta == 0 and wd.w_rational == 0

    def test_5_3_matches_yang_lee_weights(self):
        p = level_params(5, 3)
        deltas = {w3_data(p, orb).delta for orb in enumerate_infwts(p)}
        assert deltas == {Fraction(0), Fraction(-1, 5)}

    def test_constant_on_orbit(self):
        for u, v in [(4, 5), (5, 4)]:
            p = level_params(u, v)
            for orb in enumerate_infwts(p):
                vals = {(w3_data(p, m).delta, w3_data(p, m).w_rational) for m in orb.members}
                assert len(vals) == 1

    def test_w_negates_under_conjugation(self):
        p = level_params(5, 4)
        for orb in enumerate_infwts(p):
            wd = w3_data(p, orb)
            wc = w3_data(p, conjugate_rs(orb.rep))
            assert wc.w_rational == -wd.w_rational
            assert wc.delta == wd.delta

    def test_twisted_weight_offset(self):
        # the twisted conformal weight exceeds the orbit weight by 9*kappa/4
        for u, v in [(4, 3), (5, 3), (3, 4), (5, 4)]:
            p = level_params(u, v)
            for orb in enumerate_infwts(p):
                wd = w3_data(p, orb)
                for member in orb.members:
                    d = hw_data(p, member)
                    assert d.delta_tw == wd.delta + 9 * p.kappa / 4

    def test_5_3_twisted_top_weights(self):
        p = level_params(5, 3)
        tops = {hw_data(p, orb.rep).delta_tw for orb in enumerate_infwts(p)}
        assert tops == {Fraction(1, 8), Fraction(-3, 40)}


class TestOrbitClass:
    def test_canonical_rep_is_minimal(self):
        p = level_params(5, 3)
        for orb in enumerate_infwts(p):
            assert orb.rep == min(orb.members)

    def test_orbit_of_any_member_is_same(self):
        p = level_params(4, 5)
        for orb in enumerate_infwts(p):
            for m in orb.members:
                assert orbit_of(p, m) == orb

    def test_membership_validation(self):
        p = level_params(4, 3)
        with pytest.raises(LabelError):
            orbit_of(p, lab((0, 1, 0), (1, -1, 0)))  # s1 = -1: not interior
