import cmath
import itertools
import math
import random
import re
from fractions import Fraction

import fusion_reference as reference
from fusion_reference import restrict, standard_to_twisted, twisted_to_standard
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.labels import (
    FormalSum,
    HalfInt,
    StandardLabel,
    hw_label,
    is_nonsimple_standard,
    nonsimple_standard,
    orbit_type,
    resolution,
    standard_label,
)
from bpfusion.levels import (
    LabelError,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    j_of,
    level_params,
    orbit_of,
    orbit_table,
)
from bpfusion.verlinde import (
    OMEGA_SHIFTS,
    GapDivergenceError,
    _shift_targets,
    _type3_middle_form,
    fuse,
    fuse_general,
    fuse_standard,
    fuse_sums,
    fuse_type3_standard,
    fuse_type3_type3,
    simple_currents,
    standard_kernel,
    subring_iso_check,
    type3_kernel,
    vacuum_kernel,
    verlinde_oracle,
)
from bpfusion.w3modular import (
    _cached_smatrix,
    cexp,
    w3_fusion,
    w3_fusion_support,
    w3_fusion_with_label,
)


def lab(r, s):
    return RSLabel(tuple(r), tuple(s))


def orb34(p):
    return enumerate_infwts(p)[0]


class TestKernels:
    def test_standard_kernel_symmetric(self):
        p = level_params(3, 4)
        o = orb34(p)
        a = standard_label(Fraction(1, 7), o, 2)
        b = standard_label(Fraction(2, 5), o, -1)
        assert abs(standard_kernel(p, a, b).value - standard_kernel(p, b, a).value) < 1e-12

    def test_standard_kernel_rejects_other_labels(self):
        p = level_params(3, 4)
        s = standard_label(Fraction(1, 7), orb34(p), 0)
        hw = hw_label(p, enumerate_surv(p)[0], 0)
        for a, b in [(s, hw), (hw, s), (s, enumerate_surv(p)[0]), (None, s)]:
            with pytest.raises(LabelError):
                standard_kernel(p, a, b)

    def test_flow_factorisation(self):
        # pulling flow off the first label costs one exponential factor
        p = level_params(5, 3)
        o = enumerate_infwts(p)[1]
        b = standard_label(Fraction(2, 5), o, 3)
        for ell in (1, 2, -2):
            a = standard_label(Fraction(1, 7), o, ell)
            a0 = standard_label(Fraction(1, 7), o, 0)
            factor = cexp(-ell * (2 * p.kappa * 3 + Fraction(2, 5) - p.kappa))
            assert abs(standard_kernel(p, a, b).value - factor * standard_kernel(p, a0, b).value) < 1e-12

    def test_independent_recoding(self):
        # a from-scratch evaluation of the same kernel expression
        p = level_params(3, 4)
        o = orb34(p)
        a = standard_label(Fraction(1, 7), o, 1)
        b = standard_label(Fraction(3, 11), o, -2)
        w3 = _cached_smatrix(p).entry(o, o)
        kappa, la, lb, ja, jb = float(p.kappa), 1.0, -2.0, 1 / 7, 3 / 11
        expected = w3 * cmath.exp(
            -2j * math.pi * (2 * kappa * la * lb + la * (jb - kappa) + (ja - kappa) * lb)
        )
        assert abs(standard_kernel(p, a, b).value - expected) < 1e-12

    def test_type3_kernel_v3_denominator(self):
        # at v = 3 the orbit-dependent cosine sum cancels, leaving one cosine
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        vac = hw_label(p, lab((1, 0, 0), (1, -1, 0)), 0)
        jp = Fraction(1, 7)
        b = standard_label(jp, o, 2)
        entry = type3_kernel(p, vac, b)
        assert entry.denominator is not None
        assert abs(entry.denominator - 2 * math.cos(3 * math.pi * float(jp - p.kappa))) < 1e-9

    def test_vacuum_kernel_closed_form_v3(self):
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        jp = Fraction(2, 7)
        for ellp in (-1, 0, 2):
            b = standard_label(jp, o, ellp)
            entry = vacuum_kernel(p, b)
            wvac = _cached_smatrix(p).entry(o, o)
            expected = (
                wvac
                * cexp(p.kappa * ellp)
                * cmath.exp(1j * math.pi * float(jp - p.kappa))
                / (2 * math.cos(3 * math.pi * float(jp - p.kappa)))
            )
            assert abs(entry.value - expected) < 1e-12

    def test_entry_equals_product_of_components(self):
        p = level_params(3, 4)
        o = orb34(p)
        a = standard_label(Fraction(1, 7), o, 1)
        b = standard_label(Fraction(2, 9), o, -1)
        e = standard_kernel(p, a, b)
        assert abs(e.value - e.w3_factor * cexp(e.phase_exponent)) < 1e-12
        vac = hw_label(p, lab((0, 0, 0), (2, -1, 0)), 0)
        e3 = type3_kernel(p, vac, b)
        assert abs(e3.value - e3.w3_factor * cexp(e3.phase_exponent) / e3.denominator) < 1e-12
        # the denominator is the triple sine product over the gap offsets
        from bpfusion.levels import jtw_of

        cs = [float(b.j - p.kappa - jtw_of(p, m)) for m in o.members]
        sines = 8 * math.prod(math.sin(math.pi * c) for c in cs)
        assert abs(e3.denominator - sines) < 1e-9

    def test_gap_divergence_duality(self):
        # the kernel refuses exactly the nonsimple standard labels
        for u, v in [(4, 3), (3, 4)]:
            p = level_params(u, v)
            for o in enumerate_infwts(p):
                for member in o.members:
                    bad = nonsimple_standard(p, member, 0)
                    with pytest.raises(GapDivergenceError):
                        vacuum_kernel(p, bad)
                for num in (1, 2, 3):
                    good = standard_label(Fraction(num, 13), o, 0)
                    assert not is_nonsimple_standard(p, good)
                    vacuum_kernel(p, good)

    def test_vacuum_kernel_positive_modulus_scan(self):
        p = level_params(3, 4)
        o = orb34(p)
        for num in range(1, 40):
            b = standard_label(Fraction(num, 41), o, 0)
            assert abs(vacuum_kernel(p, b).value) > 1e-6

    def test_truncated_resolution_converges_to_type3_kernel(self):
        # damped partial sums of standard entries approach the closed form
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        vac = hw_label(p, lab((1, 0, 0), (1, -1, 0)), 0)
        b = standard_label(Fraction(1, 7), o, 1)
        closed = type3_kernel(p, vac, b).value

        def damped(delta, depth):
            rho = 1 - delta
            total = 0j
            for term, coeff in resolution(p, vac, depth):
                flow = term.ell.twice // 2
                total += coeff * standard_kernel(p, term, b).value * rho**flow
            return total

        err_coarse = abs(damped(1e-2, 1500) - closed)
        err_fine = abs(damped(1e-3, 12000) - closed)
        assert err_fine < err_coarse / 4
        assert err_fine < 2e-2


class TestStandardFusionClosedForms:
    def test_3_4_four_term_rule(self):
        p = level_params(3, 4)
        o = orb34(p)
        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        got = fuse_standard(p, standard_label(j1, o, 0), standard_label(j2, o, 0))
        jj = j1 + j2
        expected = FormalSum(
            [
                (standard_label(jj + Fraction(1, 2), o, -1), 1),
                (standard_label(jj, o, 0), 1),
                (standard_label(jj + Fraction(1, 2), o, 1), 1),
                (standard_label(jj, o, 2), 1),
            ]
        )
        assert got == expected

    def test_4_3_two_term_rule(self):
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        got = fuse_standard(p, standard_label(j1, o, 0), standard_label(j2, o, 0))
        expected = FormalSum(
            [
                (standard_label(j1 + j2 - 4 * p.kappa, o, 2), 1),
                (standard_label(j1 + j2 + 2 * p.kappa, o, -1), 1),
            ]
        )
        assert got == expected

    def test_4_3_symmetrised_charge_shifts(self):
        # in the half-integer-flow presentation the two blocks sit at
        # flows +-3/2 with charge shifts -+1/6
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        j1, j2 = Fraction(1, 5), Fraction(1, 3)
        a = twisted_to_standard(p, Fraction(1, 2), j1, o)
        b = twisted_to_standard(p, Fraction(1, 2), j2, o)
        got = fuse_standard(p, a, b)
        twisted = {standard_to_twisted(p, term)[:2] for term, _ in got}
        assert twisted == {
            (HalfInt.of(Fraction(5, 2)), Fraction(j1 + j2 + Fraction(1, 6)) % 1),
            (HalfInt.of(Fraction(-1, 2)), Fraction(j1 + j2 - Fraction(1, 6)) % 1),
        }

    def test_5_3_relaxed_by_relaxed(self):
        p = level_params(5, 3)
        orb_vac, orb_phi = (
            orbit_of(p, lab((2, 0, 0), (0, 0, 0))),
            orbit_of(p, lab((1, 1, 0), (0, 0, 0))),
        )
        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        jj = j1 + j2

        def twisted_pair(params, a_orb, b_orb):
            a = twisted_to_standard(params, Fraction(1, 2), j1, a_orb)
            b = twisted_to_standard(params, Fraction(1, 2), j2, b_orb)
            out = fuse_standard(params, a, b)
            return {(standard_to_twisted(params, t)[:2], t.orbit, c) for t, c in out}

        # blocks at twisted flows 1 +- 3/2 carry charge shifts -+ 3 kappa = -+ 1/6
        up, down = HalfInt.of(Fraction(5, 2)), HalfInt.of(Fraction(-1, 2))
        plus, minus = Fraction(jj + Fraction(1, 6)) % 1, Fraction(jj - Fraction(1, 6)) % 1
        assert twisted_pair(p, orb_vac, orb_vac) == {
            ((down, plus), orb_vac, 1),
            ((up, minus), orb_vac, 1),
        }
        assert twisted_pair(p, orb_vac, orb_phi) == {
            ((down, plus), orb_phi, 1),
            ((up, minus), orb_phi, 1),
        }
        assert twisted_pair(p, orb_phi, orb_phi) == {
            ((down, plus), orb_vac, 1),
            ((down, plus), orb_phi, 1),
            ((up, minus), orb_vac, 1),
            ((up, minus), orb_phi, 1),
        }

    def test_3_4_symmetrised_four_blocks(self):
        # in the half-integer-flow view the four blocks sit at relative
        # flows -+3/2, -+1/2 with charge shifts +-3 kappa, +-kappa
        p = level_params(3, 4)
        o = orb34(p)
        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        jj = j1 + j2
        a = twisted_to_standard(p, Fraction(1, 2), j1, o)
        b = twisted_to_standard(p, Fraction(1, 2), j2, o)
        got = {standard_to_twisted(p, t)[:2] for t, _ in fuse_standard(p, a, b)}
        assert got == {
            (HalfInt.of(Fraction(5, 2)), Fraction(jj - Fraction(1, 4)) % 1),
            (HalfInt.of(Fraction(-1, 2)), Fraction(jj + Fraction(1, 4)) % 1),
            (HalfInt.of(Fraction(3, 2)), Fraction(jj + Fraction(1, 4)) % 1),
            (HalfInt.of(Fraction(1, 2)), Fraction(jj - Fraction(1, 4)) % 1),
        }

    def test_commutative(self):
        for u, v in [(4, 3), (3, 4), (5, 4)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            rng = random.Random(5)
            for _ in range(6):
                a = standard_label(Fraction(rng.randrange(1, 11), 11), rng.choice(orbs), rng.randrange(-2, 3))
                b = standard_label(Fraction(rng.randrange(1, 11), 11), rng.choice(orbs), rng.randrange(-2, 3))
                assert fuse_standard(p, a, b) == fuse_standard(p, b, a)

    def test_associative_on_charge_grid(self):
        # charges shift uniformly under fusion, so associativity over the
        # whole closed grid follows from one generic charge triple per
        # orbit triple; those are checked exhaustively at the small levels
        rng = random.Random(11)
        for u, v in [(4, 3), (3, 4), (5, 3)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            grid = 6 * v
            for oa, ob, oc in itertools.product(orbs, repeat=3):
                a = standard_label(Fraction(1, grid), oa, 0)
                b = standard_label(Fraction(rng.randrange(grid), grid), ob, 1)
                c = standard_label(Fraction(rng.randrange(grid), grid), oc, -1)
                lhs = fuse_sums(p, fuse_standard(p, a, b), FormalSum.lone(c))
                rhs = fuse_sums(p, FormalSum.lone(a), fuse_standard(p, b, c))
                assert lhs == rhs
        p = level_params(5, 4)
        orbs = enumerate_infwts(p)
        for _ in range(8):
            oa, ob, oc = (rng.choice(orbs) for _ in range(3))
            a = standard_label(Fraction(rng.randrange(24), 24), oa, 0)
            b = standard_label(Fraction(rng.randrange(24), 24), ob, 0)
            c = standard_label(Fraction(rng.randrange(24), 24), oc, 0)
            lhs = fuse_sums(p, fuse_standard(p, a, b), FormalSum.lone(c))
            rhs = fuse_sums(p, FormalSum.lone(a), fuse_standard(p, b, c))
            assert lhs == rhs

    def test_nonnegative_integer_coefficients(self):
        for u, v in [(4, 3), (3, 4), (4, 5)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            for oa, ob in itertools.product(orbs, repeat=2):
                out = fuse_standard(p, standard_label(Fraction(1, 9), oa, 0), standard_label(Fraction(2, 9), ob, 0))
                assert all(c > 0 for _, c in out)

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from([(4, 3), (3, 4), (5, 3)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_charge_conservation_property(self, n1, n2, l1, l2, uv):
        # every emitted charge satisfies the congruence that the charge
        # sum in the fusion integral enforces
        p = level_params(*uv)
        orbs = enumerate_infwts(p)
        a = standard_label(Fraction(n1, 41), orbs[0], l1)
        b = standard_label(Fraction(n2, 41), orbs[-1], l2)
        for term, _ in fuse_standard(p, a, b):
            drift = a.j + b.j - term.j + 2 * p.kappa * Fraction(
                (a.ell + b.ell - term.ell).twice, 2
            )
            assert drift.denominator == 1

    def test_conservation_of_flow(self):
        p = level_params(3, 4)
        o = orb34(p)
        a0 = standard_label(Fraction(1, 7), o, 0)
        b0 = standard_label(Fraction(2, 7), o, 0)
        base = fuse_standard(p, a0, b0)
        for la, lb in [(1, 2), (-1, 3), (Fraction(1, 2), Fraction(3, 2))]:
            a = standard_label(Fraction(1, 7), o, la)
            b = standard_label(Fraction(2, 7), o, lb)
            assert fuse_standard(p, a, b) == base.shifted(p, HalfInt.of(la) + HalfInt.of(lb))


class TestHighestWeightClosedForms:
    def test_vacuum_acts_as_identity(self):
        for u, v in [(4, 3), (3, 4), (4, 5)]:
            p = level_params(u, v)
            vac = hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
            for o in enumerate_infwts(p):
                b = standard_label(Fraction(1, 7), o, 1)
                assert fuse_type3_standard(p, vac, b) == FormalSum.lone(b)

    def test_4_3_simple_current_shifts_charge(self):
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        sc = hw_label(p, lab((0, 1, 0), (1, -1, 0)), 0)
        jp = Fraction(2, 7)
        got = fuse_type3_standard(p, sc, standard_label(jp, o, 0))
        assert got == FormalSum.lone(standard_label(jp + Fraction(4, 3), o, 0))

    def test_5_3_hw_by_relaxed(self):
        p = level_params(5, 3)
        orb_vac = orbit_of(p, lab((2, 0, 0), (0, 0, 0)))
        orb_phi = orbit_of(p, lab((1, 1, 0), (0, 0, 0)))
        x = hw_label(p, lab((1, 1, 0), (1, -1, 0)), 0)
        jp = Fraction(2, 7)
        got_vac = fuse_type3_standard(p, x, standard_label(jp, orb_vac, 0))
        assert got_vac == FormalSum.lone(standard_label(jp + Fraction(1, 3), orb_phi, 0))
        got_phi = fuse_type3_standard(p, x, standard_label(jp, orb_phi, 0))
        assert got_phi == FormalSum(
            [
                (standard_label(jp + Fraction(1, 3), orb_vac, 0), 1),
                (standard_label(jp + Fraction(1, 3), orb_phi, 0), 1),
            ]
        )

    def test_5_3_hw_by_hw(self):
        p = level_params(5, 3)
        x = hw_label(p, lab((1, 1, 0), (1, -1, 0)), 0)
        got = fuse_type3_type3(p, x, x)
        expected = FormalSum(
            [
                (hw_label(p, lab((0, 2, 0), (1, -1, 0)), 0), 1),
                (hw_label(p, lab((1, 0, 1), (1, -1, 0)), 0), 1),
            ]
        )
        assert got == expected

    def test_4_3_flowed_product_normalises_to_vacuum(self):
        p = level_params(4, 3)
        a = hw_label(p, lab((1, 0, 0), (0, -1, 1)), 0)
        b = hw_label(p, lab((1, 0, 0), (0, 0, 0)), 0)
        got = fuse_type3_type3(p, a, b)
        assert got == FormalSum.lone(hw_label(p, lab((1, 0, 0), (1, -1, 0)), 0))

    def test_simple_current_rule_cycles_labels(self):
        for u, v in [(5, 3), (4, 5)]:
            p = level_params(u, v)
            current = hw_label(p, lab((0, u - 3, 0), (v - 2, -1, 0)), 0)
            for r0 in range(u - 2):
                rp = (r0, 0, u - 3 - r0)
                target = hw_label(p, lab(rp, (v - 2, -1, 0)), 0)
                got = fuse_type3_type3(p, current, target)
                cycled = hw_label(p, lab((rp[2], rp[0], rp[1]), (v - 2, -1, 0)), 0)
                assert got == FormalSum.lone(cycled)


class TestGeneralFusion:
    def test_3_4_type1_by_standard(self):
        p = level_params(3, 4)
        o = orb34(p)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        jp = Fraction(1, 7)
        got = fuse_general(p, t1, standard_label(jp, o, 0))
        expected = FormalSum(
            [
                (standard_label(jp + Fraction(1, 2), o, -1), 1),
                (standard_label(jp, o, 0), 1),
                (standard_label(jp + Fraction(1, 2), o, 1), 1),
            ]
        )
        assert got == expected

    def test_3_4_type2_by_standard(self):
        p = level_params(3, 4)
        o = orb34(p)
        t2 = hw_label(p, lab((0, 0, 0), (1, -1, 1)), 0)
        jp = Fraction(1, 7)
        got = fuse_general(p, t2, standard_label(jp, o, 0))
        expected = FormalSum(
            [
                (standard_label(jp - Fraction(1, 4), o, -1), 1),
                (standard_label(jp + Fraction(1, 4), o, 0), 1),
            ]
        )
        assert got == expected

    def test_3_4_type1_squared(self):
        p = level_params(3, 4)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        got = fuse_general(p, t1, t1)
        t3 = lambda ell: hw_label(p, lab((0, 0, 0), (2, -1, 0)), ell)
        expected = FormalSum(
            [(t1, 2), (t3(-2), 1), (t3(0), 1), (t3(2), 1)]
        )
        assert got == expected

    def test_3_4_type2_by_type2(self):
        p = level_params(3, 4)
        t2a = hw_label(p, lab((0, 0, 0), (1, 0, 0)), 0)
        t2b = hw_label(p, lab((0, 0, 0), (1, -1, 1)), 0)
        got = fuse_general(p, t2a, t2b)
        expected = FormalSum(
            [
                (hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0), 1),
                (hw_label(p, lab((0, 0, 0), (2, -1, 0)), 0), 1),
            ]
        )
        assert got == expected

    def test_3_4_type1_by_type2(self):
        p = level_params(3, 4)
        o = orb34(p)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        t2 = hw_label(p, lab((0, 0, 0), (1, -1, 1)), 0)
        got = fuse_general(p, t1, t2)
        expected = FormalSum(
            [
                (t2, 1),
                (standard_label(Fraction(3, 4), o, -1), 1),
            ]
        )
        assert got == expected

    def test_flow_conservation_through_resolutions(self):
        p = level_params(3, 4)
        o = orb34(p)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        base = fuse_general(p, t1, standard_label(Fraction(1, 7), o, 0))
        flowed = fuse_general(
            p,
            hw_label(p, lab((0, 0, 0), (0, 0, 1)), Fraction(3, 2)),
            standard_label(Fraction(1, 7), o, Fraction(1, 2)),
        )
        assert flowed == base.shifted(p, 2)

    @pytest.mark.parametrize("u,v", [(5, 3), (3, 4)])
    def test_telescoping_matches_type3_closed_form(self, u, v):
        p = level_params(u, v)
        js = [Fraction(1, 7), Fraction(3, 8)]
        for x in enumerate_surv(p):
            if orbit_type(p, x) != 3:
                continue
            a = hw_label(p, x, 0)
            for o in enumerate_infwts(p):
                for jp in js:
                    b = standard_label(jp, o, 0)
                    assert fuse_general(p, a, b) == fuse_type3_standard(p, a, b)

    def test_type3_by_type3_through_resolutions(self):
        p = level_params(5, 3)
        x = hw_label(p, lab((1, 1, 0), (1, -1, 0)), 0)
        assert fuse_general(p, x, x) == fuse_type3_type3(p, x, x)

    def test_shallow_depth_raises_rather_than_truncating(self):
        # the depth-truncated reference raises at a shallow depth; fuse has
        # no depth to cut at and gives the reference's default-depth answer
        from bpfusion.verlinde import NotStabilisedError

        p = level_params(3, 4)
        t2a = hw_label(p, lab((0, 0, 0), (1, 0, 0)), 0)
        t2b = hw_label(p, lab((0, 0, 0), (1, -1, 1)), 0)
        full = reference.fuse_general(p, t2a, t2b)
        for depth in (1, 3, 8):
            with pytest.raises(NotStabilisedError):
                reference.fuse_general(p, t2a, t2b, depth=depth)
        assert fuse_general(p, t2a, t2b) == full
        assert reference.fuse_general(p, t2a, t2b, depth=14) == full

    @pytest.mark.parametrize("depth", [0, -100])
    def test_fusion_takes_no_depth(self, depth):
        # a product is the exact quotient of whole resolutions: there is no depth to give
        p = level_params(5, 4)
        a = hw_label(p, lab((0, 2, 0), (1, 0, 0)), 0)
        b = standard_label(Fraction(1, 7), orbit_of(p, lab((0, 0, 2), (0, 0, 1))), 0)
        for call in (
            lambda: fuse(p, a, b, depth),
            lambda: fuse_general(p, a, b, depth=depth),
            lambda: fuse_general(p, a, a, depth),
            lambda: fuse(p, b, b, depth=depth),
            lambda: fuse_sums(p, FormalSum.lone(a), FormalSum.lone(b), depth),
        ):
            with pytest.raises(TypeError):
                call()

    def test_not_stabilised_error_names_what_failed(self):
        from bpfusion.verlinde import NotStabilisedError

        p = level_params(3, 4)
        t2a = hw_label(p, lab((0, 0, 0), (1, 0, 0)), 0)
        t2b = hw_label(p, lab((0, 0, 0), (1, -1, 1)), 0)
        # the first pass fails to telescope
        with pytest.raises(NotStabilisedError) as info:
            reference.fuse_general(p, t2a, t2b, depth=3)
        err = info.value
        assert (err.uv, err.a, err.b, err.depth, err.top) == ((3, 4), t2a, t2b, 3, 6)
        assert err.terms == FormalSum(
            [(hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0), 1), (hw_label(p, lab((0, 0, 0), (0, -1, 2)), 1), 1)]
        )
        text = str(err)
        assert text.startswith(f"fusion of {t2a} and {t2b} did not telescope by flow 6; raise the depth")
        assert "(u,v)=(3,4), depth 3, top 6" in text and str(err.terms) in text
        # both passes telescope but disagree on the window
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        b = standard_label(Fraction(1, 7), orbit_of(p, lab((0, 0, 0), (0, 0, 1))), 0)
        with pytest.raises(NotStabilisedError) as info:
            reference.fuse_general(p, t1, b, depth=11)
        err = info.value
        assert (err.uv, err.a, err.b, err.depth, err.top) == ((3, 4), t1, b, 11, 25)
        assert err.terms and all(c for _, c in err.terms)
        text = str(err)
        assert text.startswith(f"fusion of {t1} and {b} is not stable at depth 11")
        assert "(u,v)=(3,4), depth 11, top 25" in text and str(err.terms) in text
        # fuse gives the reference's default-depth answers
        assert fuse_general(p, t2a, t2b) == reference.fuse_general(p, t2a, t2b)
        assert fuse_general(p, t1, b) == reference.fuse_general(p, t1, b)

    def test_dispatcher_routes(self):
        p = level_params(3, 4)
        o = orb34(p)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        vac = hw_label(p, lab((0, 0, 0), (2, -1, 0)), 0)
        b = standard_label(Fraction(1, 7), o, 0)
        assert fuse(p, b, t1) == fuse_general(p, t1, b)
        assert fuse(p, vac, b) == fuse_type3_standard(p, vac, b)
        assert fuse(p, vac, vac) == fuse_type3_type3(p, vac, vac)

    def test_dispatcher_passes_standard_pairs_and_swaps_highest_weight_first(self, monkeypatch):
        import bpfusion.verlinde as verlinde

        p = level_params(3, 4)
        o = orb34(p)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        s1, s2 = standard_label(Fraction(1, 7), o, 0), standard_label(Fraction(2, 7), o, 1)
        calls = []

        def recording(name, fn):
            def wrapped(params, x, y, *rest):
                calls.append((name, x, y))
                return fn(params, x, y, *rest)

            return wrapped

        monkeypatch.setattr(verlinde, "fuse_standard", recording("standard", verlinde.fuse_standard))
        monkeypatch.setattr(verlinde, "fuse_general", recording("general", verlinde.fuse_general))
        fuse(p, s1, s2)
        assert calls == [("standard", s1, s2)]
        calls.clear()
        fuse(p, s1, t1)
        assert calls == [("general", t1, s1)]

    @pytest.mark.parametrize(
        "first",
        [
            standard_label(Fraction(1, 7), orbit_of(level_params(3, 4), lab((0, 0, 0), (0, 0, 1))), 0),
            lab((0, 0, 0), (0, 0, 1)),
            "I[0,0,0;0,0,1]^0",
        ],
        ids=["standard", "weight", "text"],
    )
    def test_fuse_general_takes_a_highest_weight_label_first(self, first):
        p = level_params(3, 4)
        t1 = hw_label(p, lab((0, 0, 0), (0, 0, 1)), 0)
        with pytest.raises(LabelError, match=f"highest-weight label first, not {re.escape(str(first))}$"):
            fuse_general(p, first, t1)

    def test_each_resolution_term_gets_a_product_deep_enough_for_its_flow(self):
        # b's resolution lists R~[3/4;[[0,1,1;0,1,0]]] at flow 11 before flow
        # 5; the flow-5 copy must not read a product cut for flow 11
        from bpfusion.labels import parse_label, rewrite_gaps
        from bpfusion.verlinde import NotStabilisedError

        p = level_params(5, 4)
        a, b = parse_label(p, "I[2,0,0;1,-1,1]^3"), parse_label(p, "I[1,0,1;1,-1,1]^1")
        flows = [t.ell.twice // 2 for t, _ in reference.resolution(p, b, 12).items() if t.j == Fraction(3, 4)]
        assert flows.index(11) < flows.index(5)
        with pytest.raises(NotStabilisedError) as info:
            reference.fuse_general(p, a, b, depth=5)
        err = info.value
        # uncached reference: both resolutions deep, cut at top, gaps
        # rewritten, then the zone of the last period below top - 4
        top, period = err.top, 3 * p.v
        res_a, res_b = reference.resolution(p, a, top + period), reference.resolution(p, b, top + period)
        product = FormalSum.combine(
            (fuse_standard(p, x, y), cx * cy) for x, cx in res_a.items() for y, cy in res_b.items()
        )
        raw = restrict(product, lambda t: t.ell.twice <= 2 * top)
        settled = restrict(rewrite_gaps(p, raw), lambda t: 2 * (top - 4 - period) < t.ell.twice <= 2 * (top - 4))
        assert err.terms == settled
        assert settled == FormalSum(
            [(parse_label(p, "I[1,1,0;0,0,1]^3"), 1), (parse_label(p, "I[1,0,1;0,-1,2]^4"), 1)]
        )
        # fuse gives the reference's default-depth answer
        assert fuse_general(p, a, b) == reference.fuse_general(p, a, b)


class TestGeneralFusionConsistency:
    def test_vacuum_is_a_unit_through_resolutions(self):
        # the unit axiom survives the resolution + telescope route for
        # every orbit type, not just the closed-form paths
        for u, v in [(3, 4), (5, 3)]:
            p = level_params(u, v)
            vac = hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
            seen_types = set()
            for x in enumerate_surv(p):
                h = hw_label(p, x, 0)
                t = orbit_type(p, x)
                if t in seen_types:
                    continue
                seen_types.add(t)
                assert fuse_general(p, h, vac) == FormalSum.lone(h)

    def test_exactness_of_gap_rewriting(self):
        # fusing against a gap standard equals fusing against the two
        # highest-weight labels of its exact sequence, once both sides
        # are written in the gap-free canonical form
        from bpfusion.labels import rewrite_gap_standard, rewrite_gaps

        for u, v in [(3, 4), (4, 5)]:
            p = level_params(u, v)
            orb = enumerate_infwts(p)[0]
            member = orb.members[0]
            gap = nonsimple_standard(p, member, 0)
            pieces = rewrite_gap_standard(p, gap)
            for x in enumerate_surv(p)[:2]:
                a = hw_label(p, x, 0)
                direct = fuse_general(p, a, gap)
                split = FormalSum()
                for piece, coeff in pieces:
                    split = split + coeff * fuse_general(p, a, piece)
                assert rewrite_gaps(p, direct) == rewrite_gaps(p, split)

    def test_general_v_telescoping_beyond_the_small_models(self):
        p = level_params(4, 5)
        orbs = enumerate_infwts(p)
        jp = Fraction(1, 7)
        t1 = hw_label(p, lab((1, 0, 0), (0, 1, 1)), 0)
        assert orbit_type(p, t1.lam) == 1
        out = fuse_general(p, t1, standard_label(jp, orbs[0], 0))
        assert out and all(coeff > 0 for _, coeff in out)
        t2 = hw_label(p, lab((0, 1, 0), (1, -1, 2)), 0)
        assert orbit_type(p, t2.lam) == 2
        out2 = fuse_general(p, t2, standard_label(jp, orbs[1], 0))
        assert out2 and all(coeff > 0 for _, coeff in out2)
        # charge conservation across every emitted term
        for term, _ in out2:
            assert isinstance(term, StandardLabel)


class TestSimpleCurrentExtensions:
    """Worked examples: the current-orbit sums behave like modules of the
    order-3 extension, with the overall factor 3 from the orbit size."""

    def test_4_3_extended_relaxed_fusion(self):
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        third = Fraction(1, 3)

        def orbit_sum(j, flow=0):
            return FormalSum(
                [(twisted_to_standard(p, Fraction(flow), j + k * third, o), 1) for k in range(3)]
            )

        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        product = fuse_sums(p, orbit_sum(j1), orbit_sum(j2))
        expected = 3 * (
            orbit_sum(j1 + j2 + Fraction(1, 6), Fraction(3, 2))
            + orbit_sum(j1 + j2 - Fraction(1, 6), Fraction(-3, 2))
        )
        assert product == expected

    def test_5_3_extended_relaxed_fusion(self):
        p = level_params(5, 3)
        ovac = orbit_of(p, lab((2, 0, 0), (0, 0, 0)))
        ophi = orbit_of(p, lab((1, 1, 0), (0, 0, 0)))
        third = Fraction(1, 3)

        def orbit_sum(j, orb, flow=0):
            return FormalSum(
                [(twisted_to_standard(p, Fraction(flow), j + k * third, orb), 1) for k in range(3)]
            )

        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        jj = j1 + j2
        up, down = Fraction(3, 2), Fraction(-3, 2)
        plus, minus = jj + Fraction(1, 6), jj - Fraction(1, 6)
        got = fuse_sums(p, orbit_sum(j1, ovac), orbit_sum(j2, ovac))
        assert got == 3 * (orbit_sum(minus, ovac, up) + orbit_sum(plus, ovac, down))
        got = fuse_sums(p, orbit_sum(j1, ovac), orbit_sum(j2, ophi))
        assert got == 3 * (orbit_sum(minus, ophi, up) + orbit_sum(plus, ophi, down))
        got = fuse_sums(p, orbit_sum(j1, ophi), orbit_sum(j2, ophi))
        assert got == 3 * (
            orbit_sum(minus, ovac, up)
            + orbit_sum(minus, ophi, up)
            + orbit_sum(plus, ovac, down)
            + orbit_sum(plus, ophi, down)
        )

    def test_extension_vacuum_decomposition_weights(self):
        # the three summands of the extended vacuum at (4,3) carry the
        # ghost-like weights (0,0) and (+-1/3, 1/2)
        p = level_params(4, 3)
        from bpfusion.levels import hw_data

        weights = {
            (hw_data(p, lab(r, (1, -1, 0))).j, hw_data(p, lab(r, (1, -1, 0))).delta)
            for r in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        }
        assert weights == {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 3), Fraction(1, 2)),
            (Fraction(-1, 3), Fraction(1, 2)),
        }


class TestVerlindeOracle:
    @pytest.mark.parametrize("u,v", [(4, 3), (5, 3), (3, 4)])
    def test_matches_standard_closed_form(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        j1, j2 = Fraction(1, 7), Fraction(2, 7)
        for oa, ob in itertools.product(orbs, repeat=2):
            a = standard_label(j1, oa, 0)
            b = standard_label(j2, ob, 0)
            closed = fuse_standard(p, a, b)
            for ell in range(-4, 5):
                for shift in (Fraction(0), -4 * p.kappa, 2 * p.kappa, -2 * p.kappa, Fraction(1, 2)):
                    for oc in orbs:
                        cand = standard_label(j1 + j2 + shift, oc, ell)
                        if is_nonsimple_standard(p, cand):
                            continue
                        assert verlinde_oracle(p, a, b, cand) == closed.coeff(cand)

    def test_zero_off_support(self):
        p = level_params(3, 4)
        o = orb34(p)
        a = standard_label(Fraction(1, 7), o, 0)
        b = standard_label(Fraction(2, 7), o, 0)
        for ell in range(-3, 4):
            assert verlinde_oracle(p, a, b, standard_label(Fraction(1, 9), o, ell)) == 0

    def test_type3_by_standard_oracle(self):
        for u, v in [(4, 3), (3, 4), (5, 3)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            vac_mid = lab((u - 3, 0, 0), (v - 2, -1, 0))
            for x in [vac_mid, lab((0, u - 3, 0), (v - 2, -1, 0))]:
                a = hw_label(p, x, 0)
                for ob in orbs:
                    b = standard_label(Fraction(1, 7), ob, 0)
                    closed = fuse_type3_standard(p, a, b)
                    for term, coeff in closed:
                        assert verlinde_oracle(p, a, b, term) == coeff
                    for oc in orbs:
                        off = standard_label(Fraction(1, 997), oc, 1)
                        if is_nonsimple_standard(p, off):
                            continue
                        assert verlinde_oracle(p, a, b, off) == 0

    def test_rejects_nonsimple_candidate(self):
        p = level_params(3, 4)
        o = orb34(p)
        a = standard_label(Fraction(1, 7), o, 0)
        with pytest.raises(LabelError):
            verlinde_oracle(p, a, a, standard_label(Fraction(1, 4), o, 0))

    def test_rejects_two_type3_inputs(self):
        p = level_params(4, 3)
        o = enumerate_infwts(p)[0]
        vac = hw_label(p, lab((1, 0, 0), (1, -1, 0)), 0)
        with pytest.raises(LabelError):
            verlinde_oracle(p, vac, vac, standard_label(Fraction(1, 7), o, 0))


class TestSimpleCurrents:
    @pytest.mark.parametrize(
        "u,v,delta",
        [(4, 3, Fraction(1, 2)), (5, 3, Fraction(1)), (4, 5, Fraction(7, 6)), (5, 4, Fraction(5, 3))],
    )
    def test_weights(self, u, v, delta):
        p = level_params(u, v)
        currents = simple_currents(p)
        assert len(currents) == 2
        assert {j for _, j, _ in currents} == {Fraction(u - 3, 3), -Fraction(u - 3, 3)}
        assert {d for _, _, d in currents} == {delta}

    def test_u3_empty(self):
        assert simple_currents(level_params(3, 4)) == []

    def test_order_three_and_mutually_inverse(self):
        for u, v in [(4, 3), (5, 3), (4, 5)]:
            p = level_params(u, v)
            (ca, _, _), (cb, _, _) = simple_currents(p)
            vac = hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
            square = fuse_type3_type3(p, ca, ca)
            ((sq, one),) = list(square)
            assert one == 1
            cube = fuse_type3_type3(p, ca, sq)
            assert cube == FormalSum.lone(vac)
            assert fuse_type3_type3(p, ca, cb) == FormalSum.lone(vac)


class TestSubring:
    @pytest.mark.parametrize("u,v", [(4, 3), (5, 3), (4, 5)])
    def test_structure_constants(self, u, v):
        assert subring_iso_check(level_params(u, v))

    def test_3_v_is_trivial(self):
        assert subring_iso_check(level_params(3, 5))


# ---------------------------------------------------------------------------
# The sparse closed forms against the dense all-orbit loops they replaced

SPARSE_LEVELS = [
    (u, v) for u in range(3, 8) for v in range(3, 8) if u != v and math.gcd(u, v) == 1
]


def _omega_shift(s, i, sign):
    out = list(s)
    out[i] += sign
    out[(i + 1) % 3] -= sign
    return tuple(out)


def dense_fuse_standard(p, a, b):
    """fuse_standard as an all-orbit loop, with one w3_fusion call per term."""
    kappa = p.kappa
    ell = a.ell + b.ell
    jj = a.j + b.j
    rep = b.orbit.rep
    out = FormalSum()
    for orb in enumerate_infwts(p):
        n = w3_fusion(p, a.orbit, b.orbit, orb)
        if n:
            out = out + n * FormalSum.lone(standard_label(jj - 4 * kappa, orb, ell + 2))
            out = out + n * FormalSum.lone(standard_label(jj + 2 * kappa, orb, ell - 1))
        for i in range(3):
            shifted = RSLabel(rep.r, _omega_shift(rep.s, i, -1))
            n_minus = w3_fusion_with_label(p, a.orbit, shifted, orb)
            if n_minus:
                out = out + n_minus * FormalSum.lone(standard_label(jj - 2 * kappa, orb, ell + 1))
            shifted = RSLabel(rep.r, _omega_shift(rep.s, i, +1))
            n_plus = w3_fusion_with_label(p, a.orbit, shifted, orb)
            if n_plus:
                out = out + n_plus * FormalSum.lone(standard_label(jj, orb, ell))
    return out


def dense_fuse_type3_standard(p, a, b):
    """fuse_type3_standard as an all-orbit loop."""
    ell, mid = _type3_middle_form(p, a)
    under = orbit_of(p, RSLabel(mid.r, (p.v - 3, 0, 0)))
    jj = j_of(p, mid) + b.j
    out = FormalSum()
    for orb in enumerate_infwts(p):
        n = w3_fusion(p, under, b.orbit, orb)
        if n:
            out = out + n * FormalSum.lone(standard_label(jj, orb, HalfInt.of(ell) + b.ell))
    return out


def _random_standard(rng, orbs):
    j = Fraction(rng.randrange(-40, 41), rng.choice((7, 11, 13, 60)))
    return standard_label(j, rng.choice(orbs), HalfInt(rng.randrange(-6, 7)))


class TestSparseFusionKernel:
    def test_grid_reaches_the_s_side_branch(self):
        # u divisible by 3 leaves no root-lattice r-representative
        assert {(6, 5), (3, 7)} <= {uv for uv in SPARSE_LEVELS if uv[0] % 3 == 0}

    @pytest.mark.parametrize("u,v", SPARSE_LEVELS)
    def test_support_is_the_nonzero_set(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        for a, b in itertools.product(orbs, repeat=2):
            support = w3_fusion_support(p, a, b)
            assert len(support) == len(set(support))
            assert set(support) == {c for c in orbs if w3_fusion(p, a, b, c)}

    @pytest.mark.parametrize("u,v", SPARSE_LEVELS)
    def test_fuse_standard_matches_dense_loop(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        rng = random.Random(1000 * u + v)
        for _ in range(40):
            a, b = _random_standard(rng, orbs), _random_standard(rng, orbs)
            sparse, dense = fuse_standard(p, a, b), dense_fuse_standard(p, a, b)
            assert sparse == dense and str(sparse) == str(dense)

    @pytest.mark.parametrize("u,v", SPARSE_LEVELS)
    def test_fuse_type3_standard_matches_dense_loop(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        type3 = [x for x in enumerate_surv(p) if orbit_type(p, x) == 3]
        rng = random.Random(1000 * u + v)
        for _ in range(40):
            a = hw_label(p, rng.choice(type3), HalfInt(rng.randrange(-6, 7)))
            b = _random_standard(rng, orbs)
            sparse, dense = fuse_type3_standard(p, a, b), dense_fuse_type3_standard(p, a, b)
            assert sparse == dense and str(sparse) == str(dense)

    def test_fuse_sums_is_bilinear(self):
        p = level_params(5, 3)
        orbs = enumerate_infwts(p)
        x = standard_label(Fraction(1, 7), orbs[0], 0)
        y = standard_label(Fraction(2, 7), orbs[1], 1)
        z = standard_label(Fraction(3, 7), orbs[1], -1)
        fa = FormalSum([(x, 2), (y, -1)])
        fb = FormalSum([(z, 3)])
        expected = 6 * fuse(p, x, z) - 3 * fuse(p, y, z)
        assert fuse_sums(p, fa, fb) == expected

    def test_fuse_rejects_bare_weights_and_orbits(self):
        p = level_params(3, 4)
        o = orb34(p)
        b = standard_label(Fraction(1, 7), o, 0)
        for bad in (o.rep, o):
            with pytest.raises(LabelError):
                fuse(p, b, bad)
            with pytest.raises(LabelError):
                fuse(p, bad, b)

    def test_foreign_orbits_raise_instead_of_fusing_to_zero(self):
        p = level_params(7, 5)
        own = standard_label(Fraction(1, 7), enumerate_infwts(p)[0])
        foreign = standard_label(Fraction(1, 7), enumerate_infwts(level_params(5, 4))[0])
        hw = hw_label(p, lab((1, 1, 2), (0, 1, 1)), 0)
        message = f"^{re.escape(str(foreign.orbit))} is not an orbit at \\(7,5\\)$"
        calls = [
            lambda: fuse_standard(p, own, foreign),
            lambda: fuse_standard(p, foreign, own),
            lambda: fuse(p, own, foreign),
            lambda: fuse(p, foreign, own),
            lambda: fuse(p, hw, foreign),
            lambda: fuse(p, foreign, hw),
        ]
        for call in calls:
            with pytest.raises(LabelError, match=message):
                call()


def _shift_probe(params):
    """The omega-shift targets as `_standard_rows` found them on each call
    before the table: one orbit-index lookup per shifted label."""
    table = orbit_table(params)
    out = []
    for orb in table.orbits:
        row = []
        for sign in (-1, 1):
            for step in OMEGA_SHIFTS:
                f = table.index.get(RSLabel(orb.rep.r, tuple(x + sign * d for x, d in zip(orb.rep.s, step))))
                row.append(table.position[f] if f else -1)
        out.append(row)
    return out


@pytest.mark.parametrize("u,v", [(u, v) for u in range(3, 10) for v in range(3, 10) if math.gcd(u, v) == 1])
def test_shift_targets_equal_the_per_call_probe(u, v):
    targets = _shift_targets(level_params(u, v))
    assert targets.dtype == np.int64 and not targets.flags.writeable
    assert targets.tolist() == _shift_probe(level_params(u, v))
