import cmath
import itertools
import math
import random
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_reference import complete_symmetric_sum, symmetric_sum_closed_form_check
from bpfusion import verify, w3modular
from bpfusion.levels import (
    RSLabel,
    enumerate_infwts,
    jtw_of,
    level_params,
    orbit_of,
    sigma,
    vacuum_orbit,
    w3_data,
)
from bpfusion.sl3 import WEYL, _mat_apply
from bpfusion.w3modular import (
    SingularInputError,
    W3SMatrix,
    cexp,
    ratio_weyl_character_check,
    sigma_phase_checks,
    sum_fund_modules_check,
    tensor_sum_check,
    w3_fusion,
    w3_smatrix_entry,
    w3_verlinde,
)

LEVELS = [(4, 3), (5, 3), (3, 4), (4, 5), (5, 4), (3, 5)]
SMALL_LEVELS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]


@pytest.fixture(scope="module", params=LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def smatrix(request):
    u, v = request.param
    return W3SMatrix(level_params(u, v))


class TestSMatrixProperties:
    def test_symmetric(self, smatrix):
        assert smatrix.is_symmetric(1e-9)

    def test_unitary(self, smatrix):
        assert smatrix.is_unitary(1e-9)

    def test_square_is_conjugation(self, smatrix):
        assert smatrix.squares_to_conjugation(1e-9)

    def test_well_defined_on_orbits(self, smatrix):
        p = smatrix.params
        for a in smatrix.orbits:
            for b in smatrix.orbits:
                vals = {
                    round(w3_smatrix_entry(p, ma, mb).real, 10)
                    + 1j * round(w3_smatrix_entry(p, ma, mb).imag, 10)
                    for ma in a.members
                    for mb in b.members
                }
                assert len(vals) == 1

    def test_alcove_boundary_vanishing(self, smatrix):
        p = smatrix.params
        v = p.v
        b = smatrix.orbits[0].rep
        for s in [(v - 2, -1, 0), (0, -1, v - 2), (-1, 2, v - 4)]:
            a = RSLabel((p.u - 3, 0, 0), s)
            assert abs(w3_smatrix_entry(p, a, b)) < 1e-9


class TestAllSmallLevels:
    def test_matrix_properties_up_to_eight(self):
        from math import gcd

        for u in range(3, 9):
            for v in range(3, 9):
                if gcd(u, v) != 1:
                    continue
                sm = W3SMatrix(level_params(u, v))
                assert sm.is_symmetric(1e-9)
                assert sm.is_unitary(1e-9)
                assert sm.squares_to_conjugation(1e-9)


class TestSpecialValues:
    def test_3_4_is_one_by_one_identity(self):
        sm = W3SMatrix(level_params(3, 4))
        assert sm.matrix.shape == (1, 1)
        assert abs(sm.matrix[0, 0] - 1) < 1e-9

    def test_5_3_matches_lee_yang(self):
        # the closed-form 2x2 S-matrix of the (2,5) Virasoro minimal model
        p = level_params(5, 3)
        sm = W3SMatrix(p)
        weights = [w3_data(p, orb).delta for orb in sm.orbits]
        order = [weights.index(Fraction(0)), weights.index(Fraction(-1, 5))]
        got = sm.matrix[np.ix_(order, order)]
        s = 2 / math.sqrt(5)
        expected = np.array(
            [
                [-s * math.sin(2 * math.pi / 5), s * math.sin(4 * math.pi / 5)],
                [s * math.sin(4 * math.pi / 5), s * math.sin(2 * math.pi / 5)],
            ]
        )
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_u_v_swap_symmetry(self):
        # the model is symmetric in (u, v) after swapping the label roles
        for u, v in [(4, 5), (3, 4), (5, 3)]:
            p, q = level_params(u, v), level_params(v, u)
            for a in enumerate_infwts(p):
                for b in enumerate_infwts(p):
                    swapped = lambda lab: RSLabel(lab.s, lab.r)
                    lhs = w3_smatrix_entry(p, a.rep, b.rep)
                    rhs = w3_smatrix_entry(q, swapped(a.rep), swapped(b.rep))
                    assert abs(lhs - rhs) < 1e-9


class TestWeylAntisymmetry:
    def test_finite_weyl_shifted_action(self):
        p = level_params(4, 5)
        orbs = enumerate_infwts(p)
        a, b = orbs[1].rep, orbs[3].rep
        base = w3_smatrix_entry(p, a, b)
        s_proj = (a.s[1], a.s[2])
        for w, det in WEYL:
            img = _mat_apply(w, (s_proj[0] + 1, s_proj[1] + 1))
            s_new_proj = (img[0] - 1, img[1] - 1)
            s_new = (p.v - 3 - s_new_proj[0] - s_new_proj[1], *s_new_proj)
            got = w3_smatrix_entry(p, RSLabel(a.r, s_new), b)
            assert abs(got - det * base) < 1e-9

    def test_affine_reflection(self):
        # w0 acts on the shifted s-projection as (x, y) -> (v - y, v - x)
        p = level_params(4, 5)
        orbs = enumerate_infwts(p)
        a, b = orbs[2].rep, orbs[0].rep
        base = w3_smatrix_entry(p, a, b)
        x, y = a.s[1] + 1, a.s[2] + 1
        img = (p.v - y, p.v - x)
        s_new_proj = (img[0] - 1, img[1] - 1)
        s_new = (p.v - 3 - s_new_proj[0] - s_new_proj[1], *s_new_proj)
        got = w3_smatrix_entry(p, RSLabel(a.r, s_new), b)
        assert abs(got + base) < 1e-9


def sigma_phase_check(params, a, b, tol=1e-9):
    """The scalar reference for `sigma_phase_checks`, on one pair of labels:
    cycling the r- or s-triple of the row label multiplies the entry by a
    pure phase fixed by the column label's twisted charge."""
    v = params.v
    base = w3_smatrix_entry(params, a, b)
    phase = (-1) ** v * cexp(v * jtw_of(params, b))
    r_cycled = RSLabel(sigma(a).r, a.s)
    s_cycled = RSLabel(a.r, sigma(a).s)
    ok_r = abs(w3_smatrix_entry(params, r_cycled, b) - phase * base) <= tol
    ok_s = abs(w3_smatrix_entry(params, s_cycled, b) - base / phase) <= tol
    ok_both = abs(w3_smatrix_entry(params, sigma(a), b) - base) <= tol
    return ok_r and ok_s and ok_both


def loop_sigma_phase_suite(params, tol=1e-9):
    """The w3-sigma-phase suite as a loop of scalar checks over orbit pairs."""
    orbits = enumerate_infwts(params)
    for a in orbits:
        for b in orbits:
            if not sigma_phase_check(params, a.rep, b.rep, tol):
                return False, f"phase identity failed at ({a}, {b})"
    return True, f"{len(orbits) ** 2} pairs"


class TestPhaseIdentities:
    @pytest.mark.parametrize("u,v", LEVELS)
    def test_sigma_phases(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        for a, b in itertools.product(orbs, repeat=2):
            assert sigma_phase_check(p, a.rep, b.rep)

    @pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=str)
    def test_array_checks_equal_the_scalar_loop(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        assert sigma_phase_checks(p).tolist() == [[sigma_phase_check(p, a.rep, b.rep) for b in orbs] for a in orbs]
        assert verify.suite_w3_sigma_phase(p) == (True, f"{len(orbs) ** 2} pairs")

    @pytest.mark.parametrize("u,v,rows", [(5, 4, [3]), (4, 5, [0]), (7, 5, [20, 4, 29]), (6, 5, [11, 17])], ids=str)
    def test_a_wrong_cycle_fails_both_at_the_same_pair(self, monkeypatch, u, v, rows):
        """The cycle of some row representatives taken twice: the array suite
        and the scalar loop both fail, and name the same first pair."""
        p = level_params(u, v)
        wrong = {enumerate_infwts(p)[i].rep for i in rows}
        real = sigma

        def perturbed(label):
            return real(real(label)) if label in wrong else real(label)

        monkeypatch.setattr(w3modular, "sigma", perturbed)
        monkeypatch.setattr(sys.modules[__name__], "sigma", perturbed)
        got = verify.suite_w3_sigma_phase(p)
        assert not got[0]
        assert got == loop_sigma_phase_suite(p)
        assert got[1].startswith(f"phase identity failed at ({enumerate_infwts(p)[min(rows)]}, ")


class TestRatioAndTensorSum:
    def test_zero_row_ratio_is_one(self):
        p = level_params(4, 5)
        orbs = enumerate_infwts(p)
        zero = RSLabel(orbs[0].rep.r, (p.v - 3, 0, 0))
        assert ratio_weyl_character_check(p, zero, orbs[1].rep)

    @pytest.mark.parametrize("u,v", [(5, 3), (4, 5), (5, 4)])
    def test_ratio_on_orbit_pairs(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        count = 0
        for a, b in itertools.product(orbs, repeat=2):
            try:
                assert ratio_weyl_character_check(p, a.rep, b.rep)
                count += 1
            except SingularInputError:
                continue
        assert count > 0

    def test_tensor_sum_trivial_weight(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        assert tensor_sum_check(p, orb.rep, (0, 0), orb.rep)

    @pytest.mark.parametrize("t", [(0, 1), (1, 0), (1, 1), (2, 0)])
    def test_tensor_sum_small_weights(self, t):
        for u, v in [(3, 4), (4, 3), (4, 5), (5, 4)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            assert tensor_sum_check(p, orbs[0].rep, t, orbs[-1].rep)


class TestSymmetricPowerSums:
    def test_v3_reduces_to_one(self):
        # a single m = 0 term on the left forces the closed form to equal 1
        p = level_params(4, 3)
        orb = enumerate_infwts(p)[0]
        assert sum_fund_modules_check(p, orb.rep, Fraction(1, 7))

    def test_3_4_sample_charge(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        assert sum_fund_modules_check(p, orb.rep, Fraction(1, 7))

    def test_singular_charge_rejected(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        from bpfusion.levels import jtw_of

        bad = jtw_of(p, orb.rep) + 2 * p.kappa  # makes one offset integral
        with pytest.raises(SingularInputError):
            sum_fund_modules_check(p, orb.rep, bad)

    @given(st.integers(1, 995), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_randomised_charges(self, num, pick):
        p = level_params(5, 4)
        orbs = enumerate_infwts(p)
        b = orbs[pick % len(orbs)].rep
        try:
            assert sum_fund_modules_check(p, b, Fraction(num, 997))
        except SingularInputError:
            pass

    @given(
        st.floats(0.3, 2.5),
        st.floats(0, 6.28),
        st.floats(0.5, 1.5),
        st.floats(0, 6.28),
        st.integers(3, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncated_generating_function(self, xmod, xarg, rmod, rarg, v):
        rng = random.Random(int(xmod * 1000) + v)
        ns = rng.sample(range(v), 3)
        xs = [rmod * cmath.exp(1j * rarg) * cmath.exp(2j * math.pi * n / v) for n in ns]
        x = xmod * cmath.exp(1j * xarg)
        try:
            assert symmetric_sum_closed_form_check(x, xs, v, tol=1e-7)
        except SingularInputError:
            pass

    def test_h_m_values(self):
        assert abs(complete_symmetric_sum(1.0, [1.0, 2.0, 3.0], 2) - 25) < 1e-12


class TestFusion:
    def test_5_3_yang_lee_rule(self):
        p = level_params(5, 3)
        phi = orbit_of(p, RSLabel((1, 1, 0), (0, 0, 0)))
        vac = vacuum_orbit(p)
        assert w3_fusion(p, phi, phi, phi) == 1
        assert w3_fusion(p, phi, phi, vac) == 1
        assert w3_fusion(p, vac, phi, phi) == 1
        assert w3_fusion(p, vac, phi, vac) == 0

    def test_vacuum_is_identity(self):
        for u, v in [(3, 4), (4, 5)]:
            p = level_params(u, v)
            vac = vacuum_orbit(p)
            for a, b in itertools.product(enumerate_infwts(p), repeat=2):
                assert w3_fusion(p, vac, a, b) == (1 if a == b else 0)

    @pytest.mark.parametrize("u,v", LEVELS)
    def test_verlinde_oracle_agrees(self, u, v):
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        for a, b, c in itertools.product(orbs, repeat=3):
            target = w3_fusion(p, a, b, c)
            numeric = w3_verlinde(p, a, b, c)
            assert abs(numeric - target) < 1e-6

    def test_representative_choice_is_immaterial(self):
        # simultaneous cycling of the inputs and output leaves the
        # coefficient product unchanged, and at levels coprime to 3 the
        # r- and s-side alignments agree
        from bpfusion.sl3 import kac_walton

        for u, v in [(4, 5), (5, 4)]:
            p = level_params(u, v)
            orbs = enumerate_infwts(p)
            rng = random.Random(3)
            for _ in range(10):
                a, b, c = (rng.choice(orbs) for _ in range(3))
                vals = set()
                for i, jx in itertools.product(range(3), repeat=2):
                    ma, mb = a.members[i], b.members[jx]
                    for k in range(3):
                        mc = c.members[k]
                        n = kac_walton(u - 3, ma.r, mb.r, mc.r) * kac_walton(v - 3, ma.s, mb.s, mc.s)
                        if n:
                            vals.add(n)
                got = w3_fusion(p, a, b, c)
                assert vals in ({got}, set())
                if got:
                    assert vals == {got}
