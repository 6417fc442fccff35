import cmath
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_reference import fold_alcove, fold_fusion_table, peel_tensor
from bpfusion.sl3 import (
    RHO,
    WEYL,
    _mat_apply,
    fusion_table,
    kac_walton,
    rep_dimension,
    sl3_sigma_symmetry_check,
    tensor_coeff,
    tensor_decompose,
    triality,
    weight_multiplicities,
    ip_c,
    weyl_character,
)


def weyl_character_quotient(t, xi) -> complex:
    """Weyl-quotient form of the character; singular where the denominator vanishes."""
    num = sum(d * cmath.exp(ip_c(_mat_apply(m, (t[0] + 1, t[1] + 1)), xi)) for m, d in WEYL)
    den = sum(d * cmath.exp(ip_c(_mat_apply(m, RHO), xi)) for m, d in WEYL)
    return num / den


def weights(level):
    return [(a, b, level - a - b) for a in range(level + 1) for b in range(level + 1 - a)]


class TestWeightMultiplicities:
    def test_adjoint(self):
        wm = weight_multiplicities((1, 1))
        assert sum(wm.values()) == 8
        assert wm[(0, 0)] == 2

    def test_antifundamental(self):
        assert weight_multiplicities((0, 1)) == {(0, 1): 1, (1, -1): 1, (-1, 0): 1}

    def test_symmetric_square(self):
        wm = weight_multiplicities((2, 0))
        assert sum(wm.values()) == 6
        assert set(wm.values()) == {1}

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=36, deadline=None)
    def test_total_is_dimension(self, a, b):
        wm = weight_multiplicities((a, b))
        assert sum(wm.values()) == rep_dimension((a, b))

    def test_weyl_invariance(self):
        wm = weight_multiplicities((3, 1))
        for mu, m in wm.items():
            for w, _ in WEYL:
                assert wm[_mat_apply(w, mu)] == m

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weight_multiplicities((-1, 2))


class TestWeylCharacter:
    def test_trivial(self):
        assert abs(weyl_character((0, 0), (0.3 + 1j, -2.0)) - 1) < 1e-12

    def test_dimension_at_origin(self):
        assert abs(weyl_character((0, 1), (0, 0)) - 3) < 1e-12
        assert abs(weyl_character((2, 3), (0, 0)) - rep_dimension((2, 3))) < 1e-9

    def test_matches_quotient_form(self):
        xi = (0.37 + 0.91j, -0.44 + 0.23j)
        for t in [(1, 0), (0, 2), (1, 1), (3, 2)]:
            assert abs(weyl_character(t, xi) - weyl_character_quotient(t, xi)) < 1e-9

    def test_symmetric_powers_are_complete_homogeneous(self):
        # chi form_m(0,m) equals h_m of the three antifundamental exponentials
        xi = (0.21 - 0.52j, 0.77 + 0.31j)
        xs = [cmath.exp(ip_c(mu, xi)) for mu in [(0, 1), (1, -1), (-1, 0)]]
        for m in range(5):
            hm = sum(
                xs[0] ** p * xs[1] ** q * xs[2] ** (m - p - q)
                for p in range(m + 1)
                for q in range(m + 1 - p)
            )
            assert abs(weyl_character((0, m), xi) - hm) < 1e-9


class TestTensor:
    def test_adjoint_square(self):
        assert tensor_decompose((1, 1), (1, 1)) == {
            (2, 2): 1,
            (3, 0): 1,
            (0, 3): 1,
            (1, 1): 2,
            (0, 0): 1,
        }

    def test_unit(self):
        for t in [(0, 0), (2, 1), (0, 3)]:
            assert tensor_decompose((0, 0), t) == {t: 1}

    def test_fund_antifund(self):
        assert tensor_decompose((1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=30, deadline=None)
    def test_dimension_count(self, t, tp):
        dec = tensor_decompose(t, tp)
        assert sum(n * rep_dimension(mu) for mu, n in dec.items()) == rep_dimension(t) * rep_dimension(tp)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            tensor_decompose((-1, 2), (0, 0))

    def test_coeff_accessor(self):
        assert tensor_coeff((1, 1), (1, 1), (1, 1)) == 2
        assert tensor_coeff((1, 1), (1, 1), (2, 0)) == 0


class TestKacWalton:
    def test_yang_lee_level_2(self):
        table = fusion_table(2, (0, 1, 1), (0, 1, 1))
        assert table == {(0, 1, 1): 1, (2, 0, 0): 1}

    def test_boundary_weights_are_killed(self):
        # the [3,0] and [0,3] constituents sit on a wall at level 2
        assert fold_alcove(2, (3, 0)) == (None, 0)
        assert fold_alcove(2, (0, 3)) == (None, 0)
        # and [2,2] reflects onto [1,1] with a sign
        assert fold_alcove(2, (2, 2)) == ((1, 1), -1)

    def test_vacuum_is_identity(self):
        for level in (1, 2, 3):
            vac = (level, 0, 0)
            for t in weights(level):
                assert fusion_table(level, vac, t) == {t: 1}

    def test_symmetric_in_inputs(self):
        for level in (2, 3):
            for t, tp in itertools.combinations(weights(level), 2):
                assert fusion_table(level, t, tp) == fusion_table(level, tp, t)

    def test_conjugation_symmetry(self):
        conj = lambda t: (t[0], t[2], t[1])
        level = 3
        for t, tp, tpp in itertools.product(weights(level), repeat=3):
            assert kac_walton(level, t, tp, tpp) == kac_walton(level, t, conj(tpp), conj(tp))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_associativity(self, level):
        ws = weights(level)
        for a, b, c, d in itertools.product(ws, repeat=4):
            lhs = sum(kac_walton(level, a, b, x) * kac_walton(level, x, c, d) for x in ws)
            rhs = sum(kac_walton(level, b, c, y) * kac_walton(level, a, y, d) for y in ws)
            assert lhs == rhs

    def test_level_1_is_cyclic_group_ring(self):
        ws = weights(1)
        for t, tp in itertools.product(ws, repeat=2):
            table = fusion_table(1, t, tp)
            assert list(table.values()) == [1]
            (out,) = table
            assert triality((out[1], out[2])) == (triality((t[1], t[2])) + triality((tp[1], tp[2]))) % 3

    def test_reduces_to_tensor_at_large_level(self):
        t, tp = (2, 1), (1, 2)
        level = sum(t) + sum(tp) + 1
        table = fusion_table(level, (level - sum(t), *t), (level - sum(tp), *tp))
        expected = {(level - sum(mu), *mu): n for mu, n in tensor_decompose(t, tp).items()}
        assert table == expected

    def test_cycle_symmetry_exhaustive(self):
        for level in (1, 2):
            for t, tp, tpp in itertools.product(weights(level), repeat=3):
                assert sl3_sigma_symmetry_check(level, t, tp, tpp)

    def test_cycle_symmetry_includes_vacuum(self):
        assert sl3_sigma_symmetry_check(2, (2, 0, 0), (0, 1, 1), (0, 1, 1))

    def test_rejects_non_integrable(self):
        with pytest.raises(ValueError):
            kac_walton(2, (3, 0, 0), (0, 1, 1), (0, 1, 1))
        with pytest.raises(ValueError):
            kac_walton(2, (0, 1, 1), (0, 1, 1), (-1, 2, 1))


class TestClosedFormAgainstKacWalton:
    """The closed-form coupling against the algorithms it replaced: the
    character-ring peel and the Kac-Walton alcove fold."""

    @pytest.mark.parametrize("level", range(7))
    def test_fusion_table_on_every_pair(self, level):
        ws = weights(level)
        for t, tp in itertools.product(ws, repeat=2):
            assert fusion_table(level, t, tp) == fold_fusion_table(level, t, tp), (t, tp)

    @pytest.mark.parametrize("level", [7, 8])
    def test_fusion_table_on_a_seeded_sample(self, level):
        rng = random.Random(level)
        ws = weights(level)
        for _ in range(120):
            t, tp = rng.choice(ws), rng.choice(ws)
            assert fusion_table(level, t, tp) == fold_fusion_table(level, t, tp), (t, tp)

    def test_tensor_decompose_on_every_pair_up_to_5(self):
        labels = list(itertools.product(range(6), repeat=2))
        for t, tp in itertools.product(labels, repeat=2):
            assert tensor_decompose(t, tp) == peel_tensor(t, tp), (t, tp)


@pytest.mark.parametrize(
    "table",
    [
        lambda: weight_multiplicities((1, 1)),
        lambda: tensor_decompose((1, 0), (0, 1)),
        lambda: fusion_table(2, (0, 1, 1), (0, 1, 1)),
    ],
    ids=["weight_multiplicities", "tensor_decompose", "fusion_table"],
)
def test_memoised_tables_are_read_only(table):
    shared = table()
    before = dict(shared)
    with pytest.raises(TypeError):
        shared[(0, 0)] = 99
    with pytest.raises(TypeError):
        del shared[next(iter(before))]
    assert table() is shared and table() == before
