import math
import re
from fractions import Fraction
from math import gcd

import pytest
from fusion_reference import standard_to_twisted, twisted_to_standard
from bpfusion.labels import (
    FormalSum,
    HalfInt,
    HWLabel,
    StandardLabel,
    _mod1,
    atypical_ses,
    conjugate_hw,
    gap_charges,
    gap_decomposition,
    gap_member,
    gap_table,
    hw_flow_maps,
    hw_label,
    is_nonsimple_standard,
    nonsimple_standard,
    orbit_type,
    parse_hw,
    parse_label,
    parse_standard,
    resolution,
    rewrite_gap_standard,
    spectral_flow,
    vacuum_label,
    standard_label,
)
from bpfusion.levels import (
    LabelError,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    hw_data,
    in_infwts,
    in_surv,
    jtw_of,
    level_params,
    orbit_of,
    sigma,
    sigma_inv,
)


def lab(r, s):
    return RSLabel(tuple(r), tuple(s))


# Flow and conjugation maps that the library never calls, kept with their tests.


class ConjugateNotHighestWeightError(LabelError):
    """The conjugated module has an infinite-dimensional top space."""


def flow_weight_shift(params, j, delta, m) -> tuple[Fraction, Fraction]:
    """Charge and conformal weight of the flow image of a weight vector."""
    m = HalfInt.of(m).as_fraction()
    j = Fraction(j)
    return j + 2 * m * params.kappa, Fraction(delta) + m * j + m * m * params.kappa


def conjugate_twisted_hw(params, label: HWLabel) -> HWLabel:
    """Conjugate of a twisted highest-weight module, as a twisted label.

    Only defined when the module's top space is finite-dimensional;
    otherwise the conjugate is no highest-weight module and a typed
    error is raised.
    """
    if label.ell.is_integer:
        raise LabelError(f"{label} is untwisted; use conjugate_hw")
    steps = label.ell - HalfInt.of(Fraction(1, 2))
    if not (0 <= steps.twice // 2 <= orbit_type(params, label.lam) - 1):
        raise LabelError(f"{label} is not a twisted highest-weight module")
    nu = label.lam
    for _ in range(steps.twice // 2):
        flows = [img for m, img in hw_flow_maps(params, nu) if m == HalfInt.of(1)]
        nu = flows[0]
    if nu.s[1] != -1:
        raise ConjugateNotHighestWeightError(
            f"the top space of the twisted module over {nu} is infinite-dimensional"
        )
    r, s = nu.r, nu.s
    image = RSLabel((r[2], r[1], r[0]), (s[2], -1, s[0]))
    return hw_label(params, image, Fraction(1, 2))


def twisted_gap_charges(params, orbit) -> set[Fraction]:
    """The gap charges in the half-integer-flow grading: the integral ones less kappa."""
    return {_mod1(j - params.kappa) for j in gap_charges(params, orbit)}


def conjugate_gap_charges(params, orbit) -> set[Fraction]:
    """The gap charges in the opposite integral regrading: the integral ones less 2 kappa."""
    return {_mod1(j - 2 * params.kappa) for j in gap_charges(params, orbit)}


SMALL_LEVELS = [(u, v) for u in range(3, 8) for v in range(3, 6) if gcd(u, v) == 1]


class TestHalfInt:
    def test_arithmetic(self):
        h = HalfInt.of(Fraction(3, 2))
        assert h + 1 == HalfInt.of(Fraction(5, 2))
        assert (h - h).twice == 0
        assert str(h) == "3/2" and str(HalfInt.of(2)) == "2"
        assert not h.is_integer and HalfInt.of(-4).is_integer

    def test_rejects_thirds(self):
        with pytest.raises(LabelError):
            HalfInt.of(Fraction(1, 3))

    @pytest.mark.parametrize("x", [0.5, 1.0, -0.0, 1e300])
    def test_rejects_float_flows(self, x):
        """A float is binary, so no exact flow, even where its value is a half-integer."""
        p = level_params(4, 3)
        lam, orb = enumerate_surv(p)[0], enumerate_infwts(p)[0]
        takes = [
            HalfInt.of,
            lambda m: spectral_flow(p, hw_label(p, lam, 0), m),
            lambda m: standard_label(Fraction(1, 7), orb, m),
            lambda m: hw_label(p, lam, m),
        ]
        for take in takes:
            with pytest.raises(LabelError, match=re.escape(f"flow {x!r} is a float")):
                take(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, None, b"1", 1j])
    def test_rejects_non_finite_floats_and_non_numbers(self, x):
        p = level_params(4, 3)
        with pytest.raises(LabelError):
            HalfInt.of(x)
        with pytest.raises(LabelError):
            spectral_flow(p, hw_label(p, enumerate_surv(p)[0], 0), x)


class TestNormalForm:
    def test_leftmost_is_fixed(self):
        p = level_params(3, 4)
        left = lab((0, 0, 0), (0, -1, 2))
        assert hw_label(p, left, 0) == HWLabel(HalfInt.of(0), left)

    def test_vacuum_normalises(self):
        p = level_params(5, 4)
        got = hw_label(p, lab((2, 0, 0), (2, -1, 0)), 0)
        assert got == HWLabel(HalfInt.of(1), lab((0, 0, 2), (0, -1, 2)))

    def test_every_label_reaches_unique_form(self):
        for u, v in SMALL_LEVELS:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                norm = hw_label(p, x, 0)
                assert norm.lam.s[2] != 0
                assert in_surv(p, norm.lam)

    def test_flow_maps_round_trip(self):
        for u, v in [(4, 3), (3, 4), (4, 5), (5, 4)]:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                for m, image in hw_flow_maps(p, x):
                    assert in_surv(p, image)
                    assert spectral_flow(p, hw_label(p, x, 0), m) == hw_label(p, image, 0)

    def test_literal_flow_images(self):
        p = level_params(3, 4)
        # one unit of flow on an s1 = -1 label
        maps = dict(hw_flow_maps(p, lab((0, 0, 0), (0, -1, 2))))
        assert maps[HalfInt.of(1)] == lab((0, 0, 0), (2, -1, 0))
        assert maps[HalfInt.of(2)] == lab((0, 0, 0), (0, 1, 0))
        # one unit back on an s2 = 0 label
        maps = dict(hw_flow_maps(p, lab((0, 0, 0), (1, 0, 0))))
        assert maps[HalfInt.of(-1)] == lab((0, 0, 0), (1, -1, 1))
        # two units back off the rightmost label of a full orbit
        maps = dict(hw_flow_maps(p, lab((0, 0, 0), (0, 1, 0))))
        assert maps[HalfInt.of(-2)] == lab((0, 0, 0), (0, -1, 2))

    def test_never_highest_weight_beyond_two_units(self):
        for u, v in [(4, 3), (3, 4), (5, 4)]:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                assert all(abs(m.twice) <= 4 for m, _ in hw_flow_maps(p, x))


class TestOrbitTypes:
    def test_vacuum_is_type_3(self):
        for u, v in SMALL_LEVELS:
            p = level_params(u, v)
            assert orbit_type(p, lab((u - 3, 0, 0), (v - 2, -1, 0))) == 3

    def test_vacuum_label_is_the_type_3_vacuum(self):
        for u, v in SMALL_LEVELS:
            p = level_params(u, v)
            vac = vacuum_label(p)
            assert vac == hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
            assert orbit_type(p, vac.lam) == 3

    def test_v3_all_type_3(self):
        for u in (4, 5, 7):
            p = level_params(u, 3)
            assert all(orbit_type(p, x) == 3 for x in enumerate_surv(p))

    def test_3_4_types(self):
        p = level_params(3, 4)
        assert orbit_type(p, lab((0, 0, 0), (1, -1, 1))) == 2
        assert orbit_type(p, lab((0, 0, 0), (0, 0, 1))) == 1
        assert orbit_type(p, lab((0, 0, 0), (0, 1, 0))) == 3

    def test_orbit_population_matches_type(self):
        # a type-n flow orbit carries exactly n untwisted highest-weight labels
        for u, v in SMALL_LEVELS:
            p = level_params(u, v)
            census = {}
            for x in enumerate_surv(p):
                census.setdefault(hw_label(p, x, 0).lam, []).append(x)
            for left, members in census.items():
                assert len(members) == orbit_type(p, left)


class TestSpectralFlow:
    def test_zero_flow_is_identity(self):
        p = level_params(4, 3)
        x = hw_label(p, lab((0, 1, 0), (1, -1, 0)), 0)
        assert spectral_flow(p, x, 0) == x

    def test_weight_bookkeeping(self):
        p = level_params(4, 3)
        j2, d2 = flow_weight_shift(p, Fraction(1, 3), Fraction(1, 2), 1)
        assert j2 == Fraction(1, 3) + 2 * p.kappa
        assert d2 == Fraction(1, 2) + Fraction(1, 3) + p.kappa

    def test_half_flow_reaches_twisted_weights(self):
        # one half unit of flow sends (j, delta) to the twisted top weight
        for u, v in [(4, 3), (3, 4), (5, 4)]:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                d = hw_data(p, x)
                j_tw, delta_tw = flow_weight_shift(p, d.j, d.delta, Fraction(1, 2))
                assert (j_tw, delta_tw) == (d.j_tw, d.delta_tw)

    def test_4_3_orbit_chain(self):
        p = level_params(4, 3)
        start = hw_label(p, lab((1, 0, 0), (0, -1, 1)), 0)
        middle = hw_label(p, lab((0, 1, 0), (1, -1, 0)), 0)
        end = hw_label(p, lab((0, 0, 1), (0, 0, 0)), 0)
        assert spectral_flow(p, start, 1) == middle
        assert spectral_flow(p, middle, 1) == end


class TestConjugation:
    def test_vacuum_self_conjugate(self):
        for u, v in [(4, 3), (3, 4), (5, 4)]:
            p = level_params(u, v)
            vac = hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
            assert conjugate_hw(p, vac) == vac

    def test_4_3_example(self):
        p = level_params(4, 3)
        got = conjugate_hw(p, hw_label(p, lab((0, 1, 0), (1, -1, 0)), 0))
        assert got == hw_label(p, lab((0, 0, 1), (1, -1, 0)), 0)

    def test_involution(self):
        for u, v in [(4, 3), (3, 4), (4, 5)]:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                h = hw_label(p, x, 0)
                assert conjugate_hw(p, conjugate_hw(p, h)) == h

    def test_twisted_formula(self):
        p = level_params(3, 4)
        h = hw_label(p, lab((0, 0, 0), (0, -1, 2)), Fraction(1, 2))
        got = conjugate_twisted_hw(p, h)
        assert got == hw_label(p, lab((0, 0, 0), (2, -1, 0)), Fraction(1, 2))

    def test_twisted_infinite_top_rejected(self):
        p = level_params(3, 4)
        h = hw_label(p, lab((0, 0, 0), (0, 0, 1)), Fraction(1, 2))
        with pytest.raises(ConjugateNotHighestWeightError):
            conjugate_twisted_hw(p, h)


class TestGapStructure:
    def test_gap_decomposition_shape(self):
        p = level_params(3, 4)
        ses = gap_decomposition(p, lab((0, 0, 0), (1, 0, 0)))
        assert ses.middle == nonsimple_standard(p, lab((0, 0, 0), (1, 0, 0)), 0)
        assert ses.sub == hw_label(p, lab((0, 0, 0), (1, 0, 0)), Fraction(1, 2))

    def test_gap_decomposition_enumerates_4_3(self):
        p = level_params(4, 3)
        for orb in enumerate_infwts(p):
            for member in orb.members:
                ses = gap_decomposition(p, member)
                assert not ses.sub.ell.is_integer and not ses.conjugated_of.ell.is_integer

    def test_gap_charge_sets(self):
        p43, p34 = level_params(4, 3), level_params(3, 4)
        orb43 = enumerate_infwts(p43)[0]
        orb34 = enumerate_infwts(p34)[0]
        third = Fraction(1, 3)
        assert twisted_gap_charges(p43, orb43) == {Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)}
        assert gap_charges(p34, orb34) == {Fraction(0), Fraction(1, 4), Fraction(1, 2)}
        assert twisted_gap_charges(p34, orb34) == {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
        assert conjugate_gap_charges(p34, orb34) == {Fraction(0), Fraction(1, 2), Fraction(3, 4)}
        assert gap_charges(p43, orb43) == {x - Fraction(1, 18) for x in twisted_gap_charges(p43, orb43)}

    def test_nonsimple_detection(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        assert is_nonsimple_standard(p, standard_label(Fraction(1, 4), orb, 0))
        assert not is_nonsimple_standard(p, standard_label(Fraction(3, 4), orb, 0))
        assert gap_member(p, standard_label(Fraction(1, 4), orb, 0)) == lab((0, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("u,v", SMALL_LEVELS)
    def test_gap_member_reads_the_per_level_table(self, u, v):
        p = level_params(u, v)
        table = gap_table(p)
        assert table is gap_table(level_params(u, v))
        with pytest.raises(TypeError):
            table[enumerate_infwts(p)[0]] = ()
        for orb in enumerate_infwts(p):
            charges = [_mod1(jtw_of(p, m) + p.kappa) for m in orb.members]
            assert table[orb] == tuple(zip(orb.members, charges))
            for member, charge in zip(orb.members, charges):
                assert gap_member(p, standard_label(charge, orb, 0)) == member
            assert gap_member(p, standard_label(Fraction(1, 997), orb, 0)) is None

    @pytest.mark.parametrize("u,v", SMALL_LEVELS)
    def test_nonsimple_standard_reads_the_gap_table(self, u, v):
        p = level_params(u, v)
        for member in enumerate_surv(p):
            if not in_infwts(p, member):
                with pytest.raises(LabelError, match=re.escape(f"{member} is not an interior label")):
                    nonsimple_standard(p, member, 0)
                continue
            got = nonsimple_standard(p, member, Fraction(3, 2))
            assert got == standard_label(jtw_of(p, member) + p.kappa, orbit_of(p, member), Fraction(3, 2))
            assert gap_member(p, got) == member

    @pytest.mark.parametrize("charge", [0.1, "x", 0.5, None])
    def test_standard_label_rejects_an_inexact_charge(self, charge):
        orb = enumerate_infwts(level_params(3, 4))[0]
        with pytest.raises(LabelError, match=re.escape(f"charge {charge!r} is not an exact rational")):
            standard_label(charge, orb, 0)

    def test_standard_label_takes_exact_charges(self):
        orb = enumerate_infwts(level_params(3, 4))[0]
        assert standard_label("8/7", orb, 0).j == Fraction(1, 7) == standard_label(Fraction(-6, 7), orb).j
        assert standard_label(3, orb).j == 0

    def test_gap_member_rejects_a_foreign_orbit(self):
        foreign = enumerate_infwts(level_params(5, 4))[1]
        with pytest.raises(LabelError):
            gap_member(level_params(4, 5), standard_label(Fraction(1, 7), foreign, 0))

    def test_rewrite_gap_standard(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        out = rewrite_gap_standard(p, standard_label(Fraction(1, 2), orb, 0))
        expected = FormalSum(
            [
                (hw_label(p, lab((0, 0, 0), (0, -1, 2)), 0), 1),
                (hw_label(p, lab((0, 0, 0), (0, 0, 1)), 1), 1),
            ]
        )
        assert out == expected

    def test_conversions_round_trip(self):
        p = level_params(5, 3)
        orb = enumerate_infwts(p)[0]
        x = standard_label(Fraction(2, 7), orb, 3)
        ell, j, o = standard_to_twisted(p, x)
        assert twisted_to_standard(p, ell, j, o) == x
        assert ell == HalfInt.of(Fraction(7, 2)) and j == Fraction(2, 7) - p.kappa + (0 if Fraction(2,7) >= p.kappa else 1)


class TestAtypicalSES:
    def test_v3_instance(self):
        p = level_params(4, 3)
        ses = atypical_ses(p, lab((1, 0, 0), (0, -1, 1)))
        assert ses.middle == nonsimple_standard(p, lab((1, 0, 0), (0, 0, 0)), 0)
        assert ses.sub == hw_label(p, lab((1, 0, 0), (0, 0, 0)), 1)
        assert ses.quotient == hw_label(p, lab((1, 0, 0), (0, -1, 1)), 0)

    def test_closure_and_type_table(self):
        for u, v in SMALL_LEVELS:
            p = level_params(u, v)
            for x in enumerate_surv(p):
                left = hw_label(p, x, 0).lam
                ses = atypical_ses(p, left)
                inner = lab(left.r, (left.s[0], left.s[1] + 1, left.s[2] - 1))
                assert in_infwts(p, inner)
                assert orbit_type(p, inner) == ses.sub_orbit_type

    def test_submodule_type_3_condition(self):
        p = level_params(4, 5)
        left = lab((1, 0, 0), (0, 1, 1))  # s = [0, v-4, 1]
        assert atypical_ses(p, left).sub_orbit_type == 3

    def test_requires_leftmost(self):
        p = level_params(3, 4)
        with pytest.raises(LabelError):
            atypical_ses(p, lab((0, 0, 0), (1, 0, 0)))


class TestResolutions:
    def test_3_4_type1_pattern(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        res = resolution(p, lab((0, 0, 0), (0, 0, 1)), 12)
        expected = FormalSum(
            [(standard_label(Fraction(0), orb, 0), 1)]
            + [(standard_label(Fraction(1, 2), orb, f), -1) for f in (3, 7, 11)]
            + [(standard_label(Fraction(0), orb, f), 1) for f in (4, 8, 12)]
        )
        assert res == expected

    def test_3_4_type2_pattern(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        res = resolution(p, lab((0, 0, 0), (1, -1, 1)), 8)
        expected = FormalSum(
            [(standard_label(Fraction(1, 4), orb, 2 * n), (-1) ** n) for n in range(5)]
        )
        assert res == expected

    def test_v3_middle_pattern_with_cycling(self):
        # flows 9n + {1, 4, 7}, signs alternating blockwise, r cycled backwards/fixed/forwards
        p = level_params(5, 3)
        r = lab((1, 1, 0), (1, -1, 0))
        res = resolution(p, r, 19)
        expected_terms = []
        for n in range(3):
            sgn = (-1) ** n
            for offset, rs in ((1, sigma_inv(r).r), (4, r.r), (7, sigma(r).r)):
                flow = 9 * n + offset
                if flow <= 19:
                    expected_terms.append(
                        (nonsimple_standard(p, lab(rs, (0, 0, 0)), flow), sgn if offset != 4 else -sgn)
                    )
        assert res == FormalSum(expected_terms)

    def test_general_v_block_structure(self):
        # leftmost type-3 at v = 5: one finite block then blocks of length v-2
        p = level_params(4, 5)
        res = resolution(p, lab((1, 0, 0), (0, -1, 3)), 12)
        flows = sorted(term.ell.twice // 2 for term, _ in res)
        assert flows == [0, 1, 2, 5, 6, 7, 10, 11, 12]
        first_block = [term for term, _ in res if term.ell.twice == 0]
        assert first_block[0].orbit == orbit_of(p, lab((1, 0, 0), (0, 0, 2)))

    def test_resolution_accepts_flowed_labels(self):
        p = level_params(3, 4)
        base = resolution(p, lab((0, 0, 0), (0, 0, 1)), 8)
        flowed = resolution(p, hw_label(p, lab((0, 0, 0), (0, 0, 1)), 2), 8)
        assert flowed == base.shifted(p, 2)

    def test_nonsimple_terms_only(self):
        for u, v in [(4, 3), (3, 4), (4, 5)]:
            p = level_params(u, v)
            for x in enumerate_surv(p)[:4]:
                res = resolution(p, hw_label(p, x, 0), 3 * v)
                assert all(is_nonsimple_standard(p, t) for t, _ in res)
                assert all(c in (-1, 1) for _, c in res)


class TestFormalSum:
    def test_algebra(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        a = standard_label(Fraction(1, 7), orb, 0)
        b = standard_label(Fraction(2, 7), orb, 1)
        fs = FormalSum([(a, 2), (b, -1)])
        assert (fs + fs).coeff(a) == 4
        assert (fs - fs) == FormalSum()
        assert not (fs - fs)
        assert 3 * fs == FormalSum([(a, 6), (b, -3)])

    def test_zero_terms_dropped(self):
        p = level_params(3, 4)
        orb = enumerate_infwts(p)[0]
        a = standard_label(Fraction(1, 7), orb, 0)
        fs = FormalSum([(a, 1), (a, -1)])
        assert len(fs) == 0

    def test_json_round_trip_labels(self):
        p = level_params(5, 3)
        orb = enumerate_infwts(p)[0]
        fs = FormalSum(
            [
                (standard_label(Fraction(5, 6), orb, -2), 3),
                (hw_label(p, lab((1, 1, 0), (1, -1, 0)), 0), -1),
            ]
        )
        for entry in fs.to_json():
            parsed = parse_label(p, entry["label"])
            assert fs.coeff(parsed) == entry["coeff"]


class TestParsing:
    def test_hw_round_trip(self):
        p = level_params(4, 3)
        for x in enumerate_surv(p):
            for ell in (0, 1, Fraction(-3, 2)):
                h = hw_label(p, x, ell)
                assert parse_hw(p, str(h)) == h

    def test_standard_round_trip(self):
        p = level_params(5, 3)
        for orb in enumerate_infwts(p):
            s = standard_label(Fraction(3, 7), orb, Fraction(5, 2))
            assert parse_standard(p, str(s)) == s

    def test_parse_label_dispatch(self):
        p = level_params(3, 4)
        assert isinstance(parse_label(p, "[0,0,0;1,0,0]"), RSLabel)
        assert isinstance(parse_label(p, "[[0,0,0;1,0,0]]"), type(enumerate_infwts(p)[0]))
        assert isinstance(parse_label(p, "I[0,0,0;0,0,1]^0"), HWLabel)
        assert isinstance(parse_label(p, "R~[1/7;[[0,0,0;1,0,0]]]^0"), StandardLabel)

    @pytest.mark.parametrize("text", [None, b"x", b"I[0,0,0;0,0,1]^0"])
    def test_a_label_that_is_not_text_raises(self, text):
        with pytest.raises(LabelError):
            parse_label(level_params(3, 4), text)

    def test_malformed_inputs(self):
        p = level_params(3, 4)
        for bad in ["", "[1,2;3]", "I[0,0,0;0,0,1]^x", "R~[;[[0,0,0;1,0,0]]]", "[9,9,9;0,0,0]"]:
            with pytest.raises((LabelError, ValueError)):
                parse_label(p, bad)
