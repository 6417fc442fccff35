"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines and timings.
"""
import itertools
import time
from fractions import Fraction
from math import gcd

import pytest

from fusion_reference import symmetric_sum_closed_form_check
from bpfusion.labels import (
    FormalSum,
    _mod1,
    gap_charges,
    hw_label,
    is_nonsimple_standard,
    nonsimple_standard,
    orbit_type,
    standard_label,
)
from bpfusion.levels import (
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    level_params,
    orbit_of,
)
from bpfusion.sl3 import fusion_table, tensor_decompose
from bpfusion.verlinde import (
    GapDivergenceError,
    fuse_general,
    fuse_standard,
    fuse_type3_standard,
    fuse_type3_type3,
    simple_currents,
    subring_iso_check,
    type3_kernel,
    verlinde_oracle,
)
from bpfusion.verify import SUITES
from bpfusion.w3modular import (
    ratio_weyl_character_check,
    sum_fund_modules_check,
    tensor_sum_check,
    w3_smatrix_entry,
    SingularInputError,
)

SIX_LEVELS = [(4, 3), (5, 3), (3, 4), (4, 5), (5, 4), (3, 5)]


def report(number, name, seconds, budget):
    line = f"criterion {number:2d} [{name}]: PASS in {seconds:.3f}s (budget {budget})"
    print(line)


def lab(r, s):
    return RSLabel(tuple(r), tuple(s))


def test_criterion_01_level_data():
    start = time.perf_counter()
    p43 = level_params(4, 3)
    assert p43.k == Fraction(-5, 3) and p43.c_bp == -1
    assert level_params(5, 3).c_bp == Fraction(3, 5)
    p34 = level_params(3, 4)
    assert p34.k == Fraction(-9, 4) and p34.c_bp == Fraction(-23, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 3 * 0.001  # < 1 ms each
    report(1, "level data", elapsed, "1 ms each")


def test_criterion_02_central_charge_additivity():
    start = time.perf_counter()
    pairs = 0
    for u in range(3, 13):
        for v in range(3, 13):
            if gcd(u, v) != 1:
                continue
            p = level_params(u, v)
            assert p.c_bp == p.c_pi + p.c_w3
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 58 and elapsed < 1.0
    report(2, f"central-charge additivity over {pairs} pairs", elapsed, "1 s")


def test_criterion_03_module_counts():
    start = time.perf_counter()
    for (u, v), n_full, n_orbits in [((4, 3), 9, 1), ((5, 3), 18, 2), ((3, 4), 6, 1)]:
        p = level_params(u, v)
        assert len(enumerate_surv(p)) == n_full
        assert len(enumerate_infwts(p)) == n_orbits
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "module counts", elapsed, "1 s")


def test_criterion_04_level2_fusion():
    start = time.perf_counter()
    # the tensor decomposition feeding the affine computation
    assert tensor_decompose((1, 1), (1, 1)) == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    # boundary constituents die, one adjoint copy cancels (the Kac-Walton
    # fold, kept as the tests' reference for the closed-form table)
    from fusion_reference import fold_alcove

    assert fold_alcove(2, (3, 0)) == (None, 0)
    assert fold_alcove(2, (0, 3)) == (None, 0)
    assert fold_alcove(2, (2, 2)) == ((1, 1), -1)
    assert fusion_table(2, (0, 1, 1), (0, 1, 1)) == {(0, 1, 1): 1, (2, 0, 0): 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, "level-2 boundary cancellation", elapsed, "1 s")


def test_criterion_05_smatrix_properties():
    start = time.perf_counter()
    tol = 1e-9
    for u, v in SIX_LEVELS + [(7, 5)]:
        p = level_params(u, v)
        for name in ("w3-unitarity", "w3-sigma-phase"):
            ok, detail = SUITES[name](p, tol)
            assert ok, f"{name} at ({u},{v}): {detail}"
        row = enumerate_infwts(p)[0].rep
        for s_bad in [(v - 2, -1, 0), (0, -1, v - 2)]:
            assert abs(w3_smatrix_entry(p, lab((u - 3, 0, 0), s_bad), row)) <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "S-matrix properties at seven levels", elapsed, "10 s")


def test_criterion_06_verlinde_equals_factorised_fusion():
    start = time.perf_counter()
    for u, v in SIX_LEVELS + [(7, 5)]:
        p = level_params(u, v)
        ok, detail = SUITES["w3-verlinde"](p, None)
        assert ok and detail == f"{len(enumerate_infwts(p)) ** 3} triples", f"({u},{v}): {detail}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, "numeric Verlinde = factorised fusion", elapsed, "30 s")


def test_criterion_07_identity_suite():
    import cmath
    import math
    import random

    start = time.perf_counter()
    tol = 1e-9
    rng = random.Random(20250809)
    pool = [(4, 3), (5, 3), (3, 4), (4, 5), (5, 4), (3, 5), (7, 4), (5, 7)]
    counts = {"ratio": 0, "tensor": 0, "generating": 0, "closed": 0}
    while min(counts.values()) < 100:
        u, v = rng.choice(pool)
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        a = rng.choice(orbs).members[rng.randrange(3)]
        b = rng.choice(orbs).members[rng.randrange(3)]
        if counts["ratio"] < 100:
            try:
                assert ratio_weyl_character_check(p, a, b, tol)
                counts["ratio"] += 1
            except SingularInputError:
                pass
        if counts["tensor"] < 100:
            t = (rng.randrange(3), rng.randrange(3))
            assert tensor_sum_check(p, a, t, b, tol)
            counts["tensor"] += 1
        if counts["generating"] < 100:
            ns = rng.sample(range(v), 3)
            phase = rng.uniform(0, 2 * math.pi)
            xs = [cmath.exp(1j * phase) * cmath.exp(2j * math.pi * n / v) for n in ns]
            x = rng.uniform(0.3, 1.7) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            try:
                assert symmetric_sum_closed_form_check(x, xs, v, tol=1e-7)
                counts["generating"] += 1
            except SingularInputError:
                pass
        if counts["closed"] < 100:
            jp = Fraction(rng.randrange(1, 997), 997)
            try:
                assert sum_fund_modules_check(p, b, jp, tol)
                counts["closed"] += 1
            except SingularInputError:
                pass
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"identity suite ({counts})", elapsed, "30 s")


def test_criterion_08_standard_fusion_vs_oracle():
    start = time.perf_counter()
    j1, j2 = Fraction(1, 7), Fraction(2, 7)
    for u, v in [(4, 3), (5, 3), (3, 4)]:
        p = level_params(u, v)
        orbs = enumerate_infwts(p)
        shifts = {Fraction(0), -4 * p.kappa, 2 * p.kappa, -2 * p.kappa}
        for oa, ob in itertools.product(orbs, repeat=2):
            a = standard_label(j1, oa, 0)
            b = standard_label(j2, ob, 0)
            closed = fuse_standard(p, a, b)
            assert all(coeff > 0 for _, coeff in closed)
            for ell in range(-4, 5):
                for shift in shifts:
                    for oc in orbs:
                        cand = standard_label(j1 + j2 + shift, oc, ell)
                        if is_nonsimple_standard(p, cand):
                            continue
                        assert verlinde_oracle(p, a, b, cand) == closed.coeff(cand)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "standard fusion = oracle, window [-4,4]", elapsed, "60 s")


def test_criterion_09_golden_rules():
    start = time.perf_counter()

    # four-term standard rule at (3,4)
    p34 = level_params(3, 4)
    o34 = enumerate_infwts(p34)[0]
    j1, j2 = Fraction(1, 7), Fraction(2, 7)
    jj = j1 + j2
    got = fuse_standard(p34, standard_label(j1, o34, 0), standard_label(j2, o34, 0))
    assert got == FormalSum(
        [
            (standard_label(jj + Fraction(1, 2), o34, -1), 1),
            (standard_label(jj, o34, 0), 1),
            (standard_label(jj + Fraction(1, 2), o34, 1), 1),
            (standard_label(jj, o34, 2), 1),
        ]
    )

    # (3,4) highest-weight rules through resolutions
    t1 = hw_label(p34, lab((0, 0, 0), (0, 0, 1)), 0)
    t2 = hw_label(p34, lab((0, 0, 0), (1, -1, 1)), 0)
    t2b = hw_label(p34, lab((0, 0, 0), (1, 0, 0)), 0)
    t3 = lambda ell: hw_label(p34, lab((0, 0, 0), (2, -1, 0)), ell)
    assert fuse_general(p34, t1, t1) == FormalSum([(t1, 2), (t3(-2), 1), (t3(0), 1), (t3(2), 1)])
    assert fuse_general(p34, t2b, t2) == FormalSum([(t1, 1), (t3(0), 1)])
    assert fuse_general(p34, t1, t2) == FormalSum(
        [(t2, 1), (standard_label(Fraction(3, 4), o34, -1), 1)]
    )

    # (4,3): relaxed-by-relaxed and simple-current-by-relaxed
    p43 = level_params(4, 3)
    o43 = enumerate_infwts(p43)[0]
    got = fuse_standard(p43, standard_label(j1, o43, 0), standard_label(j2, o43, 0))
    assert got == FormalSum(
        [
            (standard_label(jj - 4 * p43.kappa, o43, 2), 1),
            (standard_label(jj + 2 * p43.kappa, o43, -1), 1),
        ]
    )
    sc = hw_label(p43, lab((0, 1, 0), (1, -1, 0)), 0)
    assert fuse_type3_standard(p43, sc, standard_label(j2, o43, 0)) == FormalSum.lone(
        standard_label(j2 + Fraction(4, 3), o43, 0)
    )

    # (5,3): highest-weight, highest-weight-by-relaxed, relaxed-by-relaxed
    p53 = level_params(5, 3)
    ovac = orbit_of(p53, lab((2, 0, 0), (0, 0, 0)))
    ophi = orbit_of(p53, lab((1, 1, 0), (0, 0, 0)))
    phi = hw_label(p53, lab((1, 1, 0), (1, -1, 0)), 0)
    assert fuse_type3_type3(p53, phi, phi) == FormalSum(
        [
            (hw_label(p53, lab((0, 2, 0), (1, -1, 0)), 0), 1),
            (hw_label(p53, lab((1, 0, 1), (1, -1, 0)), 0), 1),
        ]
    )
    assert fuse_type3_standard(p53, phi, standard_label(j2, ovac, 0)) == FormalSum.lone(
        standard_label(j2 + Fraction(1, 3), ophi, 0)
    )
    assert fuse_type3_standard(p53, phi, standard_label(j2, ophi, 0)) == FormalSum(
        [
            (standard_label(j2 + Fraction(1, 3), ovac, 0), 1),
            (standard_label(j2 + Fraction(1, 3), ophi, 0), 1),
        ]
    )
    got = fuse_standard(p53, standard_label(j1, ophi, 0), standard_label(j2, ophi, 0))
    assert got == FormalSum(
        [
            (standard_label(jj - 4 * p53.kappa, ovac, 2), 1),
            (standard_label(jj - 4 * p53.kappa, ophi, 2), 1),
            (standard_label(jj + 2 * p53.kappa, ovac, -1), 1),
            (standard_label(jj + 2 * p53.kappa, ophi, -1), 1),
        ]
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, "golden fusion rules", elapsed, "60 s")


def test_criterion_10_simple_currents():
    start = time.perf_counter()
    for u, v in [(4, 3), (5, 3), (4, 5), (5, 4)]:
        p = level_params(u, v)
        currents = simple_currents(p)
        assert len(currents) == 2
        assert {j for _, j, _ in currents} == {Fraction(u - 3, 3), -Fraction(u - 3, 3)}
        assert {d for _, _, d in currents} == {Fraction((u - 3) * (2 * v - 3), 6)}
        vac = hw_label(p, lab((u - 3, 0, 0), (v - 2, -1, 0)), 0)
        for current, _, _ in currents:
            square = fuse_type3_type3(p, current, current)
            ((sq, coeff),) = list(square)
            assert coeff == 1
            assert fuse_type3_type3(p, current, sq) == FormalSum.lone(vac)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, "simple currents with order 3", elapsed, "10 s")


def test_criterion_11_subring_isomorphism():
    start = time.perf_counter()
    for u, v in [(4, 3), (5, 3), (4, 5)]:
        assert subring_iso_check(level_params(u, v))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(11, "type-3 subring = affine fusion ring", elapsed, "30 s")


def test_criterion_12_telescoping():
    start = time.perf_counter()
    for u, v in [(5, 3), (3, 4)]:
        p = level_params(u, v)
        for x in enumerate_surv(p):
            if orbit_type(p, x) != 3:
                continue
            a = hw_label(p, x, 0)
            for orb in enumerate_infwts(p):
                for jp in (Fraction(1, 7), Fraction(5, 8)):
                    b = standard_label(jp, orb, 0)
                    assert fuse_general(p, a, b) == fuse_type3_standard(p, a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(12, "resolution telescoping = closed form", elapsed, "60 s")


def test_criterion_13_gap_structure():
    start = time.perf_counter()
    p43, p34 = level_params(4, 3), level_params(3, 4)
    orb43 = enumerate_infwts(p43)[0]
    orb34 = enumerate_infwts(p34)[0]
    # the quoted charge sets are read in the gradings their sources use:
    # half-integer-flow for (4,3), the integral charges less kappa, and the
    # opposite integral regrading for (3,4), the integral charges less 2 kappa
    assert {_mod1(j - p43.kappa) for j in gap_charges(p43, orb43)} == {Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)}
    assert {_mod1(j - 2 * p34.kappa) for j in gap_charges(p34, orb34)} == {Fraction(0), Fraction(1, 2), Fraction(3, 4)}
    # in the integral-flow grading used by the kernel these same three
    # modules sit at {1/9, 4/9, 7/9} and {0, 1/4, 1/2}
    assert gap_charges(p43, orb43) == {Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)}
    assert gap_charges(p34, orb34) == {Fraction(0), Fraction(1, 4), Fraction(1, 2)}
    for p, orb in [(p43, orb43), (p34, orb34)]:
        vac = hw_label(p, lab((p.u - 3, 0, 0), (p.v - 2, -1, 0)), 0)
        for member in orb.members:
            with pytest.raises(GapDivergenceError):
                type3_kernel(p, vac, nonsimple_standard(p, member, 0))
        for num in range(1, 12):
            probe = standard_label(Fraction(num, 12), orb, 0)
            if probe.j in gap_charges(p, orb):
                continue
            type3_kernel(p, vac, probe)  # no divergence off the gap set
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(13, "gap charges and kernel divergence", elapsed, "1 s")
