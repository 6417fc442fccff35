"""Runnable verification suites over the library invariants.

Each suite takes (params, tol) and returns (passed, detail).  The CLI
`verify` subcommand aggregates them; the pytest suite calls them too.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .labels import (
    HalfInt,
    _mod1,
    gap_charges,
    hw_label,
    is_nonsimple_standard,
    nonsimple_standard,
    orbit_type,
    standard_label,
    vacuum_label,
)
from .levels import (
    LevelParams,
    enumerate_infwts,
    enumerate_surv,
    hw_data,
    orbit_of,
    orbit_table,
    w3_data,
)
from .verlinde import (
    GapDivergenceError,
    VerlindeOracle,
    fuse_standard,
    fuse_type3_standard,
    fuse_general,
    oracle_integers,
    oracle_values,
    simple_candidates,
    simple_currents,
    subring_iso_check,
    type3_kernel,
)
from .w3modular import (
    DEFAULT_TOL,
    INTEGER_TOL,
    _cached_smatrix,
    fusion_factors,
    ratio_weyl_character_check,
    sigma_phase_checks,
    sum_fund_modules_check,
    tensor_sum_check,
    SingularInputError,
)


def _tol(tol):
    return DEFAULT_TOL if tol is None else tol


def suite_levels(params: LevelParams, tol=None):
    ok = params.c_bp == params.c_pi + params.c_w3
    detail = f"c_bp = c_pi + c_w3: {ok}"
    for lab in enumerate_surv(params):
        if lab.s[1] >= 0:
            data = hw_data(params, lab)
            wd = w3_data(params, orbit_of(params, lab))
            if data.delta_tw != wd.delta + 9 * params.kappa / 4:
                return False, f"twisted-weight mismatch at {lab}"
    return ok, detail


def suite_w3_unitarity(params: LevelParams, tol=None):
    tol = _tol(tol)
    smat = _cached_smatrix(params)
    checks = {
        "symmetric": smat.is_symmetric(tol),
        "unitary": smat.is_unitary(tol),
        "square=conjugation": smat.squares_to_conjugation(tol),
    }
    return all(checks.values()), ", ".join(f"{k}: {v}" for k, v in checks.items())


def suite_w3_sigma_phase(params: LevelParams, tol=None):
    """A failure names the first bad orbit pair in row-major order."""
    bad = ~sigma_phase_checks(params, _tol(tol))
    if bad.any():
        orbits = enumerate_infwts(params)
        a, b = divmod(int(np.argmax(bad)), len(orbits))
        return False, f"phase identity failed at ({orbits[a]}, {orbits[b]})"
    return True, f"{bad.size} pairs"


def suite_w3_verlinde(params: LevelParams, tol=None):
    """w3_fusion against the Verlinde sum: for each a, (S * S[a] / S[vac]) @ S^dagger
    against the fusion factors' N_a.  A failure names the first bad (a, b, c)."""
    smat, factors = _cached_smatrix(params), fusion_factors(params)
    s, orbits = smat.matrix, smat.orbits
    for a in range(len(orbits)):
        numeric = (s * (s[a] * smat.vacuum_inverse)) @ s.conj().T
        target = factors.fusion_matrix(a)
        bad = ~(np.abs(numeric - target) <= INTEGER_TOL)  # a NaN fails too
        if bad.any():
            b, c = divmod(int(np.argmax(bad)), len(orbits))
            where, value = (orbits[a], orbits[b], orbits[c]), complex(numeric[b, c])
            return False, f"Verlinde mismatch at ({','.join(map(str, where))}): {value} vs {target[b, c]}"
    return True, f"{len(orbits) ** 3} triples"


def suite_appendix(params: LevelParams, tol=None, samples=30, seed=7):
    tol = _tol(tol)
    rng = random.Random(seed)
    orbits = enumerate_infwts(params)
    done = 0
    for _ in range(samples):
        a = rng.choice(orbits).members[rng.randrange(3)]
        b = rng.choice(orbits).members[rng.randrange(3)]
        try:
            if not ratio_weyl_character_check(params, a, b, tol):
                return False, f"ratio identity failed at ({a},{b})"
        except SingularInputError:
            continue
        t = (rng.randrange(3), rng.randrange(3))
        if not tensor_sum_check(params, a, t, b, tol):
            return False, f"tensor-sum identity failed at ({a},{t},{b})"
        jp = Fraction(rng.randrange(1, 400), 401)
        try:
            if not sum_fund_modules_check(params, b, jp, tol):
                return False, f"symmetric-power sum failed at ({b},{jp})"
        except SingularInputError:
            continue
        done += 1
    return done > 0, f"{done} random draws"


def suite_fusion_oracle(params: LevelParams, tol=None, window=2):
    """The Verlinde oracle against the closed-form standard product on every
    simple candidate (a, b, ell, shift, c): 4 charge shifts, flows -window
    to window + 1, every orbit.

    Every a (and every b) has one charge and flow, so each class's term of
    D's expansion is found once.  For each a, `oracle_values` gives every
    b's candidate values as one (b, class, orbit) array: an entry passes
    when its value is within INTEGER_TOL of the closed-form integer.  A
    failure is the first in (a, b, ell, shift, c) order: an OracleError
    when the value there is no integer, else a mismatch.
    """
    orbits = enumerate_infwts(params)
    n, kappa = len(orbits), params.kappa
    js = [Fraction(1, 7), Fraction(2, 7)]
    classes = [
        (HalfInt.of(ell), _mod1(js[0] + js[1] + shift))
        for ell in range(-window, window + 2)
        for shift in (0, -4 * kappa, 2 * kappa, -2 * kappa)
    ]
    # the flat (class, orbit) positions of the simple candidates, in order
    checked = np.flatnonzero([simple_candidates(params, charge) for _, charge in classes])
    # the class rows each closed-form term lands in, keyed by integers (a Fraction hashes slowly)
    rows_of: dict = {}
    for k, (ell, charge) in enumerate(classes):
        rows_of.setdefault((ell.twice, charge.numerator, charge.denominator), []).append(k)
    position = orbit_table(params).position
    inputs_a, inputs_b = ([standard_label(j, orb, 0) for orb in orbits] for j in js)
    oracle = VerlindeOracle(params, inputs_a[0], inputs_b[0])
    terms = [oracle.term(ell.twice, charge) for ell, charge in classes]
    smat = _cached_smatrix(params)

    def candidate_at(i):
        ell, charge = classes[i // n]
        return standard_label(charge, orbits[i % n], ell)

    for row_a, a in zip(smat.matrix, inputs_a):
        values = oracle_values(smat, smat.vacuum_inverse * row_a * smat.matrix, terms).reshape(n, -1)
        want = np.zeros(values.shape, dtype=np.int64)
        for want_b, b in zip(want, inputs_b):
            for label, coeff in fuse_standard(params, a, b).items():
                for k in rows_of.get((label.ell.twice, label.j.numerator, label.j.denominator), ()):
                    want_b[k * n + position[label.orbit]] += coeff
        bad = ~(np.abs(values[:, checked] - want[:, checked]) <= INTEGER_TOL)  # a NaN fails too
        if bad.any():
            ib, x = divmod(int(np.argmax(bad)), checked.size)
            i, b = int(checked[x]), inputs_b[ib]
            got = oracle_integers(params, a, b, values[ib, i : i + 1], lambda _: candidate_at(i))
            return False, f"oracle mismatch at {candidate_at(i)}: {got[0]} vs {want[ib, i]}"
    return True, f"{n * n * checked.size} coefficients"


def suite_telescoping(params: LevelParams, tol=None):
    jp = Fraction(1, 7)
    count = 0
    for lab in enumerate_surv(params):
        if orbit_type(params, lab) != 3:
            continue
        hw = hw_label(params, lab, 0)
        for orb in enumerate_infwts(params):
            b = standard_label(jp, orb, 0)
            direct = fuse_type3_standard(params, hw, b)
            resolved = fuse_general(params, hw, b)
            if direct != resolved:
                return False, f"telescoping mismatch at ({hw}, {b})"
            count += 1
    return True, f"{count} products"


def suite_simple_currents(params: LevelParams, tol=None):
    if params.u == 3:
        return True, "u = 3: no currents"
    currents = simple_currents(params)
    u, v = params.u, params.v
    expect_delta = Fraction((u - 3) * (2 * v - 3), 6)
    for lab, j, delta in currents:
        if abs(j) != Fraction(u - 3, 3) or delta != expect_delta:
            return False, f"weights of {lab} are ({j}, {delta})"
    return len(currents) == 2, f"{len(currents)} currents, delta = {expect_delta}"


def suite_subring(params: LevelParams, tol=None):
    ok = subring_iso_check(params)
    return ok, "structure constants match" if ok else "structure constants differ"


def suite_gap_structure(params: LevelParams, tol=None):
    for orb in enumerate_infwts(params):
        gaps = gap_charges(params, orb)
        for member in orb.members:
            lab = nonsimple_standard(params, member, 0)
            if lab.j not in gaps:
                return False, f"{lab} missed its own gap set"
            try:
                type3_kernel(params, vacuum_label(params), lab)
                return False, f"kernel failed to diverge at {lab}"
            except GapDivergenceError:
                pass
        probe = Fraction(1, 997)
        simple = standard_label(probe, orb, 0)
        if is_nonsimple_standard(params, simple):
            return False, f"{simple} misclassified"
        type3_kernel(params, vacuum_label(params), simple)
    return True, "divergence exactly on the gap charges"


SUITES = {
    "levels": suite_levels,
    "w3-unitarity": suite_w3_unitarity,
    "w3-sigma-phase": suite_w3_sigma_phase,
    "w3-verlinde": suite_w3_verlinde,
    "appendix": suite_appendix,
    "fusion-oracle": suite_fusion_oracle,
    "telescoping": suite_telescoping,
    "simple-currents": suite_simple_currents,
    "subring-iso": suite_subring,
    "gap-structure": suite_gap_structure,
}
