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
    STANDARD_CLASSES,
    GapDivergenceError,
    _shift_targets,
    fuse_type3_standard,
    fuse_general,
    oracle_integers,
    oracle_term,
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


# the appendix suite's random draws: how many, and the seed they come from
APPENDIX_SAMPLES, APPENDIX_SEED = 30, 7


def suite_appendix(params: LevelParams, tol=None):
    tol = _tol(tol)
    rng = random.Random(APPENDIX_SEED)
    orbits = enumerate_infwts(params)
    done = 0
    for _ in range(APPENDIX_SAMPLES):
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


# the size of a complex array one block of the fusion-oracle suite makes, in
# bytes (or one a's, if larger); about twelve such arrays are live at once
ORACLE_BLOCK_BYTES = 2**20
# the fusion-oracle suite's candidates take flows -ORACLE_WINDOW to ORACLE_WINDOW + 1
ORACLE_WINDOW = 2


def suite_fusion_oracle(params: LevelParams, tol=None):
    """The Verlinde oracle against the closed-form standard product on every
    simple candidate (a, b, ell, shift, c): 4 charge shifts, flows
    -ORACLE_WINDOW to ORACLE_WINDOW + 1, every orbit.

    a and b have charges 1/7 and 2/7 at flow 0, so each class has one term
    of D's expansion and the same closed-form terms (STANDARD_CLASSES) for
    every pair.  The closed form is gathered from the fusion factors: N_a,
    and N_a at b's omega-shifted orbits (`_shift_targets`) summed per
    direction.  A failure is the first in (a, b, ell, shift, c) order: an
    OracleError when the value there is no integer, else a mismatch.
    """
    table, smat, factors = orbit_table(params), _cached_smatrix(params), fusion_factors(params)
    orbits, n, kappa = table.orbits, len(table.orbits), params.kappa
    ja, jb = Fraction(1, 7), Fraction(2, 7)
    charges = [_mod1(ja + jb + shift) for shift in (0, -4 * kappa, 2 * kappa, -2 * kappa)]
    masks = [simple_candidates(params, charge) for charge in charges]
    # a class is (twice its flow, the first index of its charge), so equal classes
    # are equal keys; the closed-form terms' flows differ, so at most one lands in each
    lands = {}
    for i, (step, mult) in enumerate(STANDARD_CLASSES):
        lands[2 * step, charges.index(_mod1(ja + jb + mult * kappa))] = i
    keys, count = [], 0  # per class, in order: (term, closed-form term or None, charge index)
    for twice in range(-2 * ORACLE_WINDOW, 2 * ORACLE_WINDOW + 4, 2):
        for charge in charges:
            c = charges.index(charge)
            # standard inputs at flow 0: charge offset ja + jb, 2K = 1, D to the first power
            keys.append((oracle_term(kappa, ja + jb, 1, 1, twice, charge), lands.get((twice, c)), c))
            count += int(masks[c].sum())
    checks = [key for key in dict.fromkeys(keys) if key[0] is not None or key[1] is not None]
    targets, r, s = _shift_targets(params), factors.r_index, factors.s_index
    rows = smat.vacuum_inverse * smat.matrix
    step = max(1, ORACLE_BLOCK_BYTES // (16 * n * n))
    for a0 in range(0, n, step):
        block = slice(a0, a0 + step)
        values = oracle_values(smat, rows[block, None] * smat.matrix, [term for term, _, _ in checks])
        plain = factors.n_r[np.ix_(r[block], r, r)] * factors.n_s[np.ix_(s[block], s, s)]
        padded = np.concatenate((plain, np.zeros_like(plain[:, :1])), axis=1)  # a target -1 reads zeros
        parts = (plain, plain, padded[:, targets[:, :3]].sum(axis=2), padded[:, targets[:, 3:]].sum(axis=2))
        bad = {}
        for term, land, c in checks:
            want = 0 if land is None else parts[land]
            bad[term, land, c] = ~(np.abs(values[term] - want) <= INTEGER_TOL) & masks[c]  # a NaN fails too
        hit = np.array(list(bad.values())).any(axis=(0, 3))
        if hit.any():
            ia, ib = divmod(int(np.argmax(hit)), n)
            k = next(k for k, key in enumerate(keys) if key in bad and bad[key][ia, ib].any())
            (term, land, c), ic = keys[k], int(np.argmax(bad[keys[k]][ia, ib]))
            a, b = standard_label(ja, orbits[a0 + ia], 0), standard_label(jb, orbits[ib], 0)
            candidate = standard_label(charges[c], orbits[ic], HalfInt(2 * (k // len(charges) - ORACLE_WINDOW)))
            got = oracle_integers(params, a, b, values[term][ia, ib, ic : ic + 1], lambda _: candidate)
            want = 0 if land is None else parts[land][ia, ib, ic]
            return False, f"oracle mismatch at {candidate}: {got[0]} vs {want}"
    return True, f"{n * n * count} coefficients"


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
