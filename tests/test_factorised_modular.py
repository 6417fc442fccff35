"""The S-matrix built from its sl3 factorisation, the per-level cache it
lives in, the Verlinde sums read off that cache, and the W3 fusion ring
as the product of two sl3 fusion rings.

The factorised builder, its Weyl-sum tables and the rows it gathers for
cycled labels must reproduce the scalar `w3_smatrix_entry` bit for bit,
and the vectorised oracle must agree with the loop over orbits it
replaced (kept below as `loop_oracle`).
"""
import copy
import dataclasses
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import fusion_reference as reference
from bpfusion import labels, verify, verlinde, w3modular
from bpfusion.labels import (
    HalfInt,
    HWLabel,
    StandardLabel,
    _mod1,
    hw_label,
    is_nonsimple_standard,
    orbit_type,
    parse_label,
    standard_label,
)
from bpfusion.levels import (
    LabelError,
    RSLabel,
    enumerate_infwts,
    j_of,
    jtw_of,
    level_params,
    orbit_of,
    orbit_table,
    sigma,
    vacuum_orbit,
)
from bpfusion.verlinde import (
    HALF,
    OracleError,
    VerlindeOracle,
    oracle_integers,
    _type3_middle_form,
    fuse,
    fuse_standard,
    fuse_type3_standard,
    simple_candidates,
    verlinde_oracle,
)
from bpfusion.w3modular import (
    INTEGER_TOL,
    W3SMatrix,
    _cached_smatrix,
    cexp,
    w3_fusion,
    w3_smatrix_entry,
    w3_verlinde,
)

SMALL_LEVELS = [(u, v) for u in range(3, 9) for v in range(3, 9) if gcd(u, v) == 1]
ARRAYS = ("matrix", "vacuum_inverse", "member_phase_sum", "r_sums", "s_sums")


# ---------------------------------------------------------------------------
# The factorised build


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=lambda x: str(x))
def test_factorised_matrix_equals_scalar_entries(u, v):
    p = level_params(u, v)
    smat = W3SMatrix(p)
    scalar = np.array(
        [[w3_smatrix_entry(p, a.rep, b.rep) for b in smat.orbits] for a in smat.orbits], dtype=complex
    )
    assert smat.matrix.tobytes() == scalar.tobytes()  # bytes, so that -0.0 differs from 0.0


def test_factorised_matrix_at_11_10_on_seeded_entries():
    p = level_params(11, 10)
    smat = W3SMatrix(p)
    n = len(smat.orbits)
    assert n == 540
    rng = random.Random(1110)
    # the entries with a zero part too, where only the bits tell the sign apart
    zeros = np.argwhere((smat.matrix.real == 0) | (smat.matrix.imag == 0)).tolist()
    for i, j in [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)] + zeros:
        scalar = w3_smatrix_entry(p, smat.orbits[i].rep, smat.orbits[j].rep)
        assert _bits(complex(smat.matrix[i, j])) == _bits(scalar)


def _shifted_alcove(level: int) -> list[tuple[int, int]]:
    """The rho-shifted integrable weights at `level`, the S-matrix's Weyl-sum arguments."""
    return [(a + 1, b + 1) for a in range(level + 1) for b in range(level + 1 - a)]


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _weyl_sum_mismatches(scale, pairs) -> list:
    return [
        (scale, x, y)
        for x, y in pairs
        if _bits(w3modular._weyl_sum(scale, x, y)) != _bits(reference.weyl_sum(scale, x, y))
    ]


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=lambda x: str(x))
def test_weyl_sum_equals_the_fraction_reference_bit_for_bit(u, v):
    for scale, level in ((Fraction(v, u), u - 3), (Fraction(u, v), v - 3)):
        weights = _shifted_alcove(level)
        assert _weyl_sum_mismatches(scale, [(x, y) for x in weights for y in weights]) == []


def test_weyl_sum_equals_the_fraction_reference_at_11_10_on_seeded_pairs():
    rng = random.Random(1110)
    for scale, level in ((Fraction(10, 11), 8), (Fraction(11, 10), 7)):
        weights = _shifted_alcove(level)
        pairs = [(rng.choice(weights), rng.choice(weights)) for _ in range(500)]
        assert _weyl_sum_mismatches(scale, pairs) == []


def _weyl_sums_mismatches(scale, weights, pairs) -> list:
    """`_weyl_sums` over every pair of `weights`, read at `pairs` against the reference."""
    at = {w: i for i, w in enumerate(weights)}
    table = w3modular._weyl_sums(scale, np.array(weights), np.array(weights))
    return [
        (scale, x, y) for x, y in pairs if _bits(complex(table[at[x], at[y]])) != _bits(reference.weyl_sum(scale, x, y))
    ]


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=lambda x: str(x))
def test_weyl_sums_equal_the_fraction_reference_bit_for_bit(u, v):
    for scale, level in ((Fraction(v, u), u - 3), (Fraction(u, v), v - 3)):
        weights = _shifted_alcove(level)
        assert _weyl_sums_mismatches(scale, weights, [(x, y) for x in weights for y in weights]) == []


def test_weyl_sums_equal_the_fraction_reference_at_11_10_on_seeded_pairs():
    rng = random.Random(1110)
    for scale, level in ((Fraction(10, 11), 8), (Fraction(11, 10), 7)):
        weights = _shifted_alcove(level)
        pairs = [(rng.choice(weights), rng.choice(weights)) for _ in range(500)]
        assert _weyl_sums_mismatches(scale, weights, pairs) == []


def _cycled_row_mismatches(p, pairs) -> list:
    """Entries of `rows` for the r-cycled, s-cycled and fully cycled
    representative of orbit i against orbit j, at each (i, j) of `pairs`,
    whose bits differ from `w3_smatrix_entry`."""
    smat = W3SMatrix(p)
    reps = [orb.rep for orb in smat.orbits]
    cycled = [sigma(x) for x in reps]
    kinds = {
        "r": [RSLabel(c.r, x.s) for x, c in zip(reps, cycled)],
        "s": [RSLabel(x.r, c.s) for x, c in zip(reps, cycled)],
        "both": cycled,
    }
    out = []
    for kind, labels in kinds.items():
        rows = smat.rows(labels)
        out += [
            (kind, i, j)
            for i, j in pairs
            if _bits(complex(rows[i, j])) != _bits(w3_smatrix_entry(p, labels[i], reps[j]))
        ]
    return out


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=lambda x: str(x))
def test_cycled_rows_equal_scalar_entries_bit_for_bit(u, v):
    p = level_params(u, v)
    n = len(orbit_table(p).orbits)
    assert _cycled_row_mismatches(p, [(i, j) for i in range(n) for j in range(n)]) == []


def test_cycled_rows_at_11_10_on_seeded_entries():
    rng = random.Random(1110)
    pairs = [(rng.randrange(540), rng.randrange(540)) for _ in range(2000)]
    assert _cycled_row_mismatches(level_params(11, 10), pairs) == []


@pytest.mark.parametrize("label", [RSLabel((0, 0, 2), (1, -1, 1)), RSLabel((0, 0, 3), (1, 0, 1))], ids=str)
def test_rows_of_a_label_off_the_alcoves_raise_a_label_error(label):
    with pytest.raises(LabelError, match=r"is not an interior triple at \(5,4\)"):
        W3SMatrix(level_params(5, 4)).rows([label])


def test_weyl_sum_equals_the_fraction_reference_off_the_alcove():
    """tensor_sum_check and w3_smatrix_entry take arbitrary integral weights."""
    rng = random.Random(2026)
    scales = [Fraction(v, u) for u, v in SMALL_LEVELS]

    def weight():
        return (rng.randint(-40, 40), rng.randint(-40, 40))

    pairs = [(rng.choice(scales), weight(), weight()) for _ in range(2000)]
    assert [p for p in pairs if _weyl_sum_mismatches(p[0], [p[1:]])] == []


@pytest.mark.parametrize("u,v", [(4, 5), (5, 4), (7, 5)])
def test_verlinde_arrays(u, v):
    p = level_params(u, v)
    smat = W3SMatrix(p)
    vac = smat.index(vacuum_orbit(p))
    assert smat.vacuum_inverse.tobytes() == (1 / smat.matrix[vac]).tobytes()
    for orb, total in zip(smat.orbits, smat.member_phase_sum):
        assert _bits(complex(total)) == _bits(sum(cexp(jtw_of(p, m)) for m in orb.members))


# ---------------------------------------------------------------------------
# The read-only cache


def test_every_array_is_read_only():
    p = level_params(4, 5)
    for smat in (W3SMatrix(p), _cached_smatrix(p)):
        for name in ARRAYS:
            assert not getattr(smat, name).flags.writeable, name


def test_writing_into_the_cached_matrix_raises():
    smat = _cached_smatrix(level_params(5, 4))
    before = smat.matrix.copy()
    with pytest.raises(ValueError):
        smat.matrix[0, 0] = 0
    with pytest.raises(ValueError):
        smat.vacuum_inverse[:] = 1
    assert np.array_equal(_cached_smatrix(level_params(5, 4)).matrix, before)


def test_cache_returns_one_matrix_per_level_pair():
    assert _cached_smatrix(level_params(4, 5)) is _cached_smatrix(level_params(4, 5))
    assert _cached_smatrix(level_params(4, 5)) is not _cached_smatrix(level_params(5, 4))


def _support_draws(p, rng, count):
    """(a, b, candidate) triples with candidates on the closed-form support."""
    orbs = enumerate_infwts(p)
    out = []
    while len(out) < count:
        a = standard_label(Fraction(rng.randrange(1, 40), 41), rng.choice(orbs), rng.randrange(-2, 3))
        b = standard_label(Fraction(rng.randrange(1, 40), 43), rng.choice(orbs), rng.randrange(-2, 3))
        for cand, _ in fuse_standard(p, a, b):
            if not is_nonsimple_standard(p, cand):
                out.append((a, b, cand))
    return out[:count]


def test_threads_on_a_fresh_level_pair_agree():
    p = level_params(7, 4)
    draws = _support_draws(p, random.Random(74), 40)
    expected = [fuse_standard(p, a, b).coeff(c) for a, b, c in draws]
    hw_pairs = [
        (hw_label(p, RSLabel((1, 1, 2), (0, 0, 1)), 0), draws[0][0]),
        (hw_label(p, RSLabel((0, 2, 2), (1, -1, 1)), 1), draws[1][1]),
    ]
    expected_std = [fuse_standard(p, a, b) for a, b, _ in draws]
    expected_hw = [fuse(p, h, b) for h, b in hw_pairs]
    # every thread fuses the same label objects, rebuilt from their text so
    # that no hash of theirs (or of a weight label inside) is cached yet
    shared_std = [(parse_label(p, str(a)), parse_label(p, str(b))) for a, b, _ in draws]
    shared_hw = [(parse_label(p, str(h)), parse_label(p, str(b))) for h, b in hw_pairs]
    fresh = [x for pair in shared_std + shared_hw for x in pair] + [h.lam for h, _ in shared_hw]
    assert not any("_hash" in vars(x) for x in fresh)
    # a fresh level: no thread finds a table of (7, 4) already built
    q = dataclasses.replace(p)
    barrier = threading.Barrier(4, timeout=60)

    def work():
        barrier.wait()
        smat = _cached_smatrix(q)
        factors = w3modular.fusion_factors(q)
        gaps = labels.gap_table(q)
        products = [fuse_standard(q, a, b) for a, b in shared_std] + [fuse(q, h, b) for h, b in shared_hw]
        return smat, factors, gaps, [verlinde_oracle(q, a, b, c) for a, b, c in draws], products

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    # every thread holds the one object stored on the level, equal to p's
    smat, factors, gaps = _cached_smatrix(q), w3modular.fusion_factors(q), labels.gap_table(q)
    for got_smat, got_factors, got_gaps, values, products in results:
        assert got_smat is smat and got_factors is factors and got_gaps is gaps
        assert values == expected
        assert products == expected_std + expected_hw
    assert smat is not _cached_smatrix(p) and np.array_equal(smat.matrix, _cached_smatrix(p).matrix)
    assert gaps == labels.gap_table(p)
    cached = w3modular.fusion_factors(p)
    for name in ("n_r", "n_s", "r_index", "s_index"):
        arr = getattr(factors, name)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert np.array_equal(arr, getattr(cached, name))


# ---------------------------------------------------------------------------
# Verlinde sums against the loops they replaced


def loop_verlinde(params, a, b, c):
    smat = _cached_smatrix(params)
    vac = vacuum_orbit(params)
    total = 0j
    for m in smat.orbits:
        total += smat.entry(a, m) * smat.entry(b, m) * smat.entry(c, m).conjugate() / smat.entry(vac, m)
    return total


def _loop_standard_factor(params, x, conj):
    kappa = params.kappa
    lx = x.ell.as_fraction()
    sign = -1 if conj else 1
    return {
        "orbit": x.orbit,
        "m_freq": sign * (2 * kappa * lx + (x.j - kappa)),
        "k_freq": sign * lx,
        "d_power": 0,
        "conj": conj,
    }


def _loop_type3_factor(params, x):
    kappa = params.kappa
    ell, mid = _type3_middle_form(params, x)
    under = orbit_of(params, RSLabel(mid.r, (params.v - 3, 0, 0)))
    return {
        "orbit": under,
        "m_freq": 2 * kappa * (ell - HALF) + j_of(params, mid),
        "k_freq": ell - HALF,
        "d_power": -1,
        "conj": False,
    }


def loop_oracle(params, a, b, candidate):
    """The oracle as a loop over orbits, with a dict per factor."""
    if is_nonsimple_standard(params, candidate):
        raise LabelError(f"candidate {candidate} must be simple")
    factors = []
    for x in (a, b):
        if isinstance(x, StandardLabel):
            factors.append(_loop_standard_factor(params, x, conj=False))
        elif isinstance(x, HWLabel) and orbit_type(params, x.lam) == 3:
            factors.append(_loop_type3_factor(params, x))
        else:
            raise LabelError(f"oracle input {x} must be standard or type-3")
    if sum(1 for f in factors if f["d_power"] == -1) > 1:
        raise LabelError("at most one type-3 input")
    factors.append(_loop_standard_factor(params, candidate, conj=True))
    kappa = params.kappa
    vac_under = vacuum_orbit(params)
    m_total = sum(f["m_freq"] for f in factors) + kappa
    if _mod1(m_total) != 0:
        return 0
    k_total = sum(f["k_freq"] for f in factors) + HALF
    d_total = sum(f["d_power"] for f in factors) + 1
    smat = _cached_smatrix(params)
    total = 0j
    two_k = int(2 * k_total)
    for mu in smat.orbits:
        coeff = 1 + 0j
        for f in factors:
            entry = smat.entry(f["orbit"], mu)
            coeff *= entry.conjugate() if f["conj"] else entry
        coeff /= smat.entry(vac_under, mu)
        if d_total == 0:
            kint = 1.0 if two_k == 0 else 0.0
        else:
            kint = 0j
            if two_k in (3, -3):
                kint += 1
            for member in mu.members:
                w_i = cexp(jtw_of(params, member))
                if two_k == 1:
                    kint -= w_i
                if two_k == -1:
                    kint -= w_i.conjugate()
        total += coeff * kint
    rounded = round(total.real)
    if abs(total - rounded) > 1e-6:
        raise OracleError(params, a, b, candidate, total, abs(total - rounded))
    return int(rounded)


def _two_k(a, b, cand):
    """2K, the flow frequency the oracle extracts, for inputs on its support."""
    twice = sum(x.ell.twice - (3 if isinstance(x, HWLabel) else 0) for x in (a, b))
    return twice - cand.ell.twice + 1


def _type3_labels(p):
    u, v = p.u, p.v
    return [
        RSLabel((r0, r1, u - 3 - r0 - r1), (v - 2, -1, 0)) for r0 in range(u - 2) for r1 in range(u - 2 - r0)
    ]


@pytest.mark.parametrize("u,v", [(5, 4), (4, 5), (6, 5)])
def test_oracle_equals_the_loop_oracle(u, v):
    p = level_params(u, v)
    rng = random.Random(100 * u + v)
    orbs = enumerate_infwts(p)
    cases = []
    for a, b, cand in _support_draws(p, rng, 60):
        cases.append((a, b, cand))
        # the same charge on another orbit and flow: mostly zeros
        cases.append((a, b, standard_label(cand.j, rng.choice(orbs), cand.ell + rng.choice((-2, 2, 3)))))
    type3_cases = []
    for _ in range(6):
        hw = hw_label(p, rng.choice(_type3_labels(p)), Fraction(rng.randrange(-2, 3), 2))
        assert orbit_type(p, hw.lam) == 3
        b = standard_label(Fraction(rng.randrange(1, 40), 41), rng.choice(orbs), rng.randrange(-2, 3))
        for cand, _ in fuse_type3_standard(p, hw, b):
            if not is_nonsimple_standard(p, cand):
                type3_cases.append((hw, b, cand) if rng.random() < 0.5 else (b, hw, cand))
                type3_cases.append((hw, b, standard_label(cand.j, cand.orbit, cand.ell + 1)))
    nonzero_branches = set()
    for a, b, cand in cases + type3_cases:
        got = verlinde_oracle(p, a, b, cand)
        assert got == loop_oracle(p, a, b, cand), (a, b, cand)
        if got:
            kind = "type3" if (a, b, cand) in type3_cases else "standard"
            nonzero_branches.add((kind, _two_k(a, b, cand)))
    assert {("standard", k) for k in (-3, -1, 1, 3)} <= nonzero_branches
    assert ("type3", 0) in nonzero_branches


def _row_inputs(p, rng, pairs):
    """(a, b) pairs: the fusion-oracle suite's inputs on every orbit pair
    when `pairs` is None, else that many seeded standard pairs at random
    charges and flows, plus type-3 inputs on either side."""
    orbs = enumerate_infwts(p)
    if pairs is None:
        return [
            (standard_label(Fraction(1, 7), x, 0), standard_label(Fraction(2, 7), y, 0)) for x in orbs for y in orbs
        ]
    out = []
    for _ in range(pairs):
        a = standard_label(Fraction(rng.randrange(1, 40), 41), rng.choice(orbs), rng.randrange(-2, 3))
        b = standard_label(Fraction(rng.randrange(1, 40), 43), rng.choice(orbs), rng.randrange(-2, 3))
        out.append((a, b))
    for _ in range(2):
        hw = hw_label(p, rng.choice(_type3_labels(p)), Fraction(rng.randrange(-2, 3), 2))
        b = standard_label(Fraction(rng.randrange(1, 40), 41), rng.choice(orbs), rng.randrange(-2, 3))
        out += [(hw, b), (b, hw)]
    return out


@pytest.mark.parametrize("u,v,pairs", [(5, 4, None), (4, 5, None), (6, 5, 12)], ids=str)
def test_oracle_rows_equal_the_loop_oracle(u, v, pairs):
    """Every (a, b, ell, shift, c): the suite's own inputs at (5,4) and (4,5),
    seeded pairs with type-3 inputs at (6,5).  Each charge class is the sum
    of a and b's charges plus one of the suite's four shifts."""
    p = level_params(u, v)
    orbs = enumerate_infwts(p)
    nonzero_branches = set()
    for a, b in _row_inputs(p, random.Random(10 * u + v), pairs):
        oracle = VerlindeOracle(p, a, b)
        ja = a.j if isinstance(a, StandardLabel) else j_of(p, _type3_middle_form(p, a)[1])
        jb = b.j if isinstance(b, StandardLabel) else j_of(p, _type3_middle_form(p, b)[1])
        for ell in range(-3, 5):
            for shift in (0, -4 * p.kappa, 2 * p.kappa, -2 * p.kappa):
                charge = _mod1(ja + jb + shift)
                mask = simple_candidates(p, charge)
                row = reference.verlinde_oracle_row(p, a, b, ell, charge)
                values = oracle.values(HalfInt.of(ell), charge)
                assert np.array_equal(row, np.where(mask, np.rint(values.real), 0))
                for c, orb in enumerate(orbs):
                    cand = standard_label(charge, orb, ell)
                    assert mask[c] != is_nonsimple_standard(p, cand)
                    if not mask[c]:
                        assert row[c] == 0
                        continue
                    want = loop_oracle(p, a, b, cand)
                    assert row[c] == want, (a, b, cand)
                    if want:
                        kind = "standard" if isinstance(a, StandardLabel) and isinstance(b, StandardLabel) else "type3"
                        nonzero_branches.add((kind, _two_k(a, b, cand)))
    assert {("standard", k) for k in (-3, -1, 1, 3)} <= nonzero_branches
    if pairs is not None:
        assert ("type3", 0) in nonzero_branches


def test_rounding_names_what_failed():
    p = level_params(5, 4)
    orbs = enumerate_infwts(p)
    a = standard_label(Fraction(1, 7), orbs[0], 0)
    b = standard_label(Fraction(2, 7), orbs[1], 1)
    cands = [standard_label(Fraction(3, 7), orb, 2) for orb in orbs[:3]]
    values = np.array([2.0, -1.0 + 1e-9j, 3.25])
    assert oracle_integers(p, a, b, values, cands.__getitem__, np.array([True, True, False])).tolist()[:2] == [2, -1]
    with pytest.raises(OracleError) as info:
        oracle_integers(p, a, b, values, cands.__getitem__)
    err = info.value
    assert err.uv == (5, 4)
    assert (err.a, err.b, err.candidate) == (a, b, cands[2])
    assert err.value == 3.25 and err.distance == pytest.approx(0.25)
    for part in ("(u,v)=(5,4)", str(a), str(b), str(cands[2]), "3.25", "0.25"):
        assert part in str(err)
    # a value just inside the tolerance rounds; a NaN never does
    assert oracle_integers(p, a, b, np.array([4 + INTEGER_TOL / 2]), cands.__getitem__).tolist() == [4]
    with pytest.raises(OracleError):
        oracle_integers(p, a, b, np.array([np.nan]), cands.__getitem__)


def loop_fusion_oracle_suite(params):
    """The fusion-oracle suite as it was: one oracle call per candidate."""
    orbits = enumerate_infwts(params)
    kappa = params.kappa
    js = [Fraction(1, 7), Fraction(2, 7)]
    checked = 0
    for orb_a in orbits:
        for orb_b in orbits:
            a = standard_label(js[0], orb_a, 0)
            b = standard_label(js[1], orb_b, 0)
            closed = verlinde.fuse_standard(params, a, b)
            for ell in range(-verify.ORACLE_WINDOW, verify.ORACLE_WINDOW + 2):
                for shift in (0, -4 * kappa, 2 * kappa, -2 * kappa):
                    for orb_c in orbits:
                        cand = standard_label(js[0] + js[1] + shift, orb_c, ell)
                        if is_nonsimple_standard(params, cand):
                            continue
                        got = loop_oracle(params, a, b, cand)
                        if got != closed.coeff(cand):
                            return False, f"oracle mismatch at {cand}: {got} vs {closed.coeff(cand)}"
                        checked += 1
    return True, f"{checked} coefficients"


@pytest.mark.parametrize("u,v", [(5, 4), (4, 5)])
def test_suite_agrees_with_the_loop_suite(u, v):
    p = level_params(u, v)
    assert verify.suite_fusion_oracle(p) == loop_fusion_oracle_suite(p)


@pytest.mark.parametrize("u,v,picks", [(5, 4, (0,)), (4, 5, (-1,)), (5, 4, (0, -1))], ids=str)
def test_dropped_terms_fail_at_the_loop_suites_candidate(u, v, picks):
    """Fusion factors missing one (or two) nonzero sl3 couplings, so the
    closed form misses every term they feed: the batched suite, which
    gathers the factors, names the first candidate the loop suite, which
    calls fuse_standard, names."""
    real = w3modular.fusion_factors(level_params(u, v))
    dropped = copy.copy(real)
    n_r = real.n_r.copy()
    n_r.flat[np.flatnonzero(n_r)[list(picks)]] = 0
    n_r.setflags(write=False)
    dropped.n_r = n_r
    # a fresh level that holds the dropped factors in place of its own
    p = dataclasses.replace(level_params(u, v))
    p.tables[w3modular.fusion_factors] = {(): dropped}
    got = verify.suite_fusion_oracle(p)
    assert not got[0]
    assert got == loop_fusion_oracle_suite(p)


def test_a_non_integer_value_fails_the_suite_at_its_candidate(monkeypatch):
    p = level_params(5, 4)
    # the class (flow 0, charge 3/7) is the only one whose values are the +1 term's
    target = (HalfInt.of(0), Fraction(3, 7))
    term = 1
    real = verify.oracle_values

    def perturbed(smat, base, terms):
        out = real(smat, base, terms)
        out[term] = out[term] + 0.25
        return out

    monkeypatch.setattr(verify, "oracle_values", perturbed)
    with pytest.raises(OracleError) as info:
        verify.suite_fusion_oracle(p)
    orbs = enumerate_infwts(p)
    first = next(orb for orb in orbs if not is_nonsimple_standard(p, standard_label(target[1], orb, 0)))
    err = info.value
    assert (err.a.orbit, err.b.orbit, err.candidate) == (orbs[0], orbs[0], standard_label(target[1], first, 0))
    assert err.distance == pytest.approx(0.25)
    # the reference suite, given the same values, raises the same error
    monkeypatch.setattr(verlinde, "oracle_values", perturbed)
    with pytest.raises(OracleError) as ref_info:
        reference.fusion_oracle_suite(p)
    assert str(ref_info.value) == str(err)


@pytest.mark.parametrize("u,v", [(5, 4), (4, 5)])
def test_w3_verlinde_equals_the_loop(u, v):
    p = level_params(u, v)
    orbs = enumerate_infwts(p)
    for a in orbs:
        for b in orbs:
            for c in orbs:
                got = w3_verlinde(p, a, b, c)
                assert abs(got - loop_verlinde(p, a, b, c)) < 1e-12
                assert round(got.real) == w3_fusion(p, a, b, c)


# ---------------------------------------------------------------------------
# The W3 fusion ring as a product of two sl3 rings


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=str)
def test_fusion_factors_equal_w3_fusion_on_every_triple(u, v):
    p = level_params(u, v)
    orbs = enumerate_infwts(p)
    factors = w3modular.fusion_factors(p)
    assert len(factors.n_r) * len(factors.n_s) == len(orbs)
    for i, a in enumerate(orbs):
        assert factors.fusion_matrix(i).tolist() == [[reference.w3_fusion(p, a, b, c) for c in orbs] for b in orbs]


@pytest.mark.parametrize("u,v", SMALL_LEVELS, ids=str)
def test_w3_fusion_and_its_support_match_the_per_representative_reference(u, v):
    """The support, in table order, and every coefficient on it, against the
    two affine tables read at the fusion representatives."""
    p = level_params(u, v)
    orbs, position = enumerate_infwts(p), orbit_table(p).position
    for a in orbs:
        for b in orbs:
            support = w3modular.w3_fusion_support(p, a, b)
            assert support == sorted(reference.w3_fusion_support(p, a, b), key=position.get)
            got = [w3_fusion(p, a, b, c) for c in support]
            assert got == [reference.w3_fusion(p, a, b, c) for c in support]
            assert all(type(n) is int and n > 0 for n in got)


def test_w3_fusion_rejects_a_foreign_orbit():
    p, other = level_params(7, 5), enumerate_infwts(level_params(5, 4))[1]
    orb = enumerate_infwts(p)[0]
    message = re.escape(f"{other} is not an orbit at (7,5)")
    with pytest.raises(LabelError, match=message):
        w3_fusion(p, orb, orb, other)
    with pytest.raises(LabelError, match=message):
        w3modular.w3_fusion_support(p, other, orb)
    with pytest.raises(LabelError, match=message):
        reference.w3_fusion(p, orb, orb, other)


def test_fusion_factors_are_read_only_and_cached():
    p = level_params(7, 5)
    factors = w3modular.fusion_factors(p)
    assert factors is w3modular.fusion_factors(level_params(7, 5))
    for arr in (factors.n_r, factors.n_s, factors.r_index, factors.s_index):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def loop_w3_verlinde_suite(params):
    """The w3-verlinde suite as it was: one Verlinde sum per triple, against
    the per-representative reference fusion."""
    orbits = enumerate_infwts(params)
    for a in orbits:
        for b in orbits:
            for c in orbits:
                target = reference.w3_fusion(params, a, b, c)
                numeric = w3_verlinde(params, a, b, c)
                if abs(numeric - target) > INTEGER_TOL:
                    return False, f"Verlinde mismatch at ({a},{b},{c}): {numeric} vs {target}"
    return True, f"{len(orbits) ** 3} triples"


@pytest.mark.parametrize("u,v", [(5, 4), (4, 5)])
def test_w3_verlinde_suite_agrees_with_the_loop_suite(u, v):
    p = level_params(u, v)
    assert verify.suite_w3_verlinde(p) == loop_w3_verlinde_suite(p) == (True, f"{len(enumerate_infwts(p)) ** 3} triples")


@pytest.mark.parametrize("u,v,side,picks", [(5, 4, "s", (1, 2, 0)), (7, 5, "r", (3, 8, 3)), (6, 5, "s", (5, 5, 1))], ids=str)
def test_a_perturbed_factor_fails_both_suites_at_the_same_triple(monkeypatch, u, v, side, picks):
    """One sl3 fusion coefficient raised by 1 on the r- or s-side: the array
    suite (through fusion_factors) and the loop suite (through the reference w3_fusion)
    name the same first triple and the same integer."""
    p = dataclasses.replace(level_params(u, v))  # a fresh level builds its factors anew
    table = orbit_table(p)
    level = u - 3 if side == "r" else v - 3
    x, y, z = (getattr(table.fusion_rep[table.orbits[i]], side) for i in picks)
    real = w3modular.fusion_table

    def perturbed(lev, t, tp):
        out = real(lev, t, tp)
        return {**out, z: out.get(z, 0) + 1} if (lev, t, tp) == (level, x, y) else out

    monkeypatch.setattr(w3modular, "fusion_table", perturbed)
    got, want = verify.suite_w3_verlinde(p), loop_w3_verlinde_suite(p)
    assert not got[0] and not want[0]
    # the numeric value is a float sum taken in another order: compare the
    # triple and the integer only
    assert got[1].split(": ")[0] == want[1].split(": ")[0]
    assert got[1].rsplit(" vs ", 1)[1] == want[1].rsplit(" vs ", 1)[1]
