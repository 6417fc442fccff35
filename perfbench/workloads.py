"""The three workloads: seeded inputs, the timed operations, and the checks
on their outputs.

A workload is a warm-up step plus a list of groups.  A group is a short
list of operations whose outputs are checked together once the group
has run; the checks are never timed.  Every check compares outputs
against an independent computation or a property the method must have,
never against a stored copy of earlier output.

fuse-resolution
    Operations are ``bpfusion.fuse(a, b)`` with ``a`` a highest-weight
    label of orbit type 1 or 2 and ``b`` a simple standard label.  Inputs
    come in ladders: a start ``a_0``, its one-step resolution subs
    ``a_{k+1} = sub(a_k)`` (while they stay of type 1 or 2, at most
    LADDER_ROWS rows) and the flow ``sigma^1`` of each, all against one
    ``b``.  So the checks read neighbouring outputs of the same ladder
    and cost little beyond the timed work.
verify-modular
    Operations are one pass of four ``bpfusion.verify`` suites over the
    level pairs of VERIFY_LEVELS.
smatrix-cli
    Operations are ``bpfusion.cli.main(["smatrix-w3", u, v])`` with the
    output captured in memory, at SMATRIX_LEVELS.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import bpfusion
from bpfusion import cli, sl3, verify, w3modular
from bpfusion.labels import HWLabel, atypical_ses, is_nonsimple_standard, rewrite_gaps
from bpfusion.levels import RSLabel, enumerate_infwts, enumerate_surv, hw_data, level_params, orbit_of, vacuum_orbit
from bpfusion.w3modular import w3_fusion

FUSE_LEVELS = (7, 5)
LADDER_ROWS = 3
START_FLOWS = tuple(Fraction(k, 2) for k in range(-2, 4))  # -1 .. 3/2, integral and half-integral
B_FLOWS = tuple(range(-2, 3))
CHARGE_DENOMINATOR = 97  # b's charge is k/97, 0 < k < 97

VERIFY_LEVELS = ((5, 4), (4, 5))
VERIFY_SUITES = ("w3-unitarity", "w3-sigma-phase", "w3-verlinde", "fusion-oracle")

SMATRIX_LEVELS = (8, 7)
VERLINDE_PAIRS = 4  # (a, b) rows checked per output, against every c
TOL = 1e-9


@dataclass
class Group:
    ops: list[Callable[[], object]]
    check: Callable[[list], list[str]]


@dataclass
class Workload:
    warm_up: Callable[[], None]
    groups: list[Group]


def orbit_count(u: int, v: int) -> int:
    """Number of interior orbits at (u, v), from the closed formula."""
    return (u - 1) * (u - 2) * (v - 1) * (v - 2) // 12


def _warm_fusion_tables(level: int) -> None:
    weights = [(a, b, level - a - b) for a in range(level + 1) for b in range(level + 1 - a)]
    for x in weights:
        for y in weights:
            sl3.kac_walton(level, x, y, x)  # fills fusion_table(level, x, y)


def _warm_level_pair(u: int, v: int) -> None:
    """Level data, the cached S-matrix and every affine fusion table at (u, v).

    Calls go through the module attributes, so a traced run sees them.
    """
    params = level_params(u, v)
    vac = vacuum_orbit(params)
    w3modular.w3_verlinde(params, vac, vac, vac)
    _warm_fusion_tables(u - 3)
    _warm_fusion_tables(v - 3)


# ---------------------------------------------------------------------------
# fuse-resolution


def one_step(params, a: HWLabel):
    """(sub, middle) of the exact sequence 0 -> sub -> middle -> a -> 0, flowed with a."""
    ses = atypical_ses(params, a.lam)
    return (
        bpfusion.spectral_flow(params, ses.sub, a.ell),
        bpfusion.spectral_flow(params, ses.middle, a.ell),
    )


def total_charge(params, label) -> Fraction:
    """J(x): charge plus 2*kappa*flow, with the highest-weight charge for I[lam]^ell."""
    base = hw_data(params, label.lam).j if isinstance(label, HWLabel) else label.j
    return base + 2 * params.kappa * label.ell.as_fraction()


def linearity_errors(params, a, b, product, sub_product) -> list[str]:
    """fuse(a, b) == rewrite_gaps(fuse_standard(middle, b)) - fuse(sub, b)."""
    _, middle = one_step(params, a)
    expected = rewrite_gaps(params, bpfusion.fuse_standard(params, middle, b)) - sub_product
    if product != expected:
        return [f"linearity: {a} x {b} gave {product}, the exact sequence gives {expected}"]
    return []


def charge_errors(params, a, b, product) -> list[str]:
    """Every output label has J = J(a) + J(b) mod 1."""
    want = total_charge(params, a) + total_charge(params, b)
    bad = [str(lab) for lab, _ in product if (total_charge(params, lab) - want).denominator != 1]
    if bad:
        return [f"charge: {a} x {b} has terms off J(a) + J(b) = {want} mod 1: {bad[:3]}"]
    return []


def covariance_errors(params, a, b, product, flowed_product) -> list[str]:
    """fuse(sigma^1 a, b) == sigma^1 fuse(a, b)."""
    if flowed_product != product.shifted(params, 1):
        return [f"covariance: fuse(sigma {a}, {b}) is not sigma fuse({a}, {b})"]
    return []


class _Cycle:
    """Seeded draws that take every item once before any repeats."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.queue = rng, list(items), []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _simple_standard(params, rng, orbit):
    while True:
        j = Fraction(rng.randrange(1, CHARGE_DENOMINATOR), CHARGE_DENOMINATOR)
        b = bpfusion.standard_label(j, orbit, rng.choice(B_FLOWS))
        if not is_nonsimple_standard(params, b):
            return b


def ladder_starts(params) -> list:
    """Leftmost labels of every highest-weight orbit of type 1 or 2."""
    return sorted(
        {
            bpfusion.hw_label(params, lab, 0).lam
            for lab in enumerate_surv(params)
            if bpfusion.orbit_type(params, lab) in (1, 2)
        }
    )


def ladder_rows(params, a0: HWLabel) -> list[HWLabel]:
    rows = [a0]
    while len(rows) < LADDER_ROWS:
        sub, _ = one_step(params, rows[-1])
        if bpfusion.orbit_type(params, sub.lam) == 3:
            break
        rows.append(sub)
    return rows


def check_ladder(params, rows, b, products) -> list[str]:
    """All three checks on every product of one ladder.

    products[2k + c] is fuse(sigma^c rows[k], b).  The sub of the last
    row is fused here, outside the timed interval.
    """
    errors = []
    n = len(rows)
    last_sub, _ = one_step(params, rows[-1])
    extra = [bpfusion.fuse(params, bpfusion.spectral_flow(params, last_sub, c), b) for c in (0, 1)]
    for k, row in enumerate(rows):
        for c in (0, 1):
            a = bpfusion.spectral_flow(params, row, c)
            sub_product = products[2 * (k + 1) + c] if k + 1 < n else extra[c]
            errors += linearity_errors(params, a, b, products[2 * k + c], sub_product)
            errors += charge_errors(params, a, b, products[2 * k + c])
        errors += covariance_errors(params, row, b, products[2 * k], products[2 * k + 1])
    return errors


def fuse_resolution(rng: random.Random, n_ops: int, timed) -> Workload:
    """Whole rounds of ladders.  Starts are grouped by ladder length, and a
    round takes from each group in proportion to its size, so every run
    has the same make-up; b's orbit cycles through all orbits."""
    u, v = FUSE_LEVELS
    params = level_params(u, v)
    by_rows: dict[int, list] = {}
    for lam in ladder_starts(params):
        by_rows.setdefault(len(ladder_rows(params, bpfusion.hw_label(params, lam, 0))), []).append(lam)
    unit = math.gcd(*(len(starts) for starts in by_rows.values()))
    per_round = [(_Cycle(rng, starts), len(starts) // unit) for _, starts in sorted(by_rows.items())]
    orbits = _Cycle(rng, enumerate_infwts(params))
    groups = []
    count = 0
    while count < n_ops:
        round_groups = []
        for starts, take in per_round:
            for _ in range(take):
                a0 = bpfusion.hw_label(params, starts.next(), rng.choice(START_FLOWS))
                b = _simple_standard(params, rng, orbits.next())
                rows = ladder_rows(params, a0)
                ops = [
                    (lambda a=bpfusion.spectral_flow(params, row, c), b=b: bpfusion.fuse(params, a, b))
                    for row in rows
                    for c in (0, 1)
                ]
                check = lambda products, rows=rows, b=b: check_ladder(params, rows, b, products)  # noqa: E731
                round_groups.append(Group(ops, check))
                count += len(ops)
        rng.shuffle(round_groups)
        groups += round_groups
    return Workload(lambda: _warm_level_pair(u, v), groups)


# ---------------------------------------------------------------------------
# verify-modular


def suite_errors(u: int, v: int, results: dict) -> list[str]:
    """Every suite passed, and the counts are n^2 pairs and n^3 triples."""
    n = orbit_count(u, v)
    errors = [f"{name} failed at ({u},{v}): {detail}" for name, (ok, detail) in results.items() if not ok]
    expect = {"w3-sigma-phase": f"{n * n} pairs", "w3-verlinde": f"{n ** 3} triples"}
    for name, want in expect.items():
        got = results[name][1]
        if got != want:
            errors.append(f"{name} at ({u},{v}) reports {got!r}, expected {want!r}")
    return errors


def verify_modular(rng: random.Random, n_ops: int, timed) -> Workload:
    """Each operation passes over every level pair of the grid, in a seeded order."""
    suites = {name: timed(f"verify.{name}", verify.SUITES[name]) for name in VERIFY_SUITES}
    params = {uv: level_params(*uv) for uv in VERIFY_LEVELS}

    def op(order):
        return {uv: {name: suites[name](params[uv], None) for name in VERIFY_SUITES} for uv in order}

    def check(outputs):
        return [e for uv, results in outputs[0].items() for e in suite_errors(*uv, results)]

    groups = []
    for _ in range(n_ops):
        order = list(VERIFY_LEVELS)
        rng.shuffle(order)
        groups.append(Group([lambda order=order: op(order)], check))

    def warm_up():
        for uv in VERIFY_LEVELS:
            _warm_level_pair(*uv)

    return Workload(warm_up, groups)


# ---------------------------------------------------------------------------
# smatrix-cli

_ORBIT_RE = re.compile(r"\[\[(-?\d+),(-?\d+),(-?\d+);(-?\d+),(-?\d+),(-?\d+)\]\]")


def parse_orbit(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m = _ORBIT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed orbit {text!r}")
    x = tuple(int(g) for g in m.groups())
    return x[:3], x[3:]


def orbit_text(r, s) -> str:
    return f"[[{r[0]},{r[1]},{r[2]};{s[0]},{s[1]},{s[2]}]]"


def least_rotation(r, s) -> str:
    """The orbit key: the least of the three joint cyclic rotations of (r; s)."""
    rots = [(r[k:] + r[:k], s[k:] + s[:k]) for k in range(3)]
    return orbit_text(*min(rots))


def conjugate_orbit_text(text: str) -> str:
    """Swap r1<->r2 and s1<->s2, then take the least cyclic rotation."""
    r, s = parse_orbit(text)
    return least_rotation((r[0], r[2], r[1]), (s[0], s[2], s[1]))


def smatrix_from_json(payload: dict) -> tuple[list[str], np.ndarray]:
    orbits = payload["orbits"]
    mat = np.array([[z["re"] + 1j * z["im"] for z in row] for row in payload["entries"]])
    return orbits, mat


def count_errors(u, v, orbits, mat) -> list[str]:
    n = orbit_count(u, v)
    if len(orbits) != n or mat.shape != (n, n):
        return [f"count: {len(orbits)} orbits and a {mat.shape} matrix, expected {n}"]
    if len(set(orbits)) != n:
        return ["count: repeated orbit labels"]
    return []


def symmetric_errors(mat) -> list[str]:
    dev = float(np.max(np.abs(mat - mat.T)))
    return [] if dev <= TOL else [f"symmetry: max |S - S^T| = {dev:.3g}"]


def unitary_errors(mat) -> list[str]:
    dev = float(np.max(np.abs(mat @ mat.conj().T - np.eye(len(mat)))))
    return [] if dev <= TOL else [f"unitarity: max |S S^dag - 1| = {dev:.3g}"]


def conjugation_errors(orbits, mat) -> list[str]:
    index = {text: i for i, text in enumerate(orbits)}
    perm = np.zeros(mat.shape)
    for i, text in enumerate(orbits):
        conj = conjugate_orbit_text(text)
        if conj not in index:
            return [f"conjugation: {conj}, the conjugate of {text}, is not listed"]
        perm[i, index[conj]] = 1.0
    dev = float(np.max(np.abs(mat @ mat - perm)))
    return [] if dev <= TOL else [f"conjugation: max |S^2 - C| = {dev:.3g}"]


def verlinde_errors(u, v, orbits, mat, rows, fusion) -> list[str]:
    """For each (a, b) in rows and every c, the Verlinde sum of the printed
    matrix rounds to fusion(a, b, c)."""
    vac = orbits.index(least_rotation((u - 3, 0, 0), (v - 3, 0, 0)))
    errors = []
    for a, b in rows:
        sums = (mat[a] * mat[b] / mat[vac]) @ mat.conj().T
        for c, z in enumerate(sums):
            want = fusion(orbits[a], orbits[b], orbits[c])
            if round(z.real) != want or abs(z - want) > 1e-6:
                errors.append(f"verlinde: N({orbits[a]},{orbits[b]},{orbits[c]}) = {z} vs {want}")
    return errors


def smatrix_errors(u, v, rc, text, rows, fusion) -> list[str]:
    if rc != 0:
        return [f"smatrix-w3 {u} {v} exited {rc}"]
    orbits, mat = smatrix_from_json(json.loads(text))
    errors = count_errors(u, v, orbits, mat)
    if errors:
        return errors
    return (
        symmetric_errors(mat)
        + unitary_errors(mat)
        + conjugation_errors(orbits, mat)
        + verlinde_errors(u, v, orbits, mat, rows, fusion)
    )


def w3_fusion_of_texts(params):
    """fusion(a, b, c) on orbit strings, by the library's Kac-Walton product."""
    cache = {}

    def orbit(text):
        if text not in cache:
            cache[text] = orbit_of(params, RSLabel(*parse_orbit(text)))
        return cache[text]

    return lambda a, b, c: w3_fusion(params, orbit(a), orbit(b), orbit(c))


def smatrix_cli(rng: random.Random, n_ops: int, timed) -> Workload:
    u, v = SMATRIX_LEVELS
    argv = ["smatrix-w3", str(u), str(v)]
    n = orbit_count(u, v)
    fusion = w3_fusion_of_texts(level_params(u, v))

    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    groups = []
    for _ in range(n_ops):
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(VERLINDE_PAIRS)]
        groups.append(Group([op], lambda out, rows=rows: smatrix_errors(u, v, *out[0], rows, fusion)))

    def warm_up():
        enumerate_infwts(level_params(u, v))

    return Workload(warm_up, groups)


WORKLOADS = {
    "fuse-resolution": fuse_resolution,
    "verify-modular": verify_modular,
    "smatrix-cli": smatrix_cli,
}


def build(name: str, seed: int, n_ops: int, timed) -> Workload:
    """The workload's inputs for this seed.  timed(name, fn) wraps the
    calls the benchmark makes itself into verify suites."""
    return WORKLOADS[name](random.Random(seed), n_ops, timed)
