"""Self-tests of the benchmark: each output check rejects a perturbed
output, the tracer restores what it wraps, and every workload runs end
to end.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bpfusion  # noqa: E402
import workloads as wl  # noqa: E402
from bpfusion import FormalSum, cli, level_params  # noqa: E402
from bpfusion.verify import SUITES  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# fuse-resolution checks, on a ladder at (4, 5), where fuse is quick


@pytest.fixture(scope="module")
def ladder():
    params = level_params(4, 5)
    start = next(lam for lam in wl.ladder_starts(params) if len(wl.ladder_rows(params, bpfusion.hw_label(params, lam, 0))) > 1)
    rows = wl.ladder_rows(params, bpfusion.hw_label(params, start, Fraction(1, 2)))
    b = bpfusion.standard_label(Fraction(5, 97), bpfusion.enumerate_infwts(params)[1], 1)
    products = [
        bpfusion.fuse(params, bpfusion.spectral_flow(params, row, c), b) for row in rows for c in (0, 1)
    ]
    return params, rows, b, products


def _replace_term(product, index, change):
    items = list(product)
    label, coeff = items[index]
    items[index] = change(label, coeff)
    return FormalSum(item for item in items if item is not None)


def test_ladder_outputs_pass(ladder):
    params, rows, b, products = ladder
    assert len(rows) > 1
    assert wl.check_ladder(params, rows, b, products) == []


def test_linearity_rejects_a_dropped_term(ladder):
    params, rows, b, products = ladder
    bad = _replace_term(products[0], 0, lambda label, coeff: None)
    assert wl.linearity_errors(params, rows[0], b, bad, products[2])
    assert wl.check_ladder(params, rows, b, [bad] + products[1:])


def test_covariance_rejects_a_flipped_coefficient(ladder):
    params, rows, b, products = ladder
    bad = _replace_term(products[1], 0, lambda label, coeff: (label, -coeff))
    assert wl.covariance_errors(params, rows[0], b, products[0], bad)
    assert wl.check_ladder(params, rows, b, products[:1] + [bad] + products[2:])


def test_charge_rejects_a_shifted_charge(ladder):
    params, rows, b, products = ladder

    def shift(label, coeff):
        return bpfusion.standard_label(label.j + Fraction(1, 97), label.orbit, label.ell), coeff

    bad = _replace_term(products[0], 0, shift)
    assert wl.charge_errors(params, rows[0], b, products[0]) == []
    assert wl.charge_errors(params, rows[0], b, bad)


# ---------------------------------------------------------------------------
# verify-modular checks, on suite results at (5, 3)


@pytest.fixture(scope="module")
def suite_results():
    params = level_params(5, 3)
    return {name: SUITES[name](params, None) for name in wl.VERIFY_SUITES}


def test_suite_results_pass(suite_results):
    assert wl.orbit_count(5, 3) == 2
    assert wl.suite_errors(5, 3, suite_results) == []


def test_suite_check_rejects_a_failed_suite(suite_results):
    bad = dict(suite_results, **{"fusion-oracle": (False, "oracle mismatch")})
    assert wl.suite_errors(5, 3, bad)


def test_suite_check_rejects_a_wrong_count(suite_results):
    assert wl.suite_errors(5, 3, dict(suite_results, **{"w3-sigma-phase": (True, "3 pairs")}))
    assert wl.suite_errors(5, 3, dict(suite_results, **{"w3-verlinde": (True, "9 triples")}))


# ---------------------------------------------------------------------------
# smatrix-cli checks, on the printed matrix at (5, 4)

U, V = 5, 4


@pytest.fixture(scope="module")
def printed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["smatrix-w3", str(U), str(V)]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def fusion():
    return wl.w3_fusion_of_texts(level_params(U, V))


def _all_rows():
    n = wl.orbit_count(U, V)
    return [(a, b) for a in range(n) for b in range(n)]


def test_printed_matrix_passes(printed, fusion):
    assert wl.smatrix_errors(U, V, 0, printed, _all_rows(), fusion) == []


def test_conjugation_is_derived_from_the_orbit_strings():
    assert wl.conjugate_orbit_text("[[0,1,2;1,0,0]]") == "[[0,2,1;1,0,0]]"
    assert wl.least_rotation((1, 0, 2), (0, 0, 1)) == "[[0,2,1;0,1,0]]"


def test_count_check_rejects_a_dropped_orbit(printed):
    payload = json.loads(printed)
    payload["orbits"].pop()
    payload["entries"] = [row[:-1] for row in payload["entries"][:-1]]
    orbits, mat = wl.smatrix_from_json(payload)
    assert wl.count_errors(U, V, orbits, mat)


def test_symmetry_check_rejects_one_transposed_entry(printed):
    orbits, mat = wl.smatrix_from_json(json.loads(printed))
    assert wl.symmetric_errors(mat) == []
    j, k = next((j, k) for j in range(len(mat)) for k in range(j) if abs(mat[0, j] - mat[0, k]) > 1e-3)
    mat[0, j], mat[0, k] = mat[0, k], mat[0, j]
    assert wl.symmetric_errors(mat)


def test_unitarity_check_rejects_a_scaled_entry(printed):
    orbits, mat = wl.smatrix_from_json(json.loads(printed))
    assert wl.unitary_errors(mat) == []
    mat[1, 2] *= 1.01
    mat[2, 1] *= 1.01
    assert wl.symmetric_errors(mat) == []
    assert wl.unitary_errors(mat)


def test_conjugation_check_rejects_swapped_orbit_names(printed):
    orbits, mat = wl.smatrix_from_json(json.loads(printed))
    assert wl.conjugation_errors(orbits, mat) == []
    fixed = [i for i, text in enumerate(orbits) if wl.conjugate_orbit_text(text) == text]
    moved = [i for i, text in enumerate(orbits) if wl.conjugate_orbit_text(text) != text]
    i, j = fixed[0], moved[0]
    orbits[i], orbits[j] = orbits[j], orbits[i]
    assert wl.conjugation_errors(orbits, mat)


def test_verlinde_check_rejects_a_sign_flipped_orbit(printed, fusion):
    orbits, mat = wl.smatrix_from_json(json.loads(printed))
    vac = orbits.index(wl.least_rotation((U - 3, 0, 0), (V - 3, 0, 0)))
    k = next(i for i, text in enumerate(orbits) if i != vac and wl.conjugate_orbit_text(text) == text)
    mat[k, :] *= -1
    mat[:, k] *= -1  # still symmetric, unitary and squaring to C
    assert wl.symmetric_errors(mat) + wl.unitary_errors(mat) + wl.conjugation_errors(orbits, mat) == []
    # N(k, b, c) changes sign when just one of b, c is k
    assert wl.verlinde_errors(U, V, orbits, mat, [(k, b) for b in range(len(orbits))], fusion)


def test_smatrix_check_rejects_a_failed_command():
    assert wl.smatrix_errors(U, V, 1, "", [], None)


# ---------------------------------------------------------------------------
# tracer


def test_tracer_restores_every_name():
    before = {name: _resolve(target) for name, target in TARGETS.items()}
    tracer = Tracer()
    with tracer:
        assert _resolve(TARGETS["verlinde.fuse_standard"]) is not before["verlinde.fuse_standard"]
        params = level_params(4, 5)
        orbits = bpfusion.enumerate_infwts(params)
        a = bpfusion.standard_label(Fraction(1, 7), orbits[0], 0)
        bpfusion.fuse(params, a, a)
    assert {name: _resolve(target) for name, target in TARGETS.items()} == before
    assert tracer.stats["verlinde.fuse_standard"].calls == 1
    assert tracer.stats["w3modular.w3_fusion"].calls > 0


def _resolve(target):
    module, attr = target
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner.__dict__[attr]


# ---------------------------------------------------------------------------
# end to end


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "smatrix-cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
