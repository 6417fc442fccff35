import copy
import dataclasses
import math

import pytest

import fusion_reference as reference
from bpfusion import verify, verlinde, w3modular
from bpfusion.levels import level_params
from bpfusion.verify import SUITES


@pytest.mark.parametrize("u,v", [(4, 3), (3, 4)])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(u, v, name):
    ok, detail = SUITES[name](level_params(u, v), None)
    assert ok, f"{name} at ({u},{v}): {detail}"


@pytest.mark.parametrize("u,v", [(5, 4), (4, 5)])
@pytest.mark.parametrize("name", ["fusion-oracle", "telescoping", "w3-verlinde"])
def test_fusion_suites_pass_past_the_smallest_models(u, v, name):
    ok, detail = SUITES[name](level_params(u, v), None)
    assert ok, f"{name} at ({u},{v}): {detail}"


@pytest.mark.parametrize("name", ["w3-sigma-phase", "w3-verlinde"])
def test_w3_suites_pass_at_8_7(name):
    ok, detail = SUITES[name](level_params(8, 7), None)
    assert ok and detail == {"w3-sigma-phase": "11025 pairs", "w3-verlinde": "1157625 triples"}[name], detail


@pytest.mark.parametrize("u,v", [(6, 5), (7, 5), (8, 7), (7, 8)])
def test_fusion_oracle_passes_at_larger_levels(u, v):
    ok, detail = SUITES["fusion-oracle"](level_params(u, v), None)
    assert ok, f"fusion-oracle at ({u},{v}): {detail}"


@pytest.mark.parametrize("u,v", [(6, 5), (5, 7), (7, 5), (8, 7)])
def test_telescoping_passes_at_larger_levels(u, v):
    ok, detail = SUITES["telescoping"](level_params(u, v), None)
    assert ok, f"telescoping at ({u},{v}): {detail}"


def test_unitarity_suite_reads_the_cached_smatrix(monkeypatch):
    p = level_params(5, 4)
    w3modular._cached_smatrix(p)
    builds = []
    real = w3modular.W3SMatrix.__init__

    def counted(self, params):
        builds.append(params)
        real(self, params)

    monkeypatch.setattr(w3modular.W3SMatrix, "__init__", counted)
    assert SUITES["w3-unitarity"](p, None) == (True, "symmetric: True, unitary: True, square=conjugation: True")
    assert builds == []


@pytest.mark.parametrize("u,v", [(6, 5), (5, 7)])
def test_fusion_oracle_equals_the_reference_suite(u, v):
    p = level_params(u, v)
    assert verify.suite_fusion_oracle(p) == reference.fusion_oracle_suite(p)


@pytest.mark.parametrize("block_bytes", [verify.ORACLE_BLOCK_BYTES, 2 * 16 * 6 * 6, 1], ids=["one", "pairs", "singles"])
def test_fusion_oracle_gathers_the_closed_form_and_takes_one_product_per_term(monkeypatch, block_bytes):
    """No fuse_standard call, and per block of a one oracle_values call that
    returns at most the three terms' products, each of the base's shape."""
    p = level_params(5, 4)  # 6 orbits
    calls = {"fuse_standard": 0, "oracle_values": 0}
    real_fuse, real_values = verlinde.fuse_standard, verify.oracle_values

    def counted_fuse(*args):
        calls["fuse_standard"] += 1
        return real_fuse(*args)

    def counted_values(smat, base, terms):
        calls["oracle_values"] += 1
        out = real_values(smat, base, terms)
        assert set(out) <= {0, 1, -1} and all(x.shape == base.shape for x in out.values())
        return out

    monkeypatch.setattr(verlinde, "fuse_standard", counted_fuse)
    monkeypatch.setattr(verify, "oracle_values", counted_values)
    monkeypatch.setattr(verify, "ORACLE_BLOCK_BYTES", block_bytes)
    assert verify.suite_fusion_oracle(p) == (True, "5184 coefficients")
    blocks = math.ceil(6 / max(1, block_bytes // (16 * 6 * 6)))
    assert calls == {"fuse_standard": 0, "oracle_values": blocks}


def _level_with_perturbed_factors(u, v, tensor, pick, delta):
    """A fresh level (u, v) whose fusion factors have entry `pick` of the flat
    tensor moved by delta."""
    real = w3modular.fusion_factors(level_params(u, v))
    arr = getattr(real, tensor).copy()
    arr.flat[pick] += delta
    arr.setflags(write=False)
    out = copy.copy(real)
    setattr(out, tensor, arr)
    p = dataclasses.replace(level_params(u, v))
    p.tables[w3modular.fusion_factors] = {(): out}
    return p


@pytest.mark.parametrize(
    "u,v,tensor,pick,delta,block_bytes",
    [
        (5, 4, "n_r", 0, 1, verify.ORACLE_BLOCK_BYTES),
        (5, 4, "n_s", -1, -1, verify.ORACLE_BLOCK_BYTES),
        (4, 5, "n_r", -1, 2, verify.ORACLE_BLOCK_BYTES),
        (4, 5, "n_s", 5, 1, 1),
        (6, 5, "n_r", 13, -1, 1),
    ],
    ids=str,
)
def test_a_perturbed_factor_fails_both_suites_alike(monkeypatch, u, v, tensor, pick, delta, block_bytes):
    """The suite and the reference, which reads the factors through
    fuse_standard, name the same first failure."""
    p = _level_with_perturbed_factors(u, v, tensor, pick, delta)
    monkeypatch.setattr(verify, "ORACLE_BLOCK_BYTES", block_bytes)
    got = verify.suite_fusion_oracle(p)
    assert not got[0]
    assert got == reference.fusion_oracle_suite(p)


@pytest.mark.parametrize("u,v,pick", [(5, 4, 0), (5, 4, 9), (4, 5, 17), (6, 5, 40), (5, 7, 101)], ids=str)
def test_a_perturbed_shift_target_fails_both_suites_alike(u, v, pick):
    """One omega-shift target moved (onto the boundary, or off it onto an
    orbit): the suite and the reference, whose fuse_standard reads the same
    table, name the same first failure."""
    targets = verlinde._shift_targets(level_params(u, v)).copy()
    old = targets.flat[pick]
    targets.flat[pick] = -1 if old >= 0 else pick % len(targets)
    targets.setflags(write=False)
    # a fresh level that holds the moved targets in place of its own
    p = dataclasses.replace(level_params(u, v))
    p.tables[verlinde._shift_targets] = {(): targets}
    got = verify.suite_fusion_oracle(p)
    assert not got[0]
    assert got == reference.fusion_oracle_suite(p)
