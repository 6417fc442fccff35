import pytest

from bpfusion import w3modular
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


@pytest.mark.parametrize("u,v", [(6, 5), (7, 5)])
def test_fusion_oracle_passes_at_larger_levels(u, v):
    ok, detail = SUITES["fusion-oracle"](level_params(u, v), None)
    assert ok, f"fusion-oracle at ({u},{v}): {detail}"


@pytest.mark.parametrize("u,v", [(6, 5), (5, 7), (7, 5)])
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
