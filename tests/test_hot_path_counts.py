"""Counted, not timed: the exact work one resolution-path `fuse` does.

A label hashes its fields once and keeps the value, so `Fraction.__hash__`
(reached only through a standard label's charge) runs at most once per
label built.  W3 fusion coefficients are read off the two sl3 fusion
tables, so the Kac-Walton entry point, which re-checks integrability on
every call, is never reached.  The resolution path resolves its second
label once, and its first label once per distinct flow-0 term of that
resolution (once in all against a standard label).
"""
import sys
from fractions import Fraction

from bpfusion import labels, levels, sl3
from bpfusion.labels import parse_label
from bpfusion.levels import level_params
from bpfusion.verlinde import fuse

LABEL_TYPES = (levels.RSLabel, levels.OrbitClass, labels.HWLabel, labels.StandardLabel)


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_one_fuse_hashes_each_charge_once_and_skips_kac_walton(monkeypatch):
    p = level_params(7, 5)
    a = parse_label(p, "I[1,1,2;0,1,1]^1/2")
    b = parse_label(p, "R~[5/97;[[1,1,2;0,1,1]]]^1")
    expected = fuse(p, a, b)  # warm every per-level cache first

    counts = dict.fromkeys(("built", "fraction_hash", "kac_walton"), 0)
    for cls in LABEL_TYPES:
        monkeypatch.setattr(cls, "__init__", _counting(counts, "built", cls.__init__))
    monkeypatch.setattr(Fraction, "__hash__", _counting(counts, "fraction_hash", Fraction.__hash__))
    original = sl3.kac_walton
    counted = _counting(counts, "kac_walton", original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bpfusion" and module.__dict__.get("kac_walton") is original:
            monkeypatch.setattr(module, "kac_walton", counted)

    product = fuse(p, a, b)
    monkeypatch.undo()

    assert product == expected and len(product) == 25
    assert counts["built"] > 0
    assert counts["fraction_hash"] <= counts["built"], counts
    assert counts["kac_walton"] == 0, counts


def _counting_resolution(monkeypatch, seen):
    """Record the (label, result) of every `resolution` call in bpfusion."""
    original = labels.resolution

    def counted(params, lam, depth):
        out = original(params, lam, depth)
        seen.append((lam, out))
        return out

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bpfusion" and module.__dict__.get("resolution") is original:
            monkeypatch.setattr(module, "resolution", counted)


def test_one_resolution_against_a_standard_label(monkeypatch):
    p = level_params(7, 5)
    a = parse_label(p, "I[1,1,2;0,1,1]^1/2")
    b = parse_label(p, "R~[5/97;[[1,1,2;0,1,1]]]^1")
    seen = []
    _counting_resolution(monkeypatch, seen)
    fuse(p, a, b)
    assert len(seen) == 1, [str(lam) for lam, _ in seen]


def test_one_resolution_per_distinct_base_term_of_the_second_label(monkeypatch):
    p = level_params(5, 4)
    a = parse_label(p, "I[2,0,0;1,-1,1]^3")
    b = parse_label(p, "I[1,0,1;1,-1,1]^1")
    seen = []
    _counting_resolution(monkeypatch, seen)
    fuse(p, a, b)
    of_b = [res for lam, res in seen if lam == b]
    assert len(of_b) == 1
    base_terms = {(term.j, term.orbit) for term, _ in of_b[0].items()}
    assert len(base_terms) == 3
    assert len(seen) == 1 + len(base_terms), [str(lam) for lam, _ in seen]
