"""Counted, not timed: the exact work one resolution-path `fuse` does.

A label hashes its fields once and keeps the value, so `Fraction.__hash__`
(reached only through a standard label's charge) runs at most once per
label built.  W3 fusion coefficients are read off the two sl3 fusion
tables, so the Kac-Walton entry point, which re-checks integrability on
every call, is never reached.  The resolution path builds the series
(head and periodic block) of each highest-weight label once; that count
is taken on a fresh level (`dataclasses.replace`), whose tables are all
empty, since a level keeps every series and W3 row it builds.  It builds
the product on integer keys: `fuse_standard` is never called, each
distinct pair of orbits has its W3 rows read once, and labels are built
only for the terms that survive.
"""
import dataclasses
import sys
from fractions import Fraction

import pytest

from bpfusion import labels, levels, sl3, verlinde, w3modular
from bpfusion.labels import parse_label
from bpfusion.levels import level_params
from bpfusion.verlinde import fuse

LABEL_TYPES = (levels.RSLabel, levels.OrbitClass, labels.HWLabel, labels.StandardLabel)


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _count_in_bpfusion(monkeypatch, counts, key, original):
    """Count the calls made through every bpfusion module name bound to `original`."""
    counted = _counting(counts, key, original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bpfusion" and module.__dict__.get(key) is original:
            monkeypatch.setattr(module, key, counted)


def test_one_fuse_hashes_each_charge_once_and_skips_kac_walton(monkeypatch):
    p = level_params(7, 5)
    a = parse_label(p, "I[1,1,2;0,1,1]^1/2")
    b = parse_label(p, "R~[5/97;[[1,1,2;0,1,1]]]^1")
    expected = fuse(p, a, b)  # warm every per-level cache first

    counts = dict.fromkeys(("built", "fraction_hash", "kac_walton"), 0)
    for cls in LABEL_TYPES:
        monkeypatch.setattr(cls, "__init__", _counting(counts, "built", cls.__init__))
    monkeypatch.setattr(Fraction, "__hash__", _counting(counts, "fraction_hash", Fraction.__hash__))
    _count_in_bpfusion(monkeypatch, counts, "kac_walton", sl3.kac_walton)

    product = fuse(p, a, b)
    monkeypatch.undo()

    assert product == expected and len(product) == 25
    assert counts["built"] > 0
    assert counts["fraction_hash"] <= counts["built"], counts
    assert counts["kac_walton"] == 0, counts


def _resolution_path_counts(monkeypatch, u, v, first, second):
    p = level_params(u, v)
    a, b = parse_label(p, first), parse_label(p, second)
    expected = fuse(p, a, b)  # warm every per-level cache first
    counts = dict.fromkeys(("StandardLabel", "fuse_standard", "w3_fusion"), 0)
    monkeypatch.setattr(
        labels.StandardLabel, "__init__", _counting(counts, "StandardLabel", labels.StandardLabel.__init__)
    )
    _count_in_bpfusion(monkeypatch, counts, "fuse_standard", verlinde.fuse_standard)
    _count_in_bpfusion(monkeypatch, counts, "w3_fusion", w3modular.w3_fusion)
    product = fuse(p, a, b)
    monkeypatch.undo()
    assert product == expected
    return counts


def test_resolution_path_reads_rows_once_per_orbit_pair(monkeypatch):
    counts = _resolution_path_counts(monkeypatch, 7, 5, "I[1,1,2;0,1,1]^1/2", "R~[5/97;[[1,1,2;0,1,1]]]^1")
    assert counts["fuse_standard"] == 0, counts
    assert counts["w3_fusion"] <= 250, counts
    assert counts["StandardLabel"] <= 150, counts


@pytest.mark.parametrize(
    "first,second",
    [("I[0,0,2;1,-1,1]^0", "I[0,1,1;0,0,1]^1/2"), ("I[2,0,0;1,-1,1]^3", "I[1,0,1;1,-1,1]^1")],
    ids=["hw-by-hw", "out-of-order"],
)
def test_highest_weight_pair_reads_few_w3_coefficients(monkeypatch, first, second):
    counts = _resolution_path_counts(monkeypatch, 5, 4, first, second)
    assert counts["fuse_standard"] == 0, counts
    assert counts["w3_fusion"] <= 60, counts


def _counting_series(monkeypatch, built):
    """Record the label of every series build (`labels._series` misses)."""
    build = labels._series.__wrapped__

    def counted(params, lam):
        built.append(levels.enumerate_surv(params)[lam])
        return build(params, lam)

    monkeypatch.setattr(labels, "_series", levels.per_level(counted))


def test_one_series_against_a_standard_label(monkeypatch):
    p = dataclasses.replace(level_params(7, 5))  # a fresh level: no series or rows built yet
    a = parse_label(p, "I[1,1,2;0,1,1]^1/2")
    b = parse_label(p, "R~[5/97;[[1,1,2;0,1,1]]]^1")
    built = []
    _counting_series(monkeypatch, built)
    fuse(p, a, b)
    assert built == [a.lam], [str(lam) for lam in built]


def test_one_series_per_highest_weight_label(monkeypatch):
    p = dataclasses.replace(level_params(5, 4))
    a = parse_label(p, "I[2,0,0;1,-1,1]^3")
    b = parse_label(p, "I[1,0,1;1,-1,1]^1")
    built = []
    _counting_series(monkeypatch, built)
    fuse(p, a, b)
    assert sorted(built) == sorted([a.lam, b.lam]), [str(lam) for lam in built]
