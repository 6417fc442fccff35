"""Every per-level table lives on its `LevelParams`.

`level_params(u, v)` returns one instance per pair, and that instance
holds every table built for the level (`levels.per_level`): the weight
labels, the orbit and gap tables, the S-matrix, the fusion factors, the
shift targets, the series and the W3 rows.  A fresh level
(`dataclasses.replace`) is equal to the cached one and holds no table, so
dropping it frees what was built on it.  The only other memoised
functions in `src/` are sl3's three tables and the CLI's parser.
"""
import ast
import dataclasses
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from math import gcd
from pathlib import Path

import pytest

import bpfusion
from bpfusion import labels, levels, w3modular
from bpfusion.levels import AdmissibilityError, level_params, orbit_table, per_level

SRC = Path(bpfusion.__file__).resolve().parent
MEMOISED = {"levels._level", "sl3.weight_multiplicities", "sl3.tensor_decompose", "sl3.fusion_table", "cli._parser"}


def test_one_instance_per_level_pair():
    assert level_params(5, 4) is level_params(5, 4)
    assert level_params(5, 4) is not level_params(4, 5)


def test_concurrent_first_calls_share_one_instance():
    # pairs no other test builds, so each first call below is concurrent
    pairs = [(u, v) for u in range(60, 75) for v in range(60, 75) if gcd(u, v) == 1][:100]

    def first_call(barrier, u, v):
        barrier.wait()
        return level_params(u, v)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for u, v in pairs:
                barrier = threading.Barrier(4, timeout=60)
                got = [f.result(timeout=60) for f in [pool.submit(first_call, barrier, u, v) for _ in range(4)]]
                assert all(x is level_params(u, v) for x in got), (u, v)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("u,v", [([5], 4), (5.0, 4), (5, None), ("5", 4)], ids=str)
def test_a_non_integer_pair_is_an_admissibility_error(u, v):
    # validated before the cache is reached, which would raise TypeError on a list
    with pytest.raises(AdmissibilityError, match="must be integers"):
        level_params(u, v)


def test_a_replaced_level_is_equal_and_holds_no_tables():
    p = level_params(5, 4)
    orbit_table(p)
    q = dataclasses.replace(p)
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert p.tables and q.tables == {}
    assert orbit_table(q) is not orbit_table(p) and orbit_table(q) == orbit_table(p)
    assert set(q.tables) == {orbit_table, levels._surv}


def test_threads_that_all_build_an_entry_get_the_first_stored():
    barrier = threading.Barrier(4, timeout=60)

    def build(params, n):
        barrier.wait()  # all four threads are inside the builder at once
        return object()

    read = per_level(build)
    q = dataclasses.replace(level_params(5, 4))
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = [f.result(timeout=60) for f in [pool.submit(read, q, 1) for _ in range(4)]]
    assert all(x is got[0] for x in got)
    assert q.tables[read] == {(1,): got[0]} and read(q, 1) is got[0]


def _fill(params):
    """Build every kind of per-level table at params."""
    a = labels.parse_label(params, "I[2,0,0;1,-1,1]^3")
    b = labels.parse_label(params, "I[1,0,1;1,-1,1]^1")
    c = labels.parse_label(params, "R~[5/97;[[1,0,1;1,0,0]]]^1")
    bpfusion.fuse(params, a, b)
    bpfusion.fuse(params, a, c)
    bpfusion.fuse(params, c, c)
    bpfusion.standard_kernel(params, c, c)


def test_a_dropped_level_frees_its_tables_and_leaves_the_cached_ones():
    p = level_params(5, 4)
    _fill(p)
    before = {read: dict(table) for read, table in p.tables.items()}
    q = dataclasses.replace(p)
    _fill(q)
    assert set(q.tables) == set(before)
    smat, factors = weakref.ref(w3modular._cached_smatrix(q)), weakref.ref(w3modular.fusion_factors(q))
    level = weakref.ref(q)
    del q
    gc.collect()
    assert smat() is None and factors() is None and level() is None
    assert set(p.tables) == set(before)
    for read, table in before.items():
        assert p.tables[read].keys() == table.keys()
        assert all(p.tables[read][key] is value for key, value in table.items()), read.__name__


def test_each_table_is_read_through_one_name_that_takes_the_level():
    q = dataclasses.replace(level_params(5, 4))
    _fill(q)
    names = {f"{read.__module__.rsplit('.', 1)[1]}.{read.__name__}" for read in q.tables}
    assert names == {
        "levels._surv", "levels.orbit_table", "labels.gap_table", "labels._gap_of_member", "labels._series",
        "w3modular._cached_smatrix", "w3modular.fusion_factors", "verlinde._shift_targets", "verlinde._rows_at",
    }
    for read in q.tables:
        module = getattr(bpfusion, read.__module__.rsplit(".", 1)[1])
        assert getattr(module, read.__name__) is read
    assert all(type(x) is int for key in q.tables[labels._series] for x in key)
    assert q.tables[w3modular.fusion_factors] == {(): w3modular.fusion_factors(q)}


def _memoised_functions():
    """module.function for every function in src/ decorated with lru_cache
    or cache, and every use of those names that is not such a decorator."""
    found, other = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                        found.add(f"{path.stem}.{node.name}")
                        decorators.add(id(target))
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None)) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if name in ("lru_cache", "cache") and id(node) not in decorators:
                other.append(f"{path.stem}:{node.lineno}")
    return found, other


def test_the_only_memoised_functions_are_the_level_builder_sl3_and_the_parser():
    found, other = _memoised_functions()
    assert found == MEMOISED
    assert other == []
