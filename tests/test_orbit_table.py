"""Properties of the orbit table: the one place where orbit identity, order,
position and fusion representative are decided at each (u, v)."""
import dataclasses
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.levels import (
    LabelError,
    RSLabel,
    conjugate_orbit,
    conjugate_rs,
    enumerate_infwts,
    enumerate_surv,
    level_params,
    orbit_of,
    orbit_table,
    sigma,
    vacuum_orbit,
)
from bpfusion.sl3 import triality
from bpfusion.w3modular import _cached_smatrix, w3_fusion

PAIRS = [(u, v) for u in range(3, 12) for v in range(3, 12) if gcd(u, v) == 1]
levels = st.sampled_from(PAIRS).map(lambda uv: level_params(*uv))


def reference_orbit(label: RSLabel) -> tuple[RSLabel, tuple[RSLabel, ...]]:
    """The orbit built from scratch: the smallest member of the label's
    order-3 cycle, followed by its two images."""
    cycle = (label, sigma(label), sigma(sigma(label)))
    assert len(set(cycle)) == 3
    rep = min(cycle)
    return rep, (rep, sigma(rep), sigma(sigma(rep)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_of_is_the_smallest_member_of_the_cycle(data):
    p = data.draw(levels)
    label = data.draw(st.sampled_from(enumerate_surv(p)))
    if label.s[1] < 0:
        message = f"{label} is not an interior label at ({p.u},{p.v})"
        with pytest.raises(LabelError, match=f"^{re.escape(message)}$"):
            orbit_of(p, label)
        return
    orb = orbit_of(p, label)
    assert (orb.rep, orb.members) == reference_orbit(label)
    assert conjugate_orbit(p, orb) == orbit_of(p, conjugate_rs(label))


@given(levels, st.tuples(*[st.integers(-2, 12)] * 6))
@settings(max_examples=200, deadline=None)
def test_orbit_of_refuses_every_label_outside_the_interior(p, entries):
    label = RSLabel(entries[:3], entries[3:])
    interior = label in set(enumerate_surv(p)) and label.s[1] >= 0
    if interior:
        assert orbit_of(p, label).members == reference_orbit(label)[1]
    else:
        with pytest.raises(LabelError, match="is not an interior label"):
            orbit_of(p, label)


@given(levels)
@settings(max_examples=40, deadline=None)
def test_positions_follow_enumerate_infwts(p):
    table = orbit_table(p)
    orbits = enumerate_infwts(p)
    interior = [x for x in enumerate_surv(p) if x.s[1] >= 0]
    assert [(orb.rep, orb.members) for orb in orbits] == sorted({reference_orbit(x) for x in interior})
    assert len(interior) == 3 * len(orbits)
    assert list(table.orbits) == orbits
    assert [table.position[orb] for orb in orbits] == list(range(len(orbits)))
    assert table.vacuum == vacuum_orbit(p) == orbit_of(p, RSLabel((p.u - 3, 0, 0), (p.v - 3, 0, 0)))


@given(levels)
@settings(max_examples=40, deadline=None)
def test_each_orbit_has_exactly_one_aligned_member(p):
    table = orbit_table(p)
    for orb in table.orbits:
        side = [m.s if p.u % 3 == 0 else m.r for m in orb.members]
        aligned = [m for m, t in zip(orb.members, side) if triality(t[1:]) == 0]
        assert aligned == [table.fusion_rep[orb]]


@given(levels)
@settings(max_examples=20, deadline=None)
def test_the_table_refuses_assignment(p):
    table = orbit_table(p)
    orb = table.orbits[0]
    for mapping, key in ((table.index, orb.rep), (table.position, orb), (table.fusion_rep, orb)):
        with pytest.raises(TypeError):
            mapping[key] = None
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(TypeError):
        table.orbits[0] = orb
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.vacuum = orb
    assert orbit_table(p) is table


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_w3_fusion_is_symmetric_with_the_vacuum_as_unit(data):
    p = data.draw(levels)
    orbits = orbit_table(p).orbits
    a, b, c = (data.draw(st.sampled_from(orbits)) for _ in range(3))
    vac = vacuum_orbit(p)
    assert w3_fusion(p, a, b, c) == w3_fusion(p, b, a, c)
    assert w3_fusion(p, vac, a, c) == (a == c)


def test_smatrix_rows_use_the_table_positions():
    p = level_params(7, 5)
    smat = _cached_smatrix(p)
    assert smat.orbits == orbit_table(p).orbits
    assert [smat.index(orb) for orb in smat.orbits] == list(range(len(smat.orbits)))
    with pytest.raises(LabelError, match=r"is not an orbit at \(7,5\)"):
        smat.index(enumerate_infwts(level_params(5, 4))[1])
    with pytest.raises(LabelError, match=r"is not an orbit at \(7,5\)"):
        w3_fusion(p, smat.orbits[0], smat.orbits[0], enumerate_infwts(level_params(5, 4))[1])
