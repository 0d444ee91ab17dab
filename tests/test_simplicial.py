import itertools
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PerCellRanks, boundary, is_compatible, morphism_cell, pair_groupoid_z3_relabelled, rows
from test_algebra import _corrupt, permutation_module
from xnerve import fixtures, simplicial
from xnerve.algebra import ValidationReport, Violation
from xnerve.errors import CapacityError, CompatibilityError, NotKanError
from xnerve.cli import run
from xnerve.homotopy import higher_vanishing, pi_compare
from xnerve.io import from_crossed_monoid, serialize
from xnerve.nerve import Nerve, _RankMaps
from xnerve.simplicial import (
    BoundaryTuple,
    CoskeletalRecord,
    HornTuple,
    KanRecord,
    audit_simplicial,
    beta,
    check_coskeletal,
    check_kan,
    horns,
    is_compatible_horn,
    pi_bruteforce,
    simplicial_kernel,
)


def naive_kernel(nv, n):
    """Product-filter oracle for the compatibility kernel, tiny inputs only."""
    cells = list(nv.cells(n - 1))
    out = []
    for tup in itertools.product(cells, repeat=n + 1):
        ok = True
        if n >= 2:
            for j in range(n):
                for k in range(j + 1, n + 1):
                    if nv.face(tup[k], j) != nv.face(tup[j], k - 1):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(BoundaryTuple(tup))
    return out


class CorruptedFace(PerCellRanks):
    """Wraps a provider, overriding d_0 on one chosen cell."""

    def __init__(self, base, victim, replacement):
        self.base = base
        self.victim = victim
        self.replacement = replacement

    def cells(self, n):
        return self.base.cells(n)

    def face(self, cell, j):
        if cell == self.victim and j == 0:
            return self.replacement
        return self.base.face(cell, j)

    def degeneracy(self, cell, j):
        return self.base.degeneracy(cell, j)


def test_boundary_example(nv_z2):
    m = nv_z2.cell((0, 0, 0), ((1, 0), (1,)))
    bt = boundary(nv_z2, m)
    assert bt.faces == (morphism_cell(nv_z2, 1), morphism_cell(nv_z2, 0), morphism_cell(nv_z2, 1))
    assert is_compatible(nv_z2, bt)


def test_every_boundary_is_compatible(nv_z2_z3):
    for cell in nv_z2_z3.cells(2):
        assert is_compatible(nv_z2_z3, boundary(nv_z2_z3, cell))


def test_kernel_sizes_and_oracle(nv_z2, nv_z2_z3, nv_trivial, nv_pair):
    # hash join agrees with the product filter wherever the latter is feasible
    for nv, n in ((nv_z2, 2), (nv_z2, 3), (nv_pair, 2), (nv_z2_z3, 2)):
        fast = simplicial_kernel(nv, n)
        assert len(fast) == len(set(fast))
        assert set(fast) == set(naive_kernel(nv, n))
    # one-object, trivial boundary: every triple of edges is compatible
    assert len(simplicial_kernel(nv_z2_z3, 2)) == 8
    for n in range(1, 5):
        assert len(simplicial_kernel(nv_trivial, n)) == 1


def test_kernel_dim4_size_matches_cells(nv_z2_z3):
    # 3-coskeletal range: the boundary map is a bijection in dimension 4
    assert len(simplicial_kernel(nv_z2_z3, 4)) == 11664


def test_horn_counts(nv_z2, nv_trivial):
    assert len(horns(nv_z2, 2, 1)) == 4
    for n in (1, 2, 3):
        for l in range(n + 1):
            assert len(horns(nv_trivial, n, l)) == 1


def test_horns_are_compatible_and_capacity_guard(nv_z2_z3):
    for l in range(4):
        for h in horns(nv_z2_z3, 3, l):
            assert is_compatible_horn(nv_z2_z3, h)
    with pytest.raises(CapacityError):
        horns(Nerve(nv_z2_z3.xm, cap=50), 4, 0)


def test_a_dimension_below_zero_is_refused_by_name(xm_z2):
    # a dimension below zero is a bad argument, not a broken provider: each
    # call is refused with a text that names the dimension
    nv = Nerve(xm_z2)
    for call, message in ((lambda: check_kan(nv, 2, from_dim=0), "horns need dimension >= 1"),
                          (lambda: check_coskeletal(nv, -1, 1), "kernel needs dimension >= 1"),
                          (lambda: nv.level(-1), "levels need dimension >= 0, got -1")):
        with pytest.raises(CompatibilityError, match=f"^{re.escape(message)}$"):
            call()


def test_idempotent_fiber_has_the_expected_witness_horn(nv_idempotent):
    found = [
        h
        for h in horns(nv_idempotent, 3, 1)
        if tuple(c.rows[0][1] for c in h.faces) == (0, 0, 1)
    ]
    assert found, "the corner pattern (e, _, e, a) must appear among the horns"


def test_beta_example_and_membership(nv_z2, nv_trivial, nv_z2_z3):
    h = next(
        h for h in horns(nv_z2, 2, 1)
        if h.faces == (morphism_cell(nv_z2, 1), morphism_cell(nv_z2, 1))
    )
    bt = beta(nv_z2, h)
    assert bt.faces == (nv_z2.point(0), nv_z2.point(0))
    (ht,) = horns(nv_trivial, 2, 1)
    assert beta(nv_trivial, ht).faces == (nv_trivial.point(0), nv_trivial.point(0))
    # exhaustive: every horn of the 12-edge fixture in dimensions 3 and 4
    for n in (3, 4):
        for l in range(n + 1):
            for h in horns(nv_z2_z3, n, l):
                assert is_compatible(nv_z2_z3, beta(nv_z2_z3, h))


def test_surjective_boundaries_force_fillable_horns(nv_z2, nv_trivial):
    # once the boundary maps of two consecutive dimensions are onto, every
    # horn one dimension up must fill; checked where the premise holds
    for nv in (nv_z2, nv_trivial):
        records = check_coskeletal(nv, 2, 4)
        assert all(r.surjective for r in records)  # dimensions 3 and 4
        report = check_kan(nv, upto=4, from_dim=4)
        assert report.is_kan


def test_audit_passes_on_all_fixtures():
    for build, maxdim in (
        (fixtures.trivial_point, 4),
        (fixtures.group_z2, 4),
        (fixtures.z3_fiber_only, 4),
        (fixtures.idempotent_fiber, 4),
        (fixtures.pair_groupoid_z3, 3),
        (fixtures.z3_identity_boundary, 3),
    ):
        report = audit_simplicial(Nerve(build()), maxdim)
        assert report.passed, (build.__name__, report.violations)


def test_audit_catches_fault_injection(nv_z2):
    cells2 = list(nv_z2.cells(2))
    victim = cells2[0]
    wrong = morphism_cell(nv_z2, 1) if nv_z2.face(victim, 0) == morphism_cell(nv_z2, 0) else morphism_cell(nv_z2, 0)
    corrupted = CorruptedFace(nv_z2, victim, wrong)
    report = audit_simplicial(corrupted, 2)
    assert not report.passed
    assert any(v.axiom in {"simp1", "simp2", "simp3", "simp4"} for v in report.violations)


def test_coskeletal_reports(nv_z2, nv_idempotent, nv_trivial):
    (rec5,) = check_coskeletal(nv_z2, 4, 5)
    assert rec5.bijective and rec5.cell_count == 32 and rec5.kernel_size == 32
    (rec5i,) = check_coskeletal(nv_idempotent, 4, 5)
    assert rec5i.bijective and rec5i.cell_count == 1024
    for rec in check_coskeletal(nv_trivial, 1, 6):
        assert rec.bijective
    # dimension 2 on the untwisted fixture: neither injective nor surjective
    (rec2,) = check_coskeletal(Nerve(fixtures.z2_with_z3_fiber()), 1, 2)
    assert not rec2.injective and not rec2.surjective
    assert rec2.injectivity_witness is not None and rec2.surjectivity_witness is not None


def test_kan_reports(nv_z2_z3, nv_idempotent, nv_trivial):
    assert check_kan(nv_z2_z3, upto=3).is_kan
    assert check_kan(nv_trivial, upto=4).is_kan
    report = check_kan(nv_idempotent, upto=3)
    assert not report.is_kan
    by_key = {(r.dim, r.omitted): r for r in report.records}
    assert by_key[(2, 0)].fillable and by_key[(2, 1)].fillable and by_key[(2, 2)].fillable
    witness = by_key[(3, 1)].witness
    assert witness is not None
    assert tuple(c.rows[0][1] for c in witness.faces) == (0, 0, 1)


def test_pi_bruteforce_examples(nv_z2, nv_z2_z3, nv_trivial):
    g = pi_bruteforce(nv_z2, 1, nv_z2.point(0))
    assert g.order == 2 and g.table == ((0, 1), (1, 0))
    g = pi_bruteforce(nv_z2_z3, 2, nv_z2_z3.point(0))
    assert g.order == 3 and g.is_abelian
    for n in (1, 2):
        assert pi_bruteforce(nv_trivial, n, nv_trivial.point(0)).order == 1


def test_pi_bruteforce_refuses_non_kan(nv_idempotent):
    with pytest.raises(NotKanError) as err:
        pi_bruteforce(nv_idempotent, 1, nv_idempotent.point(0))
    assert err.value.dim == 3


# -- level tables against an object-level reference ------------------------


def ref_join(p, n, omitted=None):
    """Object-level hash join over whole cells: the kernel (``omitted`` None)
    or the horns without slot ``omitted``, in join order."""
    lower = list(p.cells(n - 1))
    slots = [k for k in range(n + 1) if k != omitted]
    fv = {c: tuple(p.face(c, j) for j in range(n)) if n >= 2 else () for c in lower}
    partial = [()]
    for pos, k in enumerate(slots):
        placed = slots[:pos] if n >= 2 else []
        index = {}
        for c in lower:
            index.setdefault(tuple(fv[c][j] for j in placed), []).append(c)
        partial = [
            tup + (c,)
            for tup in partial
            for c in index.get(tuple(fv[x][k - 1] for x in tup[: len(placed)]), ())
        ]
    return partial


def ref_check_kan(p, upto, from_dim=1):
    records = []
    for n in range(from_dim, upto + 1):
        rows = [tuple(p.face(c, j) for j in range(n + 1)) for c in p.cells(n)]
        for l in range(n + 1):
            filled = {r[:l] + r[l + 1:] for r in rows}
            hs = ref_join(p, n, l)
            bad = [h for h in hs if h not in filled]
            records.append(KanRecord(n, l, len(hs), len(bad), HornTuple(n, l, bad[0]) if bad else None))
    return records


def ref_check_coskeletal(p, n, upto):
    records = []
    for k in range(n + 1, upto + 1):
        kernel = set(ref_join(p, k))
        image, inj, count = {}, None, 0
        for cell in p.cells(k):
            count += 1
            other = image.setdefault(tuple(p.face(cell, j) for j in range(k + 1)), cell)
            if other != cell and inj is None:
                inj = (other, cell)
        if image.keys() - kernel:
            raise CompatibilityError(f"boundary of a {k}-cell escaped the kernel; provider is broken")
        missing = kernel - image.keys()
        witness = min(missing) if missing else None
        records.append(CoskeletalRecord(
            k, count, len(kernel), inj is None, not missing, inj,
            BoundaryTuple(witness) if witness else None,
        ))
    return records


def ref_pi(p, n, basepoint):
    """Labels, unit and table of the brute-force group: classes merged as
    plain sets, products found by scanning every (n+1)-cell."""
    tower = [basepoint]
    for _ in range(n):
        tower.append(p.degeneracy(tower[-1], 0))
    below, level = tower[n - 1], tower[n]
    members = [c for c in p.cells(n) if all(p.face(c, j) == below for j in range(n + 1))]
    upper = list(p.cells(n + 1))
    cls = {c: frozenset([c]) for c in members}
    for w in upper:
        if all(p.face(w, j) == level for j in range(n)):
            y, z = p.face(w, n), p.face(w, n + 1)
            if y in cls and z in cls:
                merged = cls[y] | cls[z]
                for c in merged:
                    cls[c] = merged
    rep_of = {c: min(cls[c]) for c in members}
    reps = sorted(set(rep_of.values()))
    index = {r: i for i, r in enumerate(reps)}

    def product(y, z):
        for w in upper:
            if (all(p.face(w, j) == level for j in range(n - 1))
                    and p.face(w, n - 1) == y and p.face(w, n + 1) == z):
                return p.face(w, n)

    table = tuple(tuple(index[rep_of[product(y, z)]] for z in reps) for y in reps)
    return tuple(r.text() for r in reps), index[rep_of[level]], table


def _corrupted_f4():
    nv = Nerve(fixtures.z2_with_z3_fiber())
    victim = list(nv.cells(2))[5]
    wrong = morphism_cell(nv, 1) if nv.face(victim, 0) == morphism_cell(nv, 0) else morphism_cell(nv, 0)
    return CorruptedFace(nv, victim, wrong)


PROVIDERS = {
    "F4": lambda: Nerve(fixtures.z2_with_z3_fiber()),
    "F6": lambda: Nerve(fixtures.z2_with_z3_fiber_twisted()),
    "pair": lambda: Nerve(fixtures.pair_groupoid_z3()),
    "idempotent": lambda: Nerve(fixtures.idempotent_fiber()),
    "corrupted-F4": _corrupted_f4,
}


FIXTURES = (
    fixtures.trivial_point, fixtures.group_z2, fixtures.z3_fiber_only, fixtures.z2_with_z3_fiber,
    fixtures.z2_with_z3_fiber_twisted, fixtures.idempotent_fiber, fixtures.broken_exchange,
    fixtures.z3_identity_boundary, fixtures.idempotent_endo_category, fixtures.pair_groupoid_z3,
    fixtures.empty_crossed_monoid,
)


def _union_f6_idempotent():
    # fibers of sizes 3 and 2
    return fixtures.disjoint_union(fixtures.z2_with_z3_fiber_twisted(), fixtures.idempotent_fiber())


# name -> (provider builder, highest dimension checked)
LEVEL_CASES = {
    **{name: (build, 3) for name, build in PROVIDERS.items()},
    **{f"fixture-{b.__name__}": (lambda b=b: Nerve(b()), 3) for b in FIXTURES},
    "union-F6-idempotent": (lambda: Nerve(_union_f6_idempotent()), 3),
    "S4": (lambda: Nerve(permutation_module(4, even_fiber=False)), 2),
    "pair-relabelled": (lambda: Nerve(pair_groupoid_z3_relabelled()), 4),
}


class PerCell(PerCellRanks):
    """Exposes only ``cells``, ``face`` and ``degeneracy`` of a provider, so
    that ``level`` fills its face tables through the reference adapter, by
    per-cell ``face`` calls: the reference for ``Nerve.face_rows``."""

    def __init__(self, base):
        self.base = base

    def cells(self, n):
        return self.base.cells(n)

    def face(self, cell, j):
        return self.base.face(cell, j)

    def degeneracy(self, cell, j):
        return self.base.degeneracy(cell, j)


def face_tables_or_error(p, maxdim):
    """The face tables of dimensions 0..maxdim, ending with the error text
    at the first level refused with CompatibilityError."""
    out = []
    for n in range(maxdim + 1):
        try:
            out.append(p.level(n))
        except CompatibilityError as exc:
            out.append(str(exc))
            break
    return out


@pytest.mark.parametrize("name", sorted(LEVEL_CASES))
def test_level_tables_match_face_and_sort_order(name):
    build, maxdim = LEVEL_CASES[name]
    p = build()
    for n in range(maxdim + 1):
        lv = p.level(n)
        cells = [p.cell_at(n, i) for i in range(p.count_cells(n))]
        assert cells == list(p.cells(n))
        assert cells == sorted(cells)
        assert [p.rank_of(c) for c in cells] == list(range(len(cells)))
        if n == 0:
            assert lv == []  # 0-cells have no faces
            continue
        assert len(lv) == n + 1 and all(len(col) == len(cells) for col in lv)
        for row, c in zip(rows(lv), cells):
            assert row == tuple(p.rank_of(p.face(c, j)) for j in range(n + 1))
    if isinstance(p, Nerve):
        assert face_tables_or_error(p, maxdim) == face_tables_or_error(PerCell(p), maxdim)


def test_level_tables_refuse_an_ill_typed_composite_like_the_reference():
    # g*g lands on the other object, so a 2-cell's diagonal has no 1-cell
    nv = Nerve(_corrupt(_union_f6_idempotent(), "compose", (1, 1), 2))
    expected = face_tables_or_error(PerCell(nv), 3)
    assert expected[-1] == "a face of a 2-cell is not a 1-cell; provider is broken"
    assert face_tables_or_error(nv, 3) == expected


def _level_corruption_sites(xm):
    """Per table kind, (site, other values) for every entry of the tables
    the nerve reads, restricted to the values ``Nerve(xm)`` accepts:
    composites may leave their hom-set, boundary values stay endomorphisms."""
    cat = xm.cat
    sites = {
        "mul": [((x, a, b), [v for v in f.elements() if v != f.table[a][b]])
                for x, f in enumerate(xm.fibers) for a in f.elements() for b in f.elements()],
        "compose": [((a, b), [v for v in cat.morphisms() if v != c])
                    for a in cat.morphisms() for b, c in enumerate(cat.compose_table[a]) if c is not None],
        "action": [((m, a), [v for v in xm.fibers[cat.src[m]].elements() if v != xm.action[m][a]])
                   for m in cat.morphisms() for a in range(len(xm.action[m]))],
        "boundary": [((x, a), [v for v in cat.hom(x, x) if v != xm.boundary[x][a]])
                     for x in cat.objects() for a in xm.fibers[x].elements()],
    }
    return {kind: [s for s in entries if s[1]] for kind, entries in sites.items() if any(s[1] for s in entries)}


CORRUPTIBLE = {
    **{b.__name__: b() for b in FIXTURES},
    "union_f6_idempotent": _union_f6_idempotent(),
    "pair_groupoid_z3_relabelled": pair_groupoid_z3_relabelled(),
}
LEVEL_SITES = {name: _level_corruption_sites(xm) for name, xm in CORRUPTIBLE.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_level_tables_match_reference_on_single_entry_corruptions(data):
    name = data.draw(st.sampled_from(sorted(n for n in LEVEL_SITES if LEVEL_SITES[n])), label="structure")
    kind = data.draw(st.sampled_from(sorted(LEVEL_SITES[name])), label="kind")
    site, values = data.draw(st.sampled_from(LEVEL_SITES[name][kind]), label="site")
    value = data.draw(st.sampled_from(values), label="value")
    nv = Nerve(_corrupt(CORRUPTIBLE[name], kind, site, value))
    maxdim = 4 if nv.count_cells(4) <= 2000 else 3
    assert face_tables_or_error(nv, maxdim) == face_tables_or_error(PerCell(nv), maxdim)


def test_nerve_levels_make_no_face_calls(monkeypatch):
    calls = dict.fromkeys(("face", "cells", "cell_at"), 0)
    for name in calls:
        def counted(self, *args, _real=getattr(Nerve, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Nerve, name, counted)
    built = []
    for build in (fixtures.z2_with_z3_fiber_twisted, fixtures.pair_groupoid_z3):
        nv = Nerve(build())
        for n in range(5):
            nv.level(n)
        built.append(nv)
    f6, pair = built
    assert check_kan(f6, upto=4).is_kan
    assert all(r.bijective for r in check_coskeletal(pair, 3, 4))
    assert calls == {"face": 0, "cells": 0, "cell_at": 0}
    # the probe shows that the counters are live
    f6.face(next(f6.cells(4)), 0)
    f6.cell_at(4, 0)
    assert calls == {"face": 1, "cells": 1, "cell_at": 1}


def test_corrupted_provider_shows_in_its_table():
    p = _corrupted_f4()
    row = rows(p.level(2))[p.rank_of(p.victim)]
    assert p.cell_at(1, row[0]) == p.replacement
    assert row[0] != p.rank_of(p.base.face(p.victim, 0))


@pytest.mark.parametrize("name", sorted(PROVIDERS))
def test_kan_and_coskeletal_records_match_reference(name):
    p = PROVIDERS[name]()
    assert list(check_kan(p, upto=3).records) == ref_check_kan(p, 3)
    try:
        expected = ref_check_coskeletal(p, 0, 3)
    except CompatibilityError as exc:
        with pytest.raises(CompatibilityError, match=re.escape(str(exc))):
            check_coskeletal(p, 0, 3)
    else:
        assert check_coskeletal(p, 0, 3) == expected


def test_kan_and_coskeletal_dim4_match_reference():
    p = PROVIDERS["F6"]()
    assert list(check_kan(p, upto=4, from_dim=4).records) == ref_check_kan(p, 4, from_dim=4)
    p = PROVIDERS["F4"]()
    assert check_coskeletal(p, 3, 4) == ref_check_coskeletal(p, 3, 4)


def _stored_joins(monkeypatch):
    """(dimension, omitted slot) of every join that stores its tuples, in
    call order; a counted join is not listed."""
    stored, real = [], simplicial._join

    def spy(p, n, omitted, count=False):
        if not count:
            stored.append((n, omitted))
        return real(p, n, omitted, count)

    monkeypatch.setattr(simplicial, "_join", spy)
    return stored


@pytest.mark.parametrize("name,stored", [
    ("F6", []),  # every count matches
    ("idempotent", [(3, 0), (3, 1), (3, 2), (3, 3)]),  # not Kan at dimension 3: the counts differ
    ("corrupted-F4", [(3, 0), (3, 1), (3, 2), (3, 3)]),  # a 3-cell row reads the corrupted 2-cell
])
def test_kan_counts_decide_and_horns_are_enumerated_only_on_a_difference(name, stored, monkeypatch):
    p = PROVIDERS[name]()
    joins = _stored_joins(monkeypatch)
    records = list(check_kan(p, upto=3).records)
    assert joins == stored
    assert records == ref_check_kan(p, 3)


def test_coskeletal_counts_decide_and_the_kernel_is_enumerated_only_on_a_difference(monkeypatch):
    joins = _stored_joins(monkeypatch)
    p = PROVIDERS["idempotent"]()
    (record,) = check_coskeletal(p, 3, 4)
    # 64 distinct rows against a kernel of 124: a surjectivity witness
    assert (record.cell_count, record.kernel_size, record.injective, record.surjective) == (64, 124, True, False)
    assert record.surjectivity_witness is not None and joins == [(4, None)]
    assert [record] == ref_check_coskeletal(p, 3, 4)
    joins.clear()
    f4 = PROVIDERS["F4"]()
    assert all(r.bijective for r in check_coskeletal(f4, 3, 4)) and joins == []


def test_the_row_check_fails_where_a_corrupted_row_is_read():
    p = _corrupted_f4()
    # the victim is a 2-cell: its own row passes, the 3-cell rows that read it do not
    assert [p.rows_in_kernel(n) for n in range(4)] == [True, True, True, False]
    for name in ("F4", "F6", "pair", "idempotent"):
        q = PROVIDERS[name]()
        assert all(q.rows_in_kernel(n) for n in range(5))
    with pytest.raises(CompatibilityError, match="^boundary of a 3-cell escaped the kernel; provider is broken$"):
        check_coskeletal(p, 2, 3)


@pytest.mark.parametrize("build,cap,check,message", [
    # level(3) has 216 cells and level(2) 12; only the last stage, 648 tuples, is over
    (fixtures.z2_with_z3_fiber, 647, lambda nv: check_coskeletal(nv, 2, 3),
     "kernel of dimension 3 exceed 647 at slot 3"),
    # level(4) has 64 cells; the last stage without slot 0 has 180 horns
    (fixtures.idempotent_fiber, 150, lambda nv: check_kan(nv, 4, from_dim=4),
     "horns without slot 0 of dimension 4 exceed 150 at slot 4"),
], ids=["coskeletal", "kan"])
def test_a_counted_last_stage_is_refused_above_the_budget(build, cap, check, message, tmp_path, capsys,
                                                          monkeypatch):
    joins = _stored_joins(monkeypatch)
    with pytest.raises(CapacityError) as err:
        check(Nerve(build(), cap))
    # refused by the count itself: no join stored its tuples
    assert str(err.value) == message and err.value.cap == cap and joins == []
    check(Nerve(build(), 648 if cap == 647 else 180))
    path = tmp_path / "input.json"
    path.write_text(serialize(from_crossed_monoid(build())))
    command, dims = ("coskeletal", "3..3") if cap == 647 else ("kan", "4..4")
    assert run([command, str(path), "--dims", dims, "--max-cells", str(cap)]) == 3
    assert capsys.readouterr().err == f"ERROR (capacity): {message}\n"


@pytest.mark.parametrize("name,basepoints", [("F4", (0,)), ("F6", (0,)), ("pair", (0, 1))])
def test_pi_bruteforce_matches_reference(name, basepoints):
    p = PROVIDERS[name]()
    for t in basepoints:
        for n in (1, 2):
            g = pi_bruteforce(p, n, p.point(t))
            assert (g.labels, g.unit, g.table) == ref_pi(p, n, p.point(t))


def test_kernel_and_horn_lists_match_reference(nv_z2_z3, nv_pair):
    for p, n in ((nv_z2_z3, 3), (nv_pair, 3), (nv_pair, 1)):
        assert [t.faces for t in simplicial_kernel(p, n)] == ref_join(p, n)
        for l in range(n + 1):
            hs = horns(p, n, l)
            assert [h.faces for h in hs] == ref_join(p, n, l)
            assert hs[len(hs) - 1] == list(hs)[-1]


def test_level_cap_applies_to_built_levels_and_join_stages(nv_z2_z3):
    assert [len(col) for col in nv_z2_z3.level(3)] == [216] * 4
    with pytest.raises(CapacityError):
        Nerve(nv_z2_z3.xm, cap=100).level(3)
    with pytest.raises(CapacityError) as err:
        horns(Nerve(nv_z2_z3.xm, cap=100), 3, 0)
    assert "at slot" in str(err.value)


# One budget per nerve: each entry point below runs on Nerve(F4, cap=k) and
# takes no budget of its own.  F4 has 1, 2, 12, 216 and 11664 cells in
# dimensions 0..4.
LEVEL_3 = "216 cells of dimension 3 exceed the budget 100"


@pytest.mark.parametrize("cap,entry,message,predicted", [
    (100, lambda nv: nv.level(3), LEVEL_3, 216),
    (100, lambda nv: list(nv.cells(3)), LEVEL_3, 216),
    (100, lambda nv: simplicial_kernel(nv, 3), "kernel of dimension 3 exceed 100 at slot 2", None),
    (100, lambda nv: horns(nv, 3, 0), "horns without slot 0 of dimension 3 exceed 100 at slot 3", None),
    (100, lambda nv: check_kan(nv, 3), LEVEL_3, 216),
    (1000, lambda nv: check_coskeletal(nv, 3, 4), "kernel of dimension 4 exceed 1000 at slot 1", None),
    (100, lambda nv: audit_simplicial(nv, 3), LEVEL_3, 216),
    (100, lambda nv: pi_compare(nv, 2, 0), LEVEL_3, 216),
    (1000, lambda nv: higher_vanishing(nv, 0), "11664 cells of dimension 4 exceed the budget 1000", 11664),
], ids=["level", "cells", "simplicial_kernel", "horns", "check_kan", "check_coskeletal", "audit_simplicial",
        "pi_compare", "higher_vanishing"])
def test_a_nerve_budget_bounds_every_entry_point(xm_z2_z3, cap, entry, message, predicted):
    with pytest.raises(CapacityError) as err:
        entry(Nerve(xm_z2_z3, cap=cap))
    assert (str(err.value), err.value.predicted, err.value.cap) == (message, predicted, cap)


# -- identity audit against the pre-table reference --------------------------


_REF_FAMILIES = ("simp1", "simp2", "simp3", "simp4", "simp5", "simp6")


def ref_audit_simplicial(p, maxdim):
    """The identity audit as it was before the family table: six inline
    loops, first witness per family.

    simp1: d_j d_k = d_{k-1} d_j (j < k)        simp2: d_j s_k = s_{k-1} d_j (j < k)
    simp3: d_j s_j = id                          simp4: d_{j+1} s_j = id
    simp5: d_k s_j = s_j d_{k-1} (j < k-1)       simp6: s_j s_{k-1} = s_k s_j (j < k)
    """
    face, degen = p.face, p.degeneracy
    found: dict[str, Violation] = {}

    def hit(family: str, witness: tuple, detail: str) -> None:
        if family not in found:
            found[family] = Violation(family, witness, detail)

    for n in range(maxdim + 1):
        for cell in p.cells(n):
            if n >= 2 and "simp1" not in found:
                stop = False
                for k in range(1, n + 1):
                    for j in range(k):
                        if face(face(cell, k), j) != face(face(cell, j), k - 1):
                            hit("simp1", (n, j, k, cell), "d_j d_k != d_{k-1} d_j")
                            stop = True
                            break
                    if stop:
                        break
            degs = [degen(cell, j) for j in range(n + 1)]
            if "simp3" not in found:
                for j in range(n + 1):
                    if face(degs[j], j) != cell:
                        hit("simp3", (n, j, cell), "d_j s_j != id")
                        break
            if "simp4" not in found:
                for j in range(n + 1):
                    if face(degs[j], j + 1) != cell:
                        hit("simp4", (n, j, cell), "d_{j+1} s_j != id")
                        break
            if n >= 1 and "simp2" not in found:
                stop = False
                for k in range(1, n + 1):
                    for j in range(k):
                        if face(degs[k], j) != degen(face(cell, j), k - 1):
                            hit("simp2", (n, j, k, cell), "d_j s_k != s_{k-1} d_j")
                            stop = True
                            break
                    if stop:
                        break
            if n >= 1 and "simp5" not in found:
                stop = False
                for k in range(2, n + 2):
                    for j in range(k - 1):
                        if face(degs[j], k) != degen(face(cell, k - 1), j):
                            hit("simp5", (n, j, k, cell), "d_k s_j != s_j d_{k-1}")
                            stop = True
                            break
                    if stop:
                        break
            if "simp6" not in found:
                stop = False
                for k in range(1, n + 2):
                    for j in range(k):
                        if degen(degs[k - 1], j) != degen(degs[j], k):
                            hit("simp6", (n, j, k, cell), "s_j s_{k-1} != s_k s_j")
                            stop = True
                            break
                    if stop:
                        break
        if len(found) == len(_REF_FAMILIES):
            break
    ordered = tuple(found[f] for f in _REF_FAMILIES if f in found)
    return ValidationReport(ordered)


class Alias(NamedTuple):
    """Stands in for ``real``; a ``Scripted`` provider can give it its own
    faces and degeneracies."""

    real: object
    tag: str


JUNK = "junk"


class Scripted:
    """Wraps a provider; ``table`` maps (cell, "face" or "degeneracy", j) to
    the value returned instead.  Other calls on an ``Alias`` go to its real
    cell, and every call on JUNK returns JUNK."""

    def __init__(self, base, table):
        self.base, self.table = base, table

    def cells(self, n):
        return self.base.cells(n)

    def _call(self, op, cell, j):
        if (cell, op, j) in self.table:
            return self.table[cell, op, j]
        if cell == JUNK:
            return JUNK
        return getattr(self.base, op)(cell.real if isinstance(cell, Alias) else cell, j)

    def face(self, cell, j):
        return self._call("face", cell, j)

    def degeneracy(self, cell, j):
        return self._call("degeneracy", cell, j)


def corrupted_providers(nv, maxdim):
    """For the first and last cell of each dimension <= maxdim, two cells in
    between, and every index j: the provider with d_j (dimension >= 1) or
    s_j replaced by another cell of the right dimension, picked by
    rotating through that level."""
    for n in range(maxdim + 1):
        cells = list(nv.cells(n))
        for i in sorted({0, len(cells) // 3, 2 * len(cells) // 3, len(cells) - 1}):
            victim = cells[i]
            for op, dim in (("face", n - 1), ("degeneracy", n + 1)):
                if dim < 0:
                    continue
                count = nv.count_cells(dim)
                for j in range(n + 1):
                    true = getattr(nv, op)(victim, j)
                    k = (7 * i + j + 1) % count
                    wrong = nv.cell_at(dim, k)
                    if wrong == true:
                        wrong = nv.cell_at(dim, (k + 1) % count)
                    if wrong != true:
                        yield Scripted(nv, {(victim, op, j): wrong})


@pytest.mark.parametrize("build", [fixtures.group_z2, fixtures.z2_with_z3_fiber, fixtures.idempotent_fiber])
def test_audit_matches_reference_on_corrupted_providers(build):
    nv = Nerve(build())
    providers = list(corrupted_providers(nv, 3))
    for p in providers:
        report = audit_simplicial(p, 3)
        assert report == ref_audit_simplicial(p, 3), p.table
        assert not report.passed
    assert audit_simplicial(nv, 3) == ref_audit_simplicial(nv, 3)
    assert {op for p in providers for _, op, _ in p.table} == {"face", "degeneracy"}


def test_audit_witness_is_the_first_failure_with_k_outer_and_j_inner():
    # Each family below fails exactly at (j, k) = (1, 2) or (1, 3) and at
    # (0, 3) or (0, 4) on one 3-cell: k outer reports the first, j outer
    # would report the second.
    nv = Nerve(fixtures.z2_with_z3_fiber())
    v = list(nv.cells(3))[-1]
    d2, d3 = (Alias(nv.face(v, j), f"d{j}") for j in (2, 3))
    s0, s1, s2, s3 = (Alias(nv.degeneracy(v, j), f"s{j}") for j in range(4))
    table = {
        (v, "face", 2): d2, (d2, "face", 1): JUNK,  # simp1 at (1, 2)
        (v, "face", 3): d3, (d3, "face", 0): JUNK,  # simp1 at (0, 3)
        (v, "degeneracy", 2): s2, (s2, "face", 1): JUNK,  # simp2 at (1, 2)
        (v, "degeneracy", 3): s3, (s3, "face", 0): JUNK,  # simp2 at (0, 3)
        (v, "degeneracy", 1): s1, (s1, "face", 3): JUNK,  # simp5 at (1, 3)
        (s1, "degeneracy", 1): JUNK,  # simp6 at (1, 2)
        (v, "degeneracy", 0): s0, (s0, "face", 4): JUNK,  # simp5 at (0, 4)
        (s0, "degeneracy", 3): JUNK,  # simp6 at (0, 3)
    }
    p = Scripted(nv, table)
    report = audit_simplicial(p, 3)
    assert report == ref_audit_simplicial(p, 3)
    assert [(w.axiom, w.witness) for w in report.violations] == [
        ("simp1", (3, 1, 2, v)), ("simp2", (3, 1, 2, v)), ("simp5", (3, 1, 3, v)), ("simp6", (3, 1, 2, v)),
    ]


def _audit_outcome(audit, p, maxdim):
    """The report, or the type and text of the error raised instead."""
    try:
        return audit(p, maxdim)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_rank_audit_matches_reference_on_single_entry_corruptions():
    # a corrupted action or fiber product keeps every face a cell, so these
    # audits run on rank columns, against the per-cell reference
    rng = random.Random(2011)
    outcomes = []
    for name, count in (("z2_with_z3_fiber", 8), ("idempotent_fiber", 30), ("z2_with_z3_fiber_twisted", 8),
                        ("pair_groupoid_z3", 4), ("z3_identity_boundary", 4)):
        sites = LEVEL_SITES[name]
        for _ in range(count):
            kind = rng.choice([k for k in ("action", "mul") if k in sites])
            site, values = rng.choice(sites[kind])
            xm = _corrupt(CORRUPTIBLE[name], kind, site, rng.choice(values))
            outcome = _audit_outcome(audit_simplicial, Nerve(xm), 3)
            assert outcome == _audit_outcome(ref_audit_simplicial, Nerve(xm), 3), (name, kind, site)
            outcomes.append(outcome)
    assert 10 <= sum(not getattr(o, "passed", False) for o in outcomes) < len(outcomes)


def test_rank_audit_builds_cells_only_for_witnesses(monkeypatch):
    calls = dict.fromkeys(("face", "degeneracy", "cells", "cell_at"), 0)
    for name in calls:
        def counted(self, *args, _real=getattr(Nerve, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Nerve, name, counted)
    assert audit_simplicial(Nerve(fixtures.z2_with_z3_fiber()), 4).passed
    assert calls == dict.fromkeys(calls, 0)
    site, values = LEVEL_SITES["z2_with_z3_fiber"]["action"][-1]
    report = audit_simplicial(Nerve(_corrupt(CORRUPTIBLE["z2_with_z3_fiber"], "action", site, values[0])), 4)
    assert not report.passed
    assert calls == {"face": 0, "degeneracy": 0, "cells": 0, "cell_at": len(report.violations)}


# -- words of degeneracies only, decided once per enumeration block -----------

AUDITED = ("trivial_point", "group_z2", "z3_fiber_only", "z2_with_z3_fiber", "z2_with_z3_fiber_twisted",
           "idempotent_fiber", "broken_exchange", "z3_identity_boundary", "idempotent_endo_category",
           "pair_groupoid_z3", "empty_crossed_monoid")
SIMP6 = next(indices for name, _, _, indices in simplicial._IDENTITIES if name == "simp6")


def count_lifted_degeneracies(monkeypatch):
    """Cells of the (n+1)-columns ``_RankMaps.degeneracy`` is given while
    dimension n is audited, by n: simp6's second degeneracy, on chunks or on
    a block's basis."""
    lifted, real = {}, _RankMaps.degeneracy

    def counted(self, col, j):
        if col.dim == self.dim + 1:
            lifted[self.dim] = lifted.get(self.dim, 0) + len(col)
        return real(self, col, j)

    monkeypatch.setattr(_RankMaps, "degeneracy", counted)
    return lifted


@pytest.mark.parametrize("name", AUDITED)
def test_block_decision_leaves_every_report_unchanged(name, monkeypatch):
    nv = Nerve(getattr(fixtures, name)())
    decided = audit_simplicial(nv, 4)
    monkeypatch.delattr(_RankMaps, "agree")  # every instance on every chunk
    assert audit_simplicial(nv, 4) == decided


def test_a_corrupted_plan_constant_is_caught_by_the_basis(monkeypatch):
    # s_1 on 3-cells, off by one: met only as simp6's second degeneracy at
    # n = 2, so only the basis tells the sides apart
    real_plan, real_agree, verdicts = _RankMaps._plan, _RankMaps.agree, []

    def corrupted(self, blk, j):
        new, const, runs = real_plan(self, blk, j)
        return new, const + (len(blk.seq) == 4 and j == 1), runs

    def agree(self, *args):
        verdicts.append(real_agree(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(_RankMaps, "_plan", corrupted)
    monkeypatch.setattr(_RankMaps, "agree", agree)
    decided = audit_simplicial(Nerve(fixtures.z2_with_z3_fiber()), 2)
    assert False in verdicts and True in verdicts
    monkeypatch.delattr(_RankMaps, "agree")
    assert audit_simplicial(Nerve(fixtures.z2_with_z3_fiber()), 2) == decided
    assert [(v.axiom, v.witness[:3]) for v in decided.violations] == [("simp6", (2, 0, 1))]


def test_simp6_is_decided_on_each_block_basis(monkeypatch):
    lifted = count_lifted_degeneracies(monkeypatch)
    nv = Nerve(fixtures.z2_with_z3_fiber())
    assert audit_simplicial(nv, 4).passed
    for n in range(5):  # per block, instance and side: the basis, m + 1 cells for m digits of radix above 1
        basis = sum(1 + sum(len(dom) > 1 for dom in blk.domains) for blk in nv._dim(n))
        assert 0 < lifted[n] <= 2 * len(SIMP6(n)) * basis
    # against both sides of every instance on every 4-cell, chunk by chunk
    assert lifted[4] * 1000 < 2 * len(SIMP6(4)) * nv.count_cells(4)
