import inspect
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (MatrixNerve, XMorphism, corner_triples, entry, eta, identity_xmorphism, induced_cell, kept_rows,
                      morphism_cell, pair_groupoid_z3_relabelled, rows)
from test_algebra import permutation_module
from xnerve import fixtures
from xnerve.algebra import gather, validate_crossed_monoid
from xnerve.errors import CapacityError, CellError, CompatibilityError
from xnerve.fillers import HornFiller
from xnerve.nerve import Nerve, NerveCell, _keep_runs, _ranks, _read, _spell


def brute_cells(nv, n):
    """Independent enumeration: raw products filtered by the validator."""
    xm = nv.xm
    cat = xm.cat
    if n == 0:
        return [nv.point(x) for x in cat.objects()]
    out = []
    for seq in itertools.product(cat.objects(), repeat=n + 1):
        spots = []
        for i in range(1, n + 1):
            spots.append(list(cat.morphisms()))
            spots.extend([list(range(xm.fibers[seq[i]].size))] * (n - i))
        for flat in itertools.product(*spots):
            rows, pos = [], 0
            for i in range(1, n + 1):
                ln = n - i + 1
                rows.append(tuple(flat[pos:pos + ln]))
                pos += ln
            try:
                out.append(nv.cell(seq, rows))
            except CellError:
                pass
    return out


def test_cell_new_examples(nv_z2, nv_z2_z3):
    # diagonal (g, g) with unit corner
    c = nv_z2.cell((0, 0, 0), ((1, 0), (1,)))
    assert c.dim == 2 and entry(c, 1, 2) == 0
    # one-cells are morphisms
    e = morphism_cell(nv_z2_z3, 1)
    assert e.rows == ((1,),)
    assert nv_z2_z3.cell((0, 0), ((1,),)) == e


def test_cell_new_rejects_wrong_fiber(nv_z2_z3):
    with pytest.raises(CellError) as err:
        nv_z2_z3.cell((0, 0, 0), ((1, 3), (1,)))
    assert "(1,2)" in str(err.value)


def test_cell_new_rejects_wrong_endpoints(nv_pair):
    # morphism 2 runs 0 -> 1; claiming it as an endo of 0 must fail at (1,1)
    with pytest.raises(CellError) as err:
        nv_pair.cell((0, 0), ((2,),))
    assert "(1,1)" in str(err.value)


def test_eta_examples(nv_z2_z3_twisted, nv_z2_z3):
    # row 2 diagonal g: empty product gives the bare diagonal
    m = nv_z2_z3_twisted.cell((0, 0, 0, 0), ((0, 0, 0), (1, 1), (0,)))
    assert eta(nv_z2_z3_twisted, m, 1, 2) == 1
    # trivial boundary: appending entries never changes the twist
    assert eta(nv_z2_z3_twisted, m, 1, 3) == 1
    # with a trivial boundary eta always equals the row diagonal
    for cell in nv_z2_z3.cells(3):
        for j in range(3):
            for k in range(j + 1, 4):
                assert eta(nv_z2_z3, cell, j, k) == cell.rows[j][0]


def test_face_examples(nv_z2, nv_z2_z3, nv_z2_z3_twisted):
    m = nv_z2.cell((0, 0, 0), ((1, 0), (1,)))
    assert nv_z2.face(m, 1) == morphism_cell(nv_z2, 0)  # g * g = 1
    m = nv_z2_z3.cell((0, 0, 0), ((1, 2), (1,)))
    assert nv_z2_z3.face(m, 0) == morphism_cell(nv_z2_z3, 1)
    # twisted fixture: entry (1,2) of d_1 is 1^(g) + 1 = (-1) + 1 = 0
    m = nv_z2_z3_twisted.cell((0, 0, 0, 0), ((0, 0, 1), (1, 1), (0,)))
    d = nv_z2_z3_twisted.face(m, 1)
    assert entry(d, 1, 2) == 0
    assert d.rows[0][0] == 1  # merged diagonal 1 * d(0) * g = g


def test_face_merged_row_matches_eta_definition(nv_z2_z3_twisted):
    nv = nv_z2_z3_twisted
    xm = nv.xm
    for cell in nv.cells(4):
        for j in range(1, 4):
            d = nv.face(cell, j)
            for c in range(j + 1, 4):
                tw = xm.action[eta(nv, cell, j, c)][entry(cell, j, c + 1)]
                expected = xm.fibers[cell.objects[j + 1]].mul(tw, entry(cell, j + 1, c + 1))
                assert entry(d, j, c) == expected


def test_degeneracy_examples(nv_trivial, nv_z2_z3):
    p = nv_trivial.point(0)
    assert nv_trivial.degeneracy(p, 0) == morphism_cell(nv_trivial, 0)
    g = morphism_cell(nv_z2_z3, 1)
    s0 = nv_z2_z3.degeneracy(g, 0)
    assert s0.rows == ((0, 0), (1,))  # [[1, e], [., g]]
    s1 = nv_z2_z3.degeneracy(g, 1)
    assert s1.rows == ((1, 0), (0,))  # [[g, e], [., 1]]


def test_object_sequence_tracking(nv_pair):
    for cell in nv_pair.cells(3):
        for j in range(4):
            d = nv_pair.face(cell, j)
            assert d.objects == cell.objects[:j] + cell.objects[j + 1:]
        for j in range(4):
            s = nv_pair.degeneracy(cell, j)
            assert s.objects == cell.objects[:j + 1] + (cell.objects[j],) + cell.objects[j + 1:]


def test_enumeration_counts(nv_z2, nv_z2_z3, nv_trivial):
    assert sum(1 for _ in nv_z2.cells(3)) == 8
    assert sum(1 for _ in nv_z2_z3.cells(2)) == 12
    for n in range(5):
        assert sum(1 for _ in nv_trivial.cells(n)) == 1


def test_enumeration_against_brute_force(nv_z2, nv_z3_fiber, nv_pair):
    for nv, dims in ((nv_z2, (0, 1, 2, 3)), (nv_z3_fiber, (0, 1, 2)), (nv_pair, (0, 1, 2))):
        for n in dims:
            fast = list(nv.cells(n))
            slow = brute_cells(nv, n)
            assert fast == slow  # same cells, same order
            assert nv.count_cells(n) == len(fast)


def test_enumeration_capacity_error(nv_z2_z3):
    with pytest.raises(CapacityError):
        list(Nerve(nv_z2_z3.xm, cap=100).cells(4))


def test_cell_at_matches_enumeration(nv_z2_z3, nv_pair):
    for nv, n in ((nv_z2_z3, 3), (nv_pair, 2)):
        cells = list(nv.cells(n))
        for idx in range(len(cells)):
            assert nv.cell_at(n, idx) == cells[idx]
        with pytest.raises(IndexError):
            nv.cell_at(n, len(cells))


def test_corner_split_examples(nv_z2_z3, nv_trivial):
    m = nv_z2_z3.cell((0, 0, 0), ((1, 1), (1,)))
    r, g = nv_z2_z3.rank_of(m), nv_z2_z3.rank_of(morphism_cell(nv_z2_z3, 1))
    [row] = rows(nv_z2_z3.faces_of(2, [r]))
    assert (row[0], row[2], *nv_z2_z3.corners(2, [r])) == (g, g, 1)
    only = nv_trivial.rank_of(next(iter(nv_trivial.cells(2))))
    [row] = rows(nv_trivial.faces_of(2, [only]))
    assert row[0] == row[2] == nv_trivial.rank_of(morphism_cell(nv_trivial, 0))


def test_corner_assemble_example(nv_z2):
    g = morphism_cell(nv_z2, 1)
    cell = nv_z2.cell((0, 0, 0), ((1, 0), (1,)))
    assert nv_z2.corner_assemble(g, g, 0) == cell
    assert nv_z2.assemble_ids(2, [nv_z2.rank_of(g)], [nv_z2.rank_of(g)], [0]) == [nv_z2.rank_of(cell)]


def test_corner_bijection_roundtrips(nv_z2, nv_z2_z3, nv_z2_z3_twisted, nv_pair):
    for nv in (nv_z2, nv_z2_z3, nv_z2_z3_twisted, nv_pair):
        for n in (2, 3):
            ranks = range(nv.count_cells(n))
            faces = nv.faces_of(n, ranks)
            firsts, lasts = faces[0], faces[n]
            assert nv.assemble_ids(n, firsts, lasts, nv.corners(n, ranks)) == list(ranks)
            for cell in nv.cells(n):
                assert nv.corner_assemble(nv.face(cell, 0), nv.face(cell, n), cell.corner) == cell
            triples = list(corner_triples(nv, n))
            assert len(triples) == nv.count_cells(n)
            made = nv.assemble_ids(n, *zip(*triples))
            faces = nv.faces_of(n, made)
            firsts, lasts = faces[0], faces[n]
            assert list(zip(firsts, lasts, nv.corners(n, made))) == triples
            for (first, last, corner), r in zip(triples, made):
                assert nv.corner_assemble(nv.cell_at(n - 1, first), nv.cell_at(n - 1, last), corner) == nv.cell_at(n, r)


def test_corner_split_needs_dim_two(nv_z2_z3):
    for split in (lambda: nv_z2_z3.corners(1, [0]), lambda: nv_z2_z3.corners(0, [0]),
                  lambda: nv_z2_z3.assemble_ids(1, [0], [0], [0])):
        with pytest.raises(CompatibilityError, match="corner splitting needs dimension >= 2"):
            split()


def test_corner_assemble_rejects_incompatible(nv_z2_z3):
    first = nv_z2_z3.cell((0, 0, 0), ((1, 0), (1,)))  # d_2 = [g]
    last = nv_z2_z3.cell((0, 0, 0), ((1, 0), (0,)))  # d_0 = [1]
    with pytest.raises(CompatibilityError):
        nv_z2_z3.corner_assemble(first, last, 0)
    good = nv_z2_z3.cell((0, 0, 0), ((0, 0), (1,)))
    with pytest.raises(CompatibilityError):
        nv_z2_z3.corner_assemble(first, good, 9)  # corner outside the fiber


def test_corner_face_units_stay_units(nv_z2_z3):
    nv = nv_z2_z3
    deg = nv.rank_of(nv.degeneracy(nv.degeneracy(morphism_cell(nv, 0), 0), 0))
    [row] = rows(nv.faces_of(3, [deg]))
    assert nv.corners(2, row[1:3]) == [0, 0]


def test_induced_map_identity_and_inclusion(nv_z3_fiber, nv_z2_z3, xm_z3_fiber, xm_z2_z3):
    ident = identity_xmorphism(xm_z2_z3)
    for cell in nv_z2_z3.cells(2):
        assert induced_cell(ident, cell) == cell
    incl = XMorphism(obj_map=(0,), mor_map=(0,), fiber_maps=((0, 1, 2),))
    src_cell = nv_z3_fiber.cell((0, 0, 0), ((0, 2), (0,)))
    image = induced_cell(incl, src_cell)
    assert image.rows == ((0, 2), (0,))
    nv_z2_z3.validate_cell(image)


def test_induced_map_naturality(nv_z3_fiber, nv_z2_z3):
    incl = XMorphism(obj_map=(0,), mor_map=(0,), fiber_maps=((0, 1, 2),))
    for cell in nv_z3_fiber.cells(2):
        for j in range(3):
            assert induced_cell(incl, nv_z3_fiber.face(cell, j)) == nv_z2_z3.face(induced_cell(incl, cell), j)
        for j in range(3):
            assert induced_cell(incl, nv_z3_fiber.degeneracy(cell, j)) == nv_z2_z3.degeneracy(
                induced_cell(incl, cell), j
            )


def test_cell_text_roundtrip_format(nv_z2_z3):
    c = nv_z2_z3.cell((0, 0, 0), ((1, 2), (0,)))
    assert c.text() == "2|0,0,0|1,2;0"
    assert nv_z2_z3.point(0).text() == "0|0|"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_identities_spot_checked_above_the_exhaustive_range(nv_z2_z3_twisted, data):
    nv = nv_z2_z3_twisted
    n = data.draw(st.integers(min_value=5, max_value=6), label="dim")
    cell = nv.cell_at(n, data.draw(st.integers(min_value=0, max_value=nv.count_cells(n) - 1), label="idx"))
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    j = data.draw(st.integers(min_value=0, max_value=k - 1), label="j")
    assert nv.face(nv.face(cell, k), j) == nv.face(nv.face(cell, j), k - 1)
    assert nv.face(nv.degeneracy(cell, k), j) == nv.degeneracy(nv.face(cell, j), k - 1)
    assert nv.face(nv.degeneracy(cell, j), j) == cell
    assert nv.face(nv.degeneracy(cell, j), j + 1) == cell


# -- ranks: the oracle for faces_of, assemble_ids and corners -----------------

RANK_FIXTURES = {
    **{name: getattr(fixtures, name) for name in (
        "trivial_point", "group_z2", "z3_fiber_only", "z2_with_z3_fiber", "z2_with_z3_fiber_twisted",
        "idempotent_fiber", "broken_exchange", "z3_identity_boundary", "idempotent_endo_category",
        "pair_groupoid_z3", "empty_crossed_monoid")},
    "pair_groupoid_z3_relabelled": pair_groupoid_z3_relabelled,
    "f6_and_idempotent": lambda: fixtures.disjoint_union(fixtures.z2_with_z3_fiber_twisted(),
                                                         fixtures.idempotent_fiber()),
}


@pytest.mark.parametrize("name", sorted(RANK_FIXTURES))
def test_face_ids_agree_with_levels_and_face(name):
    nv = MatrixNerve(RANK_FIXTURES[name]())
    for n in range(5):
        lv = nv.level(n)
        cells = list(nv.cells(n))
        assert len(lv) == (n + 1 if n else 0) and all(len(col) == len(cells) for col in lv)
        # level ids are ranks: rank_of inverts cell_at and the level's order
        assert [nv.rank_of(c) for c in cells] == list(range(len(cells)))
        assert all(nv.cell_at(n, i) == c for i, c in enumerate(cells))
        if n:
            below = list(nv.cells(n - 1))
            # the face columns read from the level, and made before it is built
            assert nv.faces_of(n, range(len(cells))) == lv == Nerve(nv.xm).faces_of(n, range(len(cells)))
            for row, c in zip(rows(lv), cells):
                assert [below[k] for k in row] == [nv.face(c, j) for j in range(n + 1)]
    with pytest.raises(IndexError):
        nv.cell_at(4, nv.count_cells(4))


@pytest.mark.parametrize("name", ["z2_with_z3_fiber", "z2_with_z3_fiber_twisted", "pair_groupoid_z3"])
def test_face_ids_above_the_built_levels(name):
    nv = MatrixNerve(getattr(fixtures, name)())
    rng = random.Random(11)
    for n in (5, 6):
        ranks = rng.sample(range(nv.count_cells(n)), 200)
        cells = [nv.cell_at(n, r) for r in ranks]
        assert [nv.rank_of(c) for c in cells] == ranks
        assert rows(nv.faces_of(n, ranks)) == [tuple(nv.rank_of(nv.face(c, j)) for j in range(n + 1)) for c in cells]
        assert nv.corners(n, ranks) == [c.corner for c in cells]


def test_faces_of_returns_the_columns_of_the_level():
    xm = fixtures.z2_with_z3_fiber()
    nv, whole = Nerve(xm), Nerve(xm)
    for n in (1, 2, 4):
        assert nv.faces_of(n, []) == [[] for _ in range(n + 1)]
    for n in (3, 4):
        columns = whole.level(n)
        ranks = range(len(columns[0]))
        assert nv.built(n) is None and nv.faces_of(n, ranks) == columns  # a dimension that is not built
        nv.level(n)
        assert nv.faces_of(n, ranks) == columns  # a built one


def test_a_dimension_whose_cells_cannot_fit_is_refused_before_a_block_is_made():
    f4, trivial = Nerve(fixtures.z2_with_z3_fiber()), Nerve(fixtures.trivial_point())
    with pytest.raises(CapacityError, match=r"^10\^4300 or more cells of dimension 1000 exceed the budget 5000000$"):
        f4.count_cells(1000)
    with pytest.raises(CapacityError, match="^a cell of dimension 100000 has 5000050000 entries, over the budget"):
        trivial.level(100000)
    assert f4._dims == {} == trivial._dims and trivial.built(0) is None
    assert trivial.count_cells(100000) == 1


@pytest.mark.parametrize("name", sorted(RANK_FIXTURES))
def test_rank_maps_are_the_rank_forms_of_degeneracy_and_face(name):
    # rank_maps(n) keeps no table of dimension n+1, so the faces of s_j c
    # come from the face formulas applied to the column's indices
    nv = MatrixNerve(RANK_FIXTURES[name]())
    for n in range(4):
        maps = nv.rank_maps(n)
        for col in maps.chunks(n):
            cells = [nv.cell_at(n, r) for r in col]
            for j in range(n + 1):
                degenerate = maps.degeneracy(col, j)
                assert degenerate == [nv.rank_of(nv.degeneracy(c, j)) for c in cells]
                for i in range(n + 2):
                    assert maps.face(degenerate, i) == nv.faces_of(n + 1, degenerate)[i]
                    assert maps.degeneracy(degenerate, i) == [
                        nv.rank_of(nv.degeneracy(nv.degeneracy(c, j), i)) for c in cells]
                for i in range(n + 1 if j < n else 0):  # s_j of a face reads s_j of the whole level below
                    assert maps.degeneracy(maps.face(col, i), j) == [
                        nv.rank_of(nv.degeneracy(nv.face(c, i), j)) for c in cells]


# -- the package's cell maps against their matrix definitions ----------------

# name -> (crossed monoid, highest dimension, faces, degeneracies and corner
# assemblies compared): every face and degeneracy of every cell up to that
# dimension, and the corner assembly of every cell of dimension >= 2
MATRIX_CASES = {
    "F6": (fixtures.z2_with_z3_fiber_twisted, 3, 904, 905, 228),
    "pair_groupoid_z3": (fixtures.pair_groupoid_z3, 3, 1808, 1810, 456),  # several blocks per dimension
    "f6_and_idempotent": (RANK_FIXTURES["f6_and_idempotent"], 3, 944, 946, 238),  # fibers of sizes 3 and 2
    "S3_identity": (lambda: permutation_module(3, even_fiber=False), 2, 660, 661, 216),
    "group_z2": (fixtures.group_z2, 4, 128, 129, 28),
    "idempotent_fiber": (fixtures.idempotent_fiber, 4, 360, 361, 74),
    "z3_identity_boundary": (fixtures.z3_identity_boundary, 3, 3003, 3004, 756),
}


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_the_rank_forms_equal_the_matrix_definitions(name):
    build, maxdim, *expected = MATRIX_CASES[name]
    xm = build()
    nv, matrix = Nerve(xm), MatrixNerve(xm)
    counts = [0, 0, 0]
    for n in range(maxdim + 1):
        for c in matrix.cells(n):
            for j in range(n + 1):
                if n:
                    assert nv.face(c, j) == matrix.face(c, j)
                    counts[0] += 1
                assert nv.degeneracy(c, j) == matrix.degeneracy(c, j)
                counts[1] += 1
            if n >= 2:
                first, last = matrix.face(c, 0), matrix.face(c, n)
                assert nv.corner_assemble(first, last, c.corner) == matrix.corner_assemble(first, last, c.corner) == c
                counts[2] += 1
    assert counts == expected


def _refusal(call):
    """The type and text of the error ``call`` raises."""
    with pytest.raises((CellError, CompatibilityError)) as err:
        call()
    return type(err.value).__name__, str(err.value)


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_the_rank_forms_refuse_as_the_matrix_definitions_do(name):
    xm = MATRIX_CASES[name][0]()
    nv, matrix = Nerve(xm), MatrixNerve(xm)
    calls = [("face", nv.point(0), 0)]
    for n in (0, 1, 2):
        c = nv.cell_at(n, nv.count_cells(n) - 1)
        calls += [("face", c, -1), ("face", c, n + 1)] if n else []
        calls += [("degeneracy", c, -1), ("degeneracy", c, n + 2)]
    calls += [("corner_assemble", nv.point(0), nv.point(0), 0),
              ("corner_assemble", nv.cell_at(1, 0), nv.cell_at(2, 0), 0)]
    for n in (2, 3):
        below = list(matrix.cells(n - 1))
        pairs = [(first, last) for first in below[:8] for last in below]
        meets = [matrix.face(first, n - 1) == matrix.face(last, 0) for first, last in pairs]
        first, last = pairs[meets.index(True)]
        size = xm.fibers[first.objects[0]].size
        calls += [("corner_assemble", first, last, size), ("corner_assemble", first, last, -1)]
        if False in meets:
            calls.append(("corner_assemble", *pairs[meets.index(False)], 0))
    texts = []
    for op, *args in calls:
        refusal = _refusal(lambda: getattr(nv, op)(*args))
        assert refusal == _refusal(lambda: getattr(matrix, op)(*args)), (op, args)
        texts.append(refusal[1])
    # the trivial category of idempotent_fiber has one 1-cell: every pair of faces overlaps
    starts = ["0-cells", "face index", "degeneracy index", "corner faces", "corner -1 outside",
              *["faces do not overlap"] * (name != "idempotent_fiber")]
    assert sorted({start for start in starts for text in texts if text.startswith(start)}) == sorted(starts)


def test_an_invalid_cell_is_refused_naming_its_bad_entry():
    # the matrix definitions read a table at an entry outside the fiber:
    # they raise a bare IndexError, copy the entry into the result, or, for
    # a negative entry, read the table from its end
    nv = Nerve(fixtures.z2_with_z3_fiber_twisted())
    seven = NerveCell(2, (0, 0, 0), ((0, 7), (1,)))  # corner 7 outside Z/3
    negative = NerveCell(3, (0, 0, 0, 0), ((0, -1, 2), (0, 0), (0,)))
    for cell, value in ((seven, 7), (negative, -1)):
        message = f"^entry \\(1,2\\) = {value} outside the fiber over object 0$"
        for j in range(cell.dim + 1):
            for op in (nv.face, nv.degeneracy):
                with pytest.raises(CellError, match=message):
                    op(cell, j)
        good = nv.cell_at(cell.dim, 0)
        for first, last in ((cell, good), (good, cell)):
            with pytest.raises(CellError, match=message):
                nv.corner_assemble(first, last, 0)


# -- the face rows a nerve keeps of the levels it has not built ---------------

@pytest.mark.parametrize("name", ["z2_with_z3_fiber", "z2_with_z3_fiber_twisted", "pair_groupoid_z3"])
def test_kept_face_rows_are_the_rows_of_the_level(name):
    # a budget below the number of 4-cells: past it rows are returned, not kept
    xm, rng = getattr(fixtures, name)(), random.Random(3)
    nv, whole = Nerve(xm, 700), Nerve(xm)
    level = rows(whole.level(4))
    ranks = rng.sample(range(len(level)), 900)
    for lo, hi in ((0, 300), (200, 500), (0, 900), (100, 800), (0, 300)):
        assert rows(nv.faces_of(4, ranks[lo:hi])) == [level[r] for r in ranks[lo:hi]]
    kept = kept_rows(nv)
    assert sorted(kept) == [2, 3, 4] and len(kept[4]) == 700 and nv.built(4) is None
    tables = {m: rows(whole.level(m)) for m in kept}
    assert all(tables[m][r] == row for m, by_rank in kept.items() for r, row in by_rank.items())
    # a built level replaces the rows kept of its dimension
    assert nv.level(3) == whole.level(3) and 3 not in kept_rows(nv)
    assert rows(nv.faces_of(4, ranks)) == [level[r] for r in ranks]


def _count_made_rows(monkeypatch):
    """From now on, (dimension, rows) of every block of face rows made."""
    made, real = [], Nerve._block_faces

    def block_faces(n, *args):
        faces = real(n, *args)
        made.append((n, len(faces[0])))
        return faces

    monkeypatch.setattr(Nerve, "_block_faces", staticmethod(block_faces))
    return made


def test_faces_of_makes_each_kept_row_once(monkeypatch):
    nv, rng = Nerve(fixtures.z2_with_z3_fiber_twisted()), random.Random(8)
    ranks = rng.sample(range(nv.count_cells(5)), 400)
    kept = rows(nv.faces_of(5, ranks[:300]))
    assert kept_rows(nv)[5] == dict(sorted(zip(ranks[:300], kept)))
    made = _count_made_rows(monkeypatch)
    assert rows(nv.faces_of(5, ranks[:300])) == kept and rows(nv.faces_of(5, ranks[299::-1])) == kept[::-1]
    assert made == []
    # a column that shares ranks with the kept rows makes only the others
    assert rows(nv.faces_of(5, ranks[200:]))[:100] == kept[200:]
    assert sum(count for n, count in made if n == 5) == 100


def test_kept_rows_stay_within_the_budget():
    # the sampled horns and fillers of ``fill --dims 4..5 --max-cells 300``
    xm, rng = fixtures.z2_with_z3_fiber_twisted(), random.Random(5)
    nv = Nerve(xm, 300)
    hf, reference = HornFiller(nv), HornFiller(Nerve(xm))
    for n in (4, 5):
        for l in range(n + 1):
            faces = nv.faces_of(n, [rng.randrange(nv.count_cells(n)) for _ in range(300)])
            columns = faces[:l] + faces[l + 1:]
            assert hf.fill_columns(n, l, columns) == reference.fill_columns(n, l, columns)
            assert max(map(len, kept_rows(nv).values())) <= 300
    kept = kept_rows(nv)
    assert len(kept[4]) == len(kept[5]) == 300
    assert [nv.built(n) for n in (4, 5)] == [None, None]


def test_the_budget_keeps_the_first_rows_made_in_the_order_made(monkeypatch):
    xm, rng = fixtures.z2_with_z3_fiber_twisted(), random.Random(11)
    nv, whole = Nerve(xm, 300), Nerve(xm)
    level = rows(whole.level(4))
    ranks = rng.sample(range(len(level)), 500)
    for part in (ranks[:200], ranks[200:]):  # each call makes its new rows in rank order
        assert rows(nv.faces_of(4, part)) == [level[r] for r in part]
    made_order = sorted(ranks[:200]) + sorted(ranks[200:])
    kept = kept_rows(nv)[4]
    assert list(kept) == made_order[:300] and all(row == level[r] for r, row in kept.items())
    # a rank the cut dropped is made again, and the kept rows stay as they were
    made = _count_made_rows(monkeypatch)
    again = [made_order[-1], *made_order[:3]]
    assert rows(nv.faces_of(4, again)) == [level[r] for r in again]
    assert [count for n, count in made if n == 4] == [1] and list(kept_rows(nv)[4].items()) == list(kept.items())


@pytest.mark.parametrize("positions", [[], [3], [5, 0, 5, 2]])
def test_a_face_table_is_read_at_positions_by_one_helper(positions):
    columns = [list(range(10 * j, 10 * j + 6)) for j in range(3)]
    expected = [[col[p] for p in positions] for col in columns]
    assert [list(gather(positions)(col)) for col in columns] == expected
    # a level is read at its ranks, kept columns at the positions of theirs
    at = {100 + p: p for p in range(6)}
    for face in (_read(columns, positions), _read(columns, [100 + p for p in positions], at)):
        assert [list(face(j)) for j in range(3)] == expected


def test_faces_far_above_the_built_levels_need_no_deep_stack():
    # the rows of every dimension down to 2 are made in one loop: a
    # recursion of about two frames a dimension would need some 160 here
    nv, limit = MatrixNerve(fixtures.group_z2()), sys.getrecursionlimit()
    ranks = [0, 1, nv.count_cells(80) // 3]
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        faces = nv.faces_of(80, ranks)
    finally:
        sys.setrecursionlimit(limit)
    assert faces == [[nv.rank_of(nv.face(nv.cell_at(80, r), j)) for r in ranks] for j in range(81)]


def test_pick_is_ranks_at_the_given_indices():
    lens = [2, 3, 1, 4]
    idxs = [0, 5, 7, 11, 16, 23]
    tuples = list(itertools.product(*map(range, lens)))
    for keep in (set(), {0}, {3}, {1, 2}, {0, 2, 3}, {0, 1, 2, 3}, {0, 3}):
        kept = sorted(keep)
        spelt = [math.prod(lens[q] for q in kept[a + 1:]) for a in range(len(kept))]
        expected = [7 + sum(t[p] * w for p, w in zip(kept, spelt)) for t in tuples]
        runs = _keep_runs(lens, keep)
        assert _ranks(len(tuples), runs, 7) == expected
        assert _spell(idxs, runs, 7) == [expected[i] for i in idxs]


def test_assemble_id_is_the_rank_form_of_corner_assemble(nv_z2_z3_twisted, nv_pair_relabelled):
    for nv in (nv_z2_z3_twisted, nv_pair_relabelled):
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            ranks = rng.sample(range(nv.count_cells(n)), min(100, nv.count_cells(n)))
            cells = [nv.cell_at(n, r) for r in ranks]
            firsts, lasts = [nv.face(c, 0) for c in cells], [nv.face(c, n) for c in cells]
            corners = [c.corner for c in cells]
            assert nv.corners(n, ranks) == corners
            assert nv.assemble_ids(n, list(map(nv.rank_of, firsts)), list(map(nv.rank_of, lasts)), corners) == ranks
            for first, last, cell in zip(firsts, lasts, cells):
                assert nv.corner_assemble(first, last, cell.corner) == cell


def test_assemble_id_refusals(nv_pair):
    # 1-cells 0 -> 0 and 1 -> 1 share no object, and the fiber has 3 elements
    first, last = nv_pair.rank_of(nv_pair.cell((0, 0), ((0,),))), nv_pair.rank_of(nv_pair.cell((1, 1), ((1,),)))
    with pytest.raises(CompatibilityError, match="faces do not overlap"):
        nv_pair.assemble_ids(2, [first], [last], [0])
    with pytest.raises(CompatibilityError, match="corner 3 outside the fiber over object 0"):
        nv_pair.assemble_ids(2, [first], [first], [3])


def test_assemble_ids_refuses_columns_of_unequal_lengths():
    # unchecked, zip drops the triples past the shortest column: on F6 (one
    # block) ``([0, 1], [0], [0])`` gave ``[0]``; the pair groupoid has many
    for nv in (Nerve(fixtures.z2_with_z3_fiber_twisted()), Nerve(fixtures.pair_groupoid_z3())):
        for columns, lengths in ((([0, 1], [0], [0]), "[2, 1, 1]"), (([0], [0, 0], [0]), "[1, 2, 1]"),
                                 (([0], [0], []), "[1, 1, 0]")):
            with pytest.raises(CompatibilityError, match=rf"^corner columns of unequal lengths {re.escape(lengths)}$"):
                nv.assemble_ids(3, *columns)
        assert nv.assemble_ids(3, [], [], []) == []


def test_assemble_ids_checks_each_pair_against_its_own_fiber():
    # fibers of sizes 3 (object 0) and 2 (object 1): corner 2 is valid only
    # on the pairs over object 0, past the smallest fiber of the call
    nv = Nerve(RANK_FIXTURES["f6_and_idempotent"]())
    for n in (2, 3):
        ranks = list(range(nv.count_cells(n)))
        faces, corners = nv.faces_of(n, ranks), nv.corners(n, ranks)
        assert max(corners) == 2 and {nv.cell_at(n, r).objects[1] for r in ranks} == {0, 1}
        assert nv.assemble_ids(n, faces[0], faces[n], corners) == ranks
        # the first refused triple raises, whatever its pair
        bad = [r for r in ranks if nv.cell_at(n, r).objects[1] == 1][-2:]
        for r in bad:
            corners[r] = 2
        with pytest.raises(CompatibilityError, match="^corner 2 outside the fiber over object 1$"):
            nv.assemble_ids(n, faces[0], faces[n], corners)
        firsts = list(faces[0])
        firsts[bad[0]] = ranks[0]  # a first face over object 0 shares no object with the last one
        with pytest.raises(CompatibilityError, match=r"^faces do not overlap: d_\{n-1\}\(first\) != d_0\(last\)$"):
            nv.assemble_ids(n, firsts, faces[n], corners)


def test_a_high_dimension_is_built_without_the_ones_below():
    # deeper than the default recursion limit: a dimension needs no lower one
    nv = Nerve(fixtures.trivial_point())
    assert nv.count_cells(1200) == 1 and nv.cell_at(1200, 0).dim == 1200


def test_every_composite_moved_outside_its_hom_set_is_refused_naming_the_validators_witness():
    # an inner face is a composite, so a nerve is refused before any cell
    # has a face outside its level; the refusal names cat.endpoints' witness
    from test_algebra import _corrupt

    refused = {}
    for name, build in sorted(RANK_FIXTURES.items()):
        xm = build()
        cat = xm.cat
        for a, b in itertools.product(cat.morphisms(), repeat=2):
            c = cat.compose_table[a][b]
            for value in () if c is None else sorted(set(cat.morphisms()) - set(cat.hom(cat.src[b], cat.tgt[a]))):
                bad = _corrupt(xm, "compose", (a, b), value)
                with pytest.raises(CompatibilityError) as err:
                    Nerve(bad)
                named = re.fullmatch(r"composite at \(a, b\) = \((\d+), (\d+)\) does not run (\d+)->(\d+)",
                                     str(err.value))
                assert named is not None, str(err.value)
                assert tuple(map(int, named.groups())) == (a, b, cat.src[b], cat.tgt[a])
                assert validate_crossed_monoid(bad).find("cat.endpoints").witness == (a, b)
                refused[name] = refused.get(name, 0) + 1
    assert refused == {"f6_and_idempotent": 6, "pair_groupoid_z3": 24, "pair_groupoid_z3_relabelled": 24}
