import json
import os
import random
import re
import subprocess
import sys
import textwrap

import pytest

from conftest import MatrixNerve, ReferenceFiller, boundary, entry, horn_of_cell, image_b3, morphism_cell
from xnerve import fixtures
from xnerve.cli import run
from xnerve.errors import CompatibilityError, NotCrossedModuleError
from xnerve.io import from_crossed_monoid, serialize
from xnerve.fillers import HornFiller
from xnerve.nerve import Nerve
from xnerve.simplicial import (
    BoundaryTuple,
    HornTuple,
    beta,
    horns,
    simplicial_kernel,
)


def brute_image_b3(nv):
    return {boundary(nv, cell) for cell in nv.cells(3)}


def sample_horns(nv, n, l, count, seed):
    rng = random.Random(seed)
    total = nv.count_cells(n)
    return [horn_of_cell(nv, nv.cell_at(n, rng.randrange(total)), l) for _ in range(count)]


def fills(hf, h):
    """Whether the filler's faces at the horn's slots, by the per-cell
    ``face``, are the horn's faces."""
    nv, c = hf.nerve, hf.fill(h)
    return [nv.face(c, j) for j in h.slots()] == list(h.faces)


def test_image_b3_corner_arithmetic(nv_z2_z3):
    # on the untwisted fixture the rule reads c3 + c1 == c2 + c0
    def tuple_with_corners(c0, c1, c2, c3):
        mk = lambda c: nv_z2_z3.cell((0, 0, 0), ((0, c), (0,)))
        return BoundaryTuple((mk(c0), mk(c1), mk(c2), mk(c3)))

    assert image_b3(nv_z2_z3.xm, tuple_with_corners(0, 0, 0, 0))
    assert image_b3(nv_z2_z3.xm, tuple_with_corners(1, 0, 0, 1))
    assert not image_b3(nv_z2_z3.xm, tuple_with_corners(0, 1, 0, 0))


def test_image_b3_equals_brute_force_membership(nv_z2, nv_z2_z3, nv_z2_z3_twisted):
    for nv in (nv_z2, nv_z2_z3, nv_z2_z3_twisted):
        image = brute_image_b3(nv)
        for t in simplicial_kernel(nv, 3):
            assert image_b3(nv.xm, t) == (t in image)


def test_image_b3_necessity_on_the_non_module(nv_idempotent):
    for t in brute_image_b3(nv_idempotent):
        assert image_b3(nv_idempotent.xm, t)


def test_fill_dim2_examples(xm_z2):
    nv = MatrixNerve(xm_z2)
    hf = HornFiller(nv)
    g = morphism_cell(nv, 1)
    one = morphism_cell(nv, 0)
    c = hf.fill(HornTuple(2, 1, (g, g)))
    assert c == nv.cell((0, 0, 0), ((1, 0), (1,)))
    assert nv.face(c, 1) == one
    c = hf.fill(HornTuple(2, 0, (one, g)))
    assert c.rows == ((1, 0), (1,))
    c = hf.fill(HornTuple(2, 2, (g, one)))
    assert nv.face(c, 0) == g and nv.face(c, 1) == one


def test_fill_dim2_multi_object(xm_pair):
    nv = MatrixNerve(xm_pair)
    hf = HornFiller(nv)
    for l in range(3):
        for h in horns(nv, 2, l):
            assert fills(hf, h)


def test_fill_dims_2_and_3_exhaustive(xm_z2_z3, xm_z2_z3_twisted, xm_pair):
    for xm in (xm_z2_z3, xm_z2_z3_twisted, xm_pair):
        nv = MatrixNerve(xm)
        hf = HornFiller(nv)
        for n in (2, 3):
            for l in range(n + 1):
                for h in horns(nv, n, l):
                    assert fills(hf, h)


def test_fill_dim3_all_degenerate(xm_z2_z3):
    nv = MatrixNerve(xm_z2_z3)
    hf = HornFiller(nv)
    deg = nv.degeneracy(nv.degeneracy(morphism_cell(nv, 0), 0), 0)
    h = horn_of_cell(nv, deg, 1)
    assert hf.fill(h) == deg


def test_fill_dim3_returns_the_cell_a_horn_came_from(xm_z2_z3, xm_z2_z3_twisted, xm_pair):
    for xm in (xm_z2_z3, xm_z2_z3_twisted, xm_pair):
        hf = HornFiller(MatrixNerve(xm))
        nv = hf.nerve
        for c in nv.cells(3):
            for l in range(4):
                assert hf.fill(horn_of_cell(nv, c, l)) == c


def test_fill_dim4_exhaustive_small_and_sampled_large(xm_z2, xm_z2_z3):
    nv2 = MatrixNerve(xm_z2)
    hf2 = HornFiller(nv2)
    for l in range(5):
        for h in horns(nv2, 4, l):
            assert fills(hf2, h)
    nv4 = MatrixNerve(xm_z2_z3)
    hf4 = HornFiller(nv4)
    for l in range(5):
        for h in sample_horns(nv4, 4, l, 120, seed=l):
            assert fills(hf4, h)
    deg = morphism_cell(nv4, 0)
    for _ in range(3):
        deg = nv4.degeneracy(deg, 0)
    assert hf4.fill(horn_of_cell(nv4, deg, 2)) == deg


def test_fill_dim4_multi_object_sampled(xm_pair):
    hf = HornFiller(MatrixNerve(xm_pair))
    nv = hf.nerve
    for l in range(5):
        for h in sample_horns(nv, 4, l, 80, seed=30 + l):
            assert fills(hf, h)


def test_fill_high_exhaustive_dim5_small(xm_z2):
    nv = MatrixNerve(xm_z2)
    hf = HornFiller(nv)
    for l in range(6):
        for h in horns(nv, 5, l):
            assert fills(hf, h)


def test_fill_high_degenerate_and_sampled(xm_z2_z3):
    nv = MatrixNerve(xm_z2_z3)
    hf = HornFiller(nv)
    deg = morphism_cell(nv, 0)
    for _ in range(4):
        deg = nv.degeneracy(deg, 0)
    h = horn_of_cell(nv, deg, 2)
    assert hf.fill(h) == deg
    for l in (0, 3, 5):
        for h in sample_horns(nv, 5, l, 40, seed=l):
            assert fills(hf, h)


def test_fillers_refuse_non_modules():
    with pytest.raises(NotCrossedModuleError) as err:
        HornFiller(Nerve(fixtures.idempotent_fiber()))
    assert err.value.hypothesis == "fibers_are_groups"
    with pytest.raises(NotCrossedModuleError) as err:
        HornFiller(Nerve(fixtures.idempotent_endo_category()))
    assert err.value.hypothesis == "category_is_groupoid"


def test_fill_refuses_a_horn_of_the_wrong_shape(xm_z2_z3):
    hf = HornFiller(MatrixNerve(xm_z2_z3))
    nv = hf.nerve
    for faces in ([5, 1], [5, 1, 0, 0]):
        with pytest.raises(CompatibilityError, match=f"has 3 faces and a slot in 0..3, got {len(faces)} faces"):
            hf.fill_columns(3, 1, [[f] for f in faces])
    for l in (-1, 4):
        with pytest.raises(CompatibilityError, match=f"got 3 faces and slot {l}$"):
            hf.fill_columns(3, l, [[5], [1], [0]])
    # a face rank outside the level of 2-cells is refused, not an IndexError
    for rank in (10**6, -1):
        with pytest.raises(CompatibilityError, match=f"^face rank {rank} is not one of the 12 cells of dimension 2$"):
            hf.fill_columns(3, 1, [[rank], [0], [0]])
    h = horn_of_cell(nv, nv.cell_at(3, 5), 1)
    with pytest.raises(CompatibilityError, match="got 2 faces"):
        hf.fill(HornTuple(3, 1, h.faces[:2]))
    # ranks carry no dimension: on the ranks of three 1-cells
    # fill_columns would build a 3-cell
    edge = morphism_cell(nv, 0)
    with pytest.raises(CompatibilityError, match="a horn of dimension 3 has faces of dimension 2"):
        hf.fill(HornTuple(3, 1, (edge, edge, edge)))


def test_fill_refuses_columns_of_unequal_lengths(xm_z2_z3):
    # refused up front: cut to the first column's length, these would fail
    # another check ("faces do not overlap", "tuple is not a horn")
    hf = HornFiller(Nerve(xm_z2_z3))
    h = horns(hf.nerve, 3, 1).columns
    for columns in ([h[0][:1], h[1][:2], h[2][:2]], [h[0][:2], h[1][:1], h[2][:2]], [h[0][:2], h[1][:2], h[2]]):
        lengths = [len(col) for col in columns]
        with pytest.raises(CompatibilityError, match=re.escape(f"horn columns of unequal lengths {lengths}")):
            hf.fill_columns(3, 1, columns)
    filled = hf.fill_columns(3, 1, [col[:2] for col in h])
    assert [hf.nerve.faces_of(3, filled)[j] for j in (0, 2, 3)] == [col[:2] for col in h]


# -- the cross-diagonal oracle for dimension-4 filling -----------------------
#
# For a dimension-4 horn with the face at slot l missing, set
# w[s][t] = corner of (d_{s-1} face_t) for s > t and of (d_s face_t) for
# s < t.  Entries exist off column l and the diagonal; horn compatibility
# makes the array symmetric off row/column l; row l lists the corners of the
# collapsed boundary; and one identity per l, checked below, is exactly the
# membership rule for that collapsed boundary.  Each defined entry is
# recomputed a second way, as a closed form in the raw matrix entries of the
# faces together with the shared notation elements m22, m23, m33.

def _w_entries(nv, h):
    w = {}
    for slot, cell in zip(h.slots(), h.faces):
        for s in range(5):
            if s == slot:
                continue
            j = s - 1 if s > slot else s
            w[(s, slot)] = nv.face(cell, j).rows[0][1]
    return w


def _shared_notation(by_slot):
    """(m22, m23, m33) from every available source; all sources must agree."""
    m22 = {entry(by_slot[s], *pos) for s, pos in ((0, (1, 1)), (3, (2, 2)), (4, (2, 2))) if s in by_slot}
    m23 = {entry(by_slot[s], *pos) for s, pos in ((0, (1, 2)), (4, (2, 3))) if s in by_slot}
    m33 = {entry(by_slot[s], *pos) for s, pos in ((0, (2, 2)), (1, (2, 2)), (4, (3, 3))) if s in by_slot}
    assert len(m22) == 1 and len(m23) == 1 and len(m33) == 1
    return m22.pop(), m23.pop(), m33.pop()


def _w_closed_forms(xm, by_slot, m22, m23, m33):
    """Every defined w entry from raw face entries and the shared notation."""
    obj = next(iter(by_slot.values())).objects[1]  # one-object fixtures here
    mul = xm.fibers[obj].mul
    act = xm.action
    exp2233 = xm.cat.compose(xm.cat.compose(m22, xm.boundary[obj][m23]), m33)
    closed = {}
    for t, cell in by_slot.items():
        c12, c13, c23 = entry(cell, 1, 2), entry(cell, 1, 3), entry(cell, 2, 3)
        if t != 0:
            closed[(0, t)] = c23
        else:
            closed[(1, 0)] = c23
        if t >= 2:
            closed[(1, t)] = mul(act[exp2233 if t == 2 else m22][c13], c23)
        if t <= 1:
            closed[(2, t)] = mul(act[m33][c13], c23)
        if t >= 3:
            closed[(2, t)] = mul(c12, c13)
        if t <= 2:
            closed[(3, t)] = mul(c12, c13)
        if t == 4:
            closed[(3, 4)] = c12
        if t != 4:
            closed[(4, t)] = c12
    return closed, exp2233


def test_w_matrix_oracle(xm_z2_z3, xm_z2_z3_twisted):
    for xm in (xm_z2_z3, xm_z2_z3_twisted):
        nv = MatrixNerve(xm)
        mul = xm.fibers[0].mul
        inv = xm.fibers[0].inverse
        act = xm.action
        for l in range(5):
            for h in sample_horns(nv, 4, l, 200, seed=100 + l):
                by_slot = {s: c for s, c in zip(h.slots(), h.faces)}
                w = _w_entries(nv, h)
                m22, m23, m33 = _shared_notation(by_slot)
                closed, exp2233 = _w_closed_forms(xm, by_slot, m22, m23, m33)

                assert set(closed) == set(w)
                for key, value in closed.items():
                    assert w[key] == value, (l, key)

                for s in range(5):
                    for t in range(5):
                        if s == t or l in (s, t):
                            continue
                        assert w[(s, t)] == w[(t, s)]

                if l == 0:
                    lhs = mul(w[(0, 2)], inv[w[(0, 1)]])
                    rhs = act[m33][mul(inv[w[(0, 4)]], w[(0, 3)])]
                elif l == 1:
                    lhs = mul(w[(1, 2)], inv[w[(1, 0)]])
                    rhs = act[m33][mul(inv[w[(1, 4)]], w[(1, 3)])]
                elif l == 2:
                    lhs = mul(w[(2, 1)], inv[w[(2, 0)]])
                    rhs = act[exp2233][mul(inv[w[(2, 4)]], w[(2, 3)])]
                elif l == 3:
                    lhs = mul(w[(3, 1)], inv[w[(3, 0)]])
                    rhs = act[m22][mul(inv[w[(3, 4)]], w[(3, 2)])]
                else:
                    lhs = mul(w[(4, 1)], inv[w[(4, 0)]])
                    rhs = act[m22][mul(inv[w[(4, 3)]], w[(4, 2)])]
                assert lhs == rhs, (l,)

                assert image_b3(xm, beta(nv, h))


def test_eq_image_refusal_survives_python_dash_O():
    import xnerve

    script = textwrap.dedent(
        """
        from xnerve import fixtures
        from xnerve.errors import CompatibilityError
        from xnerve.fillers import HornFiller
        from xnerve.nerve import Nerve

        print("debug", __debug__)
        hf = HornFiller(Nerve(fixtures.z2_with_z3_fiber()))
        mk = lambda c: hf.nerve.rank_of(hf.nerve.cell((0, 0, 0), ((0, c), (0,))))
        try:
            hf._cell_with_boundary(3, [[mk(0)], [mk(1)], [mk(0)], [mk(0)]])
        except CompatibilityError as exc:
            print("refused:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(xnerve.__file__)))
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["debug False", "refused: boundary tuple fails eq:image"]


# -- the id path: verified, and free of cells ---------------------------------

@pytest.fixture()
def file_f6(tmp_path):
    path = tmp_path / "f6.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.z2_with_z3_fiber_twisted())))
    return path


def _fill_is_refused(path, tmp_path, capsys, dim):
    out = tmp_path / "report.json"
    assert run(["fill", str(path), "--dims", "2..5", "--max-cells", "10000", "--json", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["error"]["kind"] == "error" and "checks" not in report
    assert capsys.readouterr().err.startswith("ERROR (error): ")
    hf = HornFiller(MatrixNerve(fixtures.z2_with_z3_fiber_twisted()))
    with pytest.raises(CompatibilityError):
        hf.fill(horn_of_cell(hf.nerve, hf.nerve.cell_at(dim, 100), 1))
    return report["error"]["message"]


def test_a_wrong_corner_at_dimension_4_and_up_is_refused(monkeypatch, file_f6, tmp_path, capsys):
    real = Nerve.assemble_ids

    def wrong_corner(self, n, firsts, lasts, corners):
        return real(self, n, firsts, lasts, [(corner + 1) % 3 if n >= 4 else corner for corner in corners])

    monkeypatch.setattr(Nerve, "assemble_ids", wrong_corner)
    message = _fill_is_refused(file_f6, tmp_path, capsys, 4)
    assert message.startswith("boundary reconstruction failed at face ")


def test_a_wrong_eq_image_corner_at_dimension_3_is_refused(monkeypatch, file_f6, tmp_path, capsys):
    real = HornFiller._missing_corner

    def wrong_corner(self, *args):
        # the next corner in F6's three-element fiber; F6's boundary is
        # trivial, so the rebuilt face keeps its faces and passes its check
        return [(corner + 1) % 3 for corner in real(self, *args)]

    monkeypatch.setattr(HornFiller, "_missing_corner", wrong_corner)
    assert _fill_is_refused(file_f6, tmp_path, capsys, 3) == "boundary tuple fails eq:image"
    hf = HornFiller(Nerve(fixtures.z2_with_z3_fiber_twisted()))
    for l in range(4):
        with pytest.raises(CompatibilityError, match="^boundary tuple fails eq:image$"):
            hf.fill_columns(3, l, _sampled_horn_columns(hf.nerve, 3, l, 20, seed=l))


@pytest.mark.parametrize("n, rule", [(2, "_missing_edge"), (3, "_missing_corner")])
def test_a_wrong_missing_face_is_refused_by_its_face_row(monkeypatch, n, rule):
    # One object, Z/3 morphisms, and the identity as boundary: the next
    # edge (n = 2), or the rebuilt 2-face with the next corner (n = 3), has
    # the horn's ends but another d_1.  A wrong d_1 of dimension 2 is
    # refused by the filler's face row; a wrong 2-face by its own, before
    # the filler's eq:image check.
    real = getattr(HornFiller, rule)
    monkeypatch.setattr(HornFiller, rule, lambda self, *args: [(r + 1) % 3 for r in real(self, *args)])
    hf = HornFiller(Nerve(fixtures.z3_identity_boundary()))
    for l in range(n + 1):
        with pytest.raises(CompatibilityError, match="^boundary reconstruction failed at face 1$"):
            hf.fill_columns(n, l, horns(hf.nerve, n, l).columns)


def test_cmd_fill_makes_no_face_or_cell_at_calls(monkeypatch, file_f6, capsys):
    calls = {"face": 0, "cell_at": 0}
    for name in calls:
        def counted(self, *args, _real=getattr(Nerve, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Nerve, name, counted)
    assert run(["fill", str(file_f6), "--dims", "2..5", "--max-cells", "10000"]) == 0
    assert capsys.readouterr().out.count("face-verified") == 18
    nv = Nerve(fixtures.z2_with_z3_fiber_twisted())
    nv.face(nv.cell((0, 0), ((0,),)), 0)  # reads its face back through cell_at: both counters are live
    assert calls == {"face": 1, "cell_at": 1}


# -- the column fill against the per-horn reference ---------------------------

ORACLE = {
    "F2": fixtures.group_z2,
    "F4": fixtures.z2_with_z3_fiber,
    "F6": fixtures.z2_with_z3_fiber_twisted,
    "pair": fixtures.pair_groupoid_z3,  # two objects: many blocks per dimension
    "z3_identity": fixtures.z3_identity_boundary,  # a boundary other than the constant identity
}


def _sampled_horn_columns(nv, n, l, count, seed):
    """Columns of the horns of ``count`` sampled n-cells, slot l dropped."""
    rng = random.Random(seed)
    faces = nv.faces_of(n, [rng.randrange(nv.count_cells(n)) for _ in range(count)])
    return faces[:l] + faces[l + 1:]


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_column_fill_equals_the_reference_filler(name):
    # every horn up to dimension 3, and of dimension 4 on F2; 200 sampled
    # horns per slot of dimension 4 elsewhere (F4 has 58,320 dimension-4
    # horns, at about 85 us each in the reference) and 30 of dimension 5
    nv = Nerve(ORACLE[name]())
    hf, ref = HornFiller(nv), ReferenceFiller(nv)
    for n in (2, 3, 4, 5):
        for l in range(n + 1):
            if nv.count_cells(n) <= 1000:
                columns = horns(nv, n, l).columns
            else:
                columns = _sampled_horn_columns(nv, n, l, 200 if n == 4 else 30, seed=10 * n + l)
            assert hf.fill_columns(n, l, columns) == [ref.fill_ids(n, l, h) for h in zip(*columns)]


def test_outer_faces_that_do_not_overlap_fail_the_face_row_check():
    # d_4 of the assembled cell is face 4 exactly when d_3 of face 0 is d_0
    # of face 4, so the face-row check refuses a face 4 from another cell
    nv = Nerve(fixtures.z2_with_z3_fiber_twisted())
    ranks = list(range(0, nv.count_cells(4), 97))
    rows = nv.faces_of(4, ranks)
    starts = nv.faces_of(3, rows[4])[0]  # d_0 of every face 4
    other = next(i for i, s in enumerate(starts) if s != starts[0])
    faces = [col[:1] for col in rows]
    faces[4] = [rows[4][other]]
    assert nv.faces_of(3, faces[0])[3] != nv.faces_of(3, faces[4])[0]
    with pytest.raises(CompatibilityError, match=r"^boundary reconstruction failed at face \d$"):
        HornFiller(nv)._cell_with_boundary(4, faces)


def test_a_filler_reads_face_rows_only_for_the_horn_and_its_checks(monkeypatch):
    # Per slot of dimension n >= 3: n faces_of calls for the horn's rows,
    # 1 for the rebuilt face's check, 1 for the filler's check, and one for
    # the diagonal of the eq:image check of the filler (n = 3) or of the
    # rebuilt face (n = 4).  No cell's outer faces are read for an overlap
    # test: its face-row check covers it.
    nv = Nerve(fixtures.z2_with_z3_fiber_twisted())
    hf, ref, calls, real = HornFiller(nv), ReferenceFiller(nv), [], Nerve.faces_of
    monkeypatch.setattr(Nerve, "faces_of", lambda self, n, ranks: calls.append(n) or real(self, n, ranks))
    for n in (3, 4, 5):
        for l in range(n + 1):
            columns = _sampled_horn_columns(nv, n, l, 20, seed=n + l)
            calls.clear()
            filled = hf.fill_columns(n, l, columns)
            assert len(calls) == n + 2 + (n in (3, 4))
            assert filled == [ref.fill_ids(n, l, h) for h in zip(*columns)]


def _first_refusal(ref, n, l, columns):
    for h in zip(*columns):
        try:
            ref.fill_ids(n, l, h)
        except CompatibilityError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("name", ["F6", "pair"])
def test_a_corrupted_column_raises_the_first_refused_horn_s_error(name):
    nv = Nerve(ORACLE[name]())
    hf, ref = HornFiller(nv), ReferenceFiller(nv)
    rng = random.Random(7)
    messages = set()
    for n in (2, 3, 4):
        size = nv.count_cells(n - 1)
        for l in range(n + 1):
            for _ in range(4):
                columns = _sampled_horn_columns(nv, n, l, 60, seed=rng.random())
                # one face rank swapped, in a few horns, for another rank or
                # for one that is no (n-1)-cell
                for i in rng.sample(range(60), 3):
                    columns[rng.randrange(n)][i] = rng.choice([rng.randrange(size), size + rng.randrange(9), -1])
                expected = _first_refusal(ref, n, l, columns)
                if expected is None:
                    assert hf.fill_columns(n, l, columns) == [ref.fill_ids(n, l, h) for h in zip(*columns)]
                    continue
                with pytest.raises(CompatibilityError) as err:
                    hf.fill_columns(n, l, columns)
                assert str(err.value) == expected
                messages.add(" ".join(expected.split()[:2]))
    assert messages == {"tuple is", "face rank"}
