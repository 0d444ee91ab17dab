from typing import NamedTuple

import pytest

from xnerve import fixtures
from xnerve.algebra import CrossedMonoid, FiniteMonoid
from xnerve.errors import CellError, CompatibilityError, NotCrossedModuleError
from xnerve.fillers import _image_rule
from xnerve.nerve import Nerve, NerveCell, _cell
from xnerve.simplicial import BoundaryTuple, HornTuple, LevelProvider


def pair_groupoid_z3_relabelled() -> CrossedMonoid:
    """``pair_groupoid_z3`` with the elements of the fiber over object 1
    renamed by k -> (k + 2) % 3, so the two fibers have different unit ids
    and tables, and a formula that reads the wrong fiber shows."""
    xm = fixtures.pair_groupoid_z3()
    rename = (2, 0, 1)
    back = tuple(sorted(range(3), key=rename.__getitem__))
    z3 = xm.fibers[0]
    fiber1 = FiniteMonoid(3, rename[z3.unit], tuple(
        tuple(rename[z3.table[back[a]][back[b]]] for b in range(3)) for a in range(3)))
    # action[m] maps the fiber over tgt(m) to the fiber over src(m)
    action = tuple(
        tuple(rename[xm.action[m][a]] if xm.cat.src[m] else xm.action[m][a]
              for a in (back if xm.cat.tgt[m] else range(3)))
        for m in xm.cat.morphisms()
    )
    return CrossedMonoid(cat=xm.cat, fibers=(z3, fiber1), action=action, boundary=xm.boundary)


# -- cell forms with no caller in the package: references for the tests -------


def morphism_cell(nv, m):
    """The dimension-1 cell identified with morphism ``m``."""
    cat = nv.xm.cat
    if not 0 <= m < cat.num_morphisms:
        raise CellError(f"morphism {m} out of range")
    return NerveCell(1, (cat.tgt[m], cat.src[m]), ((m,),))


def eta(nv, M, j, k):
    """Row twist: ``m[j+1][j+1] * d(m[j+1][j+2] ... m[j+1][k])``.

    Runs from ``x_{j+1}`` to ``x_j``; ``k == j+1`` gives the bare
    diagonal entry.
    """
    n = M.dim
    if not (0 <= j and j + 1 <= k <= n):
        raise CellError(f"eta indices ({j},{k}) out of range for dimension {n}")
    xm = nv.xm
    row = M.rows[j]
    drow = xm.boundary[M.objects[j + 1]]
    compose = xm.cat.compose_table
    mor = row[0]
    for col in range(j + 2, k + 1):
        mor = compose[mor][drow[row[col - j - 1]]]
    return mor


def entry(cell, i, j):
    """Matrix entry at 1-based position (i, j), i <= j."""
    return cell.rows[i - 1][j - i]


def image_b3(xm, t) -> bool:
    """Does a compatible 4-tuple of 2-cells bound a 3-cell? (rule eq:image)

    Necessary over any crossed monoid; necessary and sufficient over a
    crossed module.
    """
    return _image_rule(xm, t.faces[3].rows[1][0], [m.rows[0][1] for m in t.faces])


class XMorphism(NamedTuple):
    """Structure map between two crossed monoids: a functor (``obj_map``,
    ``mor_map``) plus one fiber map per source object, checked by
    ``ref_validate_xmorphism`` in ``test_algebra.py``."""

    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    fiber_maps: tuple[tuple[int, ...], ...]


def identity_xmorphism(xm) -> XMorphism:
    return XMorphism(
        obj_map=tuple(xm.cat.objects()),
        mor_map=tuple(xm.cat.morphisms()),
        fiber_maps=tuple(tuple(f.elements()) for f in xm.fibers),
    )


def induced_cell(m, M):
    """Push a cell along a structure map: objects and diagonal through the
    functor, fiber entries through the matching fiber map."""
    objs = tuple(m.obj_map[x] for x in M.objects)
    rows = []
    for i, row in enumerate(M.rows, start=1):
        fiber_map = m.fiber_maps[M.objects[i]]
        rows.append((m.mor_map[row[0]],) + tuple(fiber_map[v] for v in row[1:]))
    return NerveCell(M.dim, objs, tuple(rows))


def rows(columns) -> list[tuple[int, ...]]:
    """The face rows of face columns, as ``level`` and ``Nerve.faces_of``
    give them: row i holds entry i of every column."""
    return list(zip(*columns))


def kept_rows(nv) -> dict[int, dict[int, tuple[int, ...]]]:
    """The face rows a nerve keeps of the levels it has not built, as
    {dimension: {rank: row}}, ranks in the order their rows were made: the
    one place the tests read the format of ``Nerve._rows``, face columns
    and the position of every kept rank in them."""
    kept = {}
    for d, (columns, at) in nv._rows.items():
        assert len(columns) == d + 1 and all(len(col) == len(at) for col in columns)
        assert sorted(at.values()) == list(range(len(at)))
        kept[d] = {r: tuple(col[p] for col in columns) for r, p in sorted(at.items(), key=lambda item: item[1])}
    return kept


def boundary(p, cell) -> BoundaryTuple:
    """The face tuple (d_0 x, ..., d_n x) of a cell of dimension n >= 1."""
    return BoundaryTuple(tuple(p.face(cell, j) for j in range(cell.dim + 1)))


def is_compatible(p, t: BoundaryTuple) -> bool:
    """Membership test for the dimension-n kernel: d_j x_k == d_{k-1} x_j."""
    n = t.dim
    if n < 2:
        return True
    f = t.faces
    for j in range(n):
        for k in range(j + 1, n + 1):
            if p.face(f[k], j) != p.face(f[j], k - 1):
                return False
    return True


def horn_of_cell(p, cell, l: int) -> HornTuple:
    """The horn obtained by forgetting face l of a cell's boundary."""
    faces = tuple(p.face(cell, j) for j in range(cell.dim + 1) if j != l)
    return HornTuple(cell.dim, l, faces)


class MatrixNerve(Nerve):
    """The matrix definitions of ``face``, ``degeneracy`` and
    ``corner_assemble``: the oracle the package's rank forms are tested
    against.  d_j multiplies, twists and merges the entries of the matrix
    as the ``nerve`` module docstring states, s_j inserts a unit column and
    a row (1_{x_j}, e, ..., e), and the corner bijection glues rows.  The
    overrides equal the inherited rank forms on every cell
    (``test_nerve.py::test_the_rank_forms_equal_the_matrix_definitions``),
    so ``LevelProvider``'s rule for a subclass that overrides ``face`` or
    ``degeneracy`` holds with the inherited ``face_rows`` and ``rank_maps``.
    They index the tables at a cell's entries unchecked, so they are for
    valid cells only."""

    def face(self, M: NerveCell, j: int) -> NerveCell:
        n = M.dim
        if n < 1:
            raise CellError("0-cells have no faces")
        if not 0 <= j <= n:
            raise CellError(f"face index {j} out of range for dimension {n}")
        xm = self.xm
        if n == 1:
            mor = M.rows[0][0]
            obj = xm.cat.src[mor] if j == 0 else xm.cat.tgt[mor]
            return _cell((0, (obj,), ()))
        objs = M.objects
        rows = M.rows
        if j == 0:
            return _cell((n - 1, objs[1:], rows[1:]))
        if j == n:
            return _cell((n - 1, objs[:-1], tuple([r[:-1] for r in rows[:-1]])))

        new_rows: list[tuple[int, ...]] = []
        for i in range(1, j):
            t = rows[i - 1]
            p = j - i
            mul = xm.fibers[objs[i]].table
            new_rows.append(t[:p] + (mul[t[p]][t[p + 1]],) + t[p + 2:])

        upper = rows[j - 1]
        lower = rows[j]
        compose = xm.cat.compose_table
        d_upper = xm.boundary[objs[j]]
        d_lower = xm.boundary[objs[j + 1]]
        mul_low = xm.fibers[objs[j + 1]].table
        action = xm.action
        merged = [compose[compose[upper[0]][d_upper[upper[1]]]][lower[0]]]
        eta = lower[0]
        for c in range(j + 1, n):
            if c > j + 1:
                eta = compose[eta][d_lower[lower[c - j - 1]]]
            twisted = action[eta][upper[c + 1 - j]]
            merged.append(mul_low[twisted][lower[c - j]])
        new_rows.append(tuple(merged))
        new_rows.extend(rows[j + 1:])
        return _cell((n - 1, objs[:j] + objs[j + 1:], tuple(new_rows)))

    def degeneracy(self, M: NerveCell, j: int) -> NerveCell:
        n = M.dim
        if not 0 <= j <= n:
            raise CellError(f"degeneracy index {j} out of range for dimension {n}")
        xm = self.xm
        if n == 0:
            p = M.objects[0]
            return _cell((1, (p, p), ((xm.cat.identity[p],),)))
        objs = M.objects
        rows = M.rows
        new_rows: list[tuple[int, ...]] = []
        for i in range(1, j + 1):
            t = rows[i - 1]
            p = j + 1 - i
            unit = xm.fibers[objs[i]].unit
            new_rows.append(t[:p] + (unit,) + t[p:])
        unit = xm.fibers[objs[j]].unit
        new_rows.append((xm.cat.identity[objs[j]],) + (unit,) * (n - j))
        new_rows.extend(rows[j:])
        new_objs = objs[: j + 1] + (objs[j],) + objs[j + 1:]
        return _cell((n + 1, new_objs, tuple(new_rows)))

    def corner_assemble(self, first: NerveCell, last: NerveCell, corner: int) -> NerveCell:
        """The cell with d_0 = ``first``, d_n = ``last`` and corner
        ``corner``: row 1 is the last face's row 1 and the corner, the rows
        below are the first face's rows."""
        if first.dim != last.dim or first.dim < 1:
            raise CompatibilityError("corner faces must share a dimension >= 1")
        n = first.dim + 1
        if self.face(first, n - 1) != self.face(last, 0):
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        fiber = self.xm.fibers[first.objects[0]]
        if not 0 <= corner < fiber.size:
            raise CompatibilityError(f"corner {corner} outside the fiber over object {first.objects[0]}")
        objs = last.objects + (first.objects[-1],)
        rows = (last.rows[0] + (corner,),) + first.rows
        return _cell((n, objs, rows))


class CheckedNerve(MatrixNerve):
    """A ``MatrixNerve`` that re-checks every face, degeneracy and
    corner_assemble result against the cell typing invariants."""

    def face(self, M, j):
        return self._checked(super().face(M, j))

    def degeneracy(self, M, j):
        return self._checked(super().degeneracy(M, j))

    def corner_assemble(self, first, last, corner):
        return self._checked(super().corner_assemble(first, last, corner))

    def _checked(self, c):
        self.validate_cell(c)
        return c


def corner_triples(nv, n):
    """Every valid ``(first, last, corner)`` on ranks in dimension n >= 2:
    (n-1)-cells with d_{n-1} first == d_0 last, and a corner in the fiber
    over first's object 0, found from the face table and by decoding first."""
    below = rows(nv.level(n - 1))
    by_first_face = {}
    for last, row in enumerate(below):
        by_first_face.setdefault(row[0], []).append(last)
    for first, row in enumerate(below):
        fiber = nv.xm.fibers[nv.cell_at(n - 1, first).objects[0]]
        for last in by_first_face.get(row[n - 1], ()):
            for corner in range(fiber.size):
                yield first, last, corner


class PerCellRanks(LevelProvider):
    """Reference adapter: gives a provider that has only ``cells``,
    ``face`` and ``degeneracy`` the rank interface of the whole-level checks
    (``count_cells``, ``face_rows``, ``cell_at``, ``rank_of``) by
    materialising each dimension's cell list and ``cell -> rank`` map.
    ``face_rows`` makes one ``face`` call per face, column by column, and
    raises CompatibilityError for a face that is not a cell of the level
    below, whether it is missing from the level or ``face`` refuses to build
    it: the reference for ``Nerve.face_rows``."""

    def _listed(self, n):
        listing = self.__dict__.setdefault("_listing", {})
        if n not in listing:
            cells = list(self.cells(n))
            listing[n] = (cells, {c: i for i, c in enumerate(cells)})
        return listing[n]

    def count_cells(self, n):
        return len(self._listed(n)[0])

    def cell_at(self, n, rank):
        return self._listed(n)[0][rank]

    def rank_of(self, cell):
        return self._listed(cell.dim)[1][cell]

    def face_rows(self, n, below):
        ids = self._listed(n - 1)[1]
        columns = [[ids.get(self.face(c, j)) for c in self._listed(n)[0]] for j in range(n + 1)]
        if any(None in col for col in columns):
            raise CompatibilityError(f"a face of a {n}-cell is not a {n - 1}-cell")
        return columns


class ReferenceFiller:
    """The per-horn filler: one horn at a time, through the nerve's
    ``faces_of``, ``corners`` and ``assemble_ids`` on columns of one, with
    face rows kept per rank.  The reference for ``HornFiller.fill_columns``:
    the same fillers, and on a refused horn the same error."""

    def __init__(self, nerve):
        nerve.xm.classification.require_module()
        self.nerve, self.xm = nerve, nerve.xm
        self.rows = {}

    def face_ids(self, n, r):
        row = self.rows.get((n, r))
        if row is None:
            row = self.rows[n, r] = rows(self.nerve.faces_of(n, [r]))[0]
        return row

    def _act_inv(self, g, a):
        return self.xm.action[self.xm.cat.morphism_inverse[g]][a]

    def _mul(self, obj, *items):
        return self.xm.fibers[obj].product(items)

    def _inv(self, obj, a):
        v = self.xm.fibers[obj].inverse[a]
        if v is None:
            raise NotCrossedModuleError("fibers_are_groups", (obj, a))
        return v

    def _mor_inverse(self, m):
        v = self.xm.cat.morphism_inverse[m]
        if v is None:
            raise NotCrossedModuleError("category_is_groupoid", (m,))
        return v

    def fill_ids(self, n, l, faces):
        if n < 2:
            raise CompatibilityError(f"no constructive filler in dimension {n}")
        if not 0 <= l <= n or len(faces) != n:
            raise CompatibilityError(f"a horn of dimension {n} has {n} faces and a slot in 0..{n}, "
                                     f"got {len(faces)} faces and slot {l}")
        size = self.nerve.count_cells(n - 1)
        for f in faces:
            if not 0 <= f < size:
                raise CompatibilityError(f"face rank {f} is not one of the {size} cells of dimension {n - 1}")
        face_ids = self.face_ids
        rows = [face_ids(n - 1, f) for f in faces]
        slots = [k for k in range(n + 1) if k != l]
        for a, j in enumerate(slots):
            for b in range(a + 1, n):
                if rows[b][j] != rows[a][slots[b] - 1]:
                    raise CompatibilityError("tuple is not a horn: faces do not match up")
        if n == 2:
            return self._fill_dim2(l, faces, slots)
        beta = [row[l - 1 if i < l else l] for i, row in enumerate(rows)]
        completed = list(faces)
        completed.insert(l, self._missing_2face(l, faces, rows, beta) if n == 3 else self._cell_with_boundary(n - 1, beta))
        return self._cell_with_boundary(n, completed)

    def _fill_dim2(self, l, faces, slots):
        cat, nv = self.xm.cat, self.nerve
        f, g = [nv.mor_at[r] for r in faces]
        if l == 1:
            lower, upper = f, g
        elif l == 2:
            lower, upper = f, cat.compose(g, self._mor_inverse(f))
        else:
            lower, upper = cat.compose(self._mor_inverse(g), f), g
        [filler] = nv.assemble_ids(2, [nv.mor_rank[lower]], [nv.mor_rank[upper]], [self.xm.fibers[cat.src[upper]].unit])
        row = self.face_ids(2, filler)
        for slot, expected in zip(slots, faces):
            if row[slot] != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {slot}")
        return filler

    def _missing_2face(self, l, faces, rows, beta):
        nv = self.nerve
        g = nv.mor_at[beta[0] if l == 3 else rows[-1][0]]
        x1, x2 = self.xm.cat.tgt[g], self.xm.cat.src[g]
        c = nv.corners(2, faces)
        c.insert(l, None)
        mul, act, inv = self._mul, self.xm.action[g], self._inv
        if l == 0:
            corner = mul(x2, act[mul(x1, inv(x1, c[2]), c[3])], c[1])
        elif l == 1:
            corner = mul(x2, act[mul(x1, inv(x1, c[3]), c[2])], c[0])
        elif l == 2:
            corner = self._act_inv(g, mul(x2, act[c[3]], c[1], inv(x2, c[0])))
        else:
            corner = self._act_inv(g, mul(x2, act[c[2]], c[0], inv(x2, c[1])))
        return nv.assemble_ids(2, [beta[0]], [beta[2]], [corner])[0]

    def _cell_with_boundary(self, n, faces):
        nv = self.nerve
        face_ids = self.face_ids
        if n == 3:
            c = nv.corners(2, faces)
            g = nv.mor_at[face_ids(2, faces[3])[0]]
            if not _image_rule(self.xm, g, c):
                raise CompatibilityError("boundary tuple fails eq:image")
            x1 = self.xm.cat.tgt[g]
            corner = self._mul(x1, self._inv(x1, c[3]), c[2])
        else:
            [corner] = nv.corners(n - 1, [faces[2]])
        if face_ids(n - 1, faces[0])[n - 1] != face_ids(n - 1, faces[-1])[0]:
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        [cell] = nv.assemble_ids(n, [faces[0]], [faces[-1]], [corner])
        for j, (got, expected) in enumerate(zip(face_ids(n, cell), faces)):
            if got != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {j}")
        return cell


@pytest.fixture(scope="session")
def xm_trivial():
    return fixtures.trivial_point()


@pytest.fixture(scope="session")
def xm_z2():
    return fixtures.group_z2()


@pytest.fixture(scope="session")
def xm_z3_fiber():
    return fixtures.z3_fiber_only()


@pytest.fixture(scope="session")
def xm_z2_z3():
    return fixtures.z2_with_z3_fiber()


@pytest.fixture(scope="session")
def xm_z2_z3_twisted():
    return fixtures.z2_with_z3_fiber_twisted()


@pytest.fixture(scope="session")
def xm_idempotent():
    return fixtures.idempotent_fiber()


@pytest.fixture(scope="session")
def xm_pair():
    return fixtures.pair_groupoid_z3()


# Checked nerves on the matrix definitions: every face/degeneracy/
# corner_assemble result is checked against the cell typing invariants
# while the suite runs.
@pytest.fixture(scope="session")
def nv_trivial(xm_trivial):
    return CheckedNerve(xm_trivial)


@pytest.fixture(scope="session")
def nv_z2(xm_z2):
    return CheckedNerve(xm_z2)


@pytest.fixture(scope="session")
def nv_z3_fiber(xm_z3_fiber):
    return CheckedNerve(xm_z3_fiber)


@pytest.fixture(scope="session")
def nv_z2_z3(xm_z2_z3):
    return CheckedNerve(xm_z2_z3)


@pytest.fixture(scope="session")
def nv_z2_z3_twisted(xm_z2_z3_twisted):
    return CheckedNerve(xm_z2_z3_twisted)


@pytest.fixture(scope="session")
def nv_idempotent(xm_idempotent):
    return CheckedNerve(xm_idempotent)


@pytest.fixture(scope="session")
def nv_pair(xm_pair):
    return CheckedNerve(xm_pair)


@pytest.fixture(scope="session")
def nv_pair_relabelled():
    return CheckedNerve(pair_groupoid_z3_relabelled())
