import pytest

from xnerve import fixtures
from xnerve.algebra import CrossedMonoid, FiniteMonoid
from xnerve.errors import CompatibilityError
from xnerve.nerve import Nerve
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


class CheckedNerve(Nerve):
    """A nerve that re-checks every face, degeneracy and corner_assemble
    result against the cell typing invariants."""

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
    below = nv.level(n - 1)
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
    ``face_rows`` makes one ``face`` call per face and raises KeyError for
    a face that is not a cell of the level below, whether it is missing from
    the level or ``face`` refuses to build it: the reference for
    ``Nerve.face_rows``."""

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
        face, ids, js = self.face, self._listed(n - 1)[1], range(n + 1)
        try:
            return [tuple([ids[face(c, j)] for j in js]) for c in self._listed(n)[0]]
        except CompatibilityError as exc:
            raise KeyError(str(exc)) from None


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


# Checked nerves: every face/degeneracy/corner_assemble result is
# checked against the cell typing invariants while the suite runs.
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
