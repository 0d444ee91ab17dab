"""Generic machinery over any finite simplicial level provider.

A *level provider* is anything with ``cells(n)``, ``face(cell, j)`` and
``degeneracy(cell, j)`` whose cells are hashable values; ``Nerve`` is the
main instance.  On top of that this module builds boundary tuples, the
compatibility kernel of each dimension, horns, the horn-to-boundary map,
coskeletality and Kan checks, and brute-force homotopy groups.

Whole-level work runs on integer cell ids.  ``Levels`` enumerates each
dimension once into a ``Level``: the cell list, whose positions are the ids
(so ids follow ``cells(n)`` order), the ``cell -> id`` map, and the face
table, whose row ``i`` holds the ids of d_0 .. d_n of cell ``i``.  A
provider with a ``face_rows`` method (``Nerve``) fills the face table
itself, from the level below and without per-cell ``face`` calls; any
other provider gets one ``face`` call per face.  Kernels
and horns are one hash join over the face table of the level below: slot k
is added by indexing candidate ids on the faces they must share with the
slots already placed, never by filtering the full product.  The Kan and
coskeletal checks and brute-force pi compare face-id rows; ids turn back
into cells only in witnesses, group labels and the tuples handed out by
``simplicial_kernel`` and ``horns``.  For a ``Nerve`` the ids are the cells'
ranks, so ``horns(...).ids`` go straight to ``HornFiller.fill_ids``.  The identity audit works on cells,
since the degeneracies it checks land in dimensions that are never
enumerated: it runs one loop over a table of the six identity families,
computing each cell's face and degeneracy rows once and handing them to
every family.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Protocol

from .algebra import ValidationReport, Violation
from .errors import CapacityError, CompatibilityError, DEFAULT_CAPACITY, NotKanError
from .groups import GroupPresentation


class LevelProvider(Protocol):
    """What the generic checks call.  A provider may also offer
    ``face_rows(n, below)``, the face-id rows of all its n-cells in
    ``cells(n)`` order given the ``Level`` of dimension n-1, which
    ``Levels`` then uses in place of ``face``.  It must agree with
    ``face``: a ``Nerve`` subclass that overrides ``face`` to give other
    cells must override ``face_rows`` too."""

    def cells(self, n: int, cap: int = ...) -> Iterable[Hashable]: ...

    def face(self, cell, j: int): ...

    def degeneracy(self, cell, j: int): ...


@dataclass(frozen=True)
class BoundaryTuple:
    """Ordered faces (x_0, ..., x_n) pairwise compatible as a boundary."""

    faces: tuple

    @property
    def dim(self) -> int:
        return len(self.faces) - 1


@dataclass(frozen=True)
class HornTuple:
    """A boundary tuple with the face at position ``omitted`` missing.

    ``faces`` lists the present faces in slot order; ``slots()`` recovers
    their positions.
    """

    dim: int
    omitted: int
    faces: tuple

    def slots(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.dim + 1) if k != self.omitted)


class Level(NamedTuple):
    """One enumerated dimension: ``cells[i]`` is the cell with id ``i``,
    ``ids`` maps cells back to ids, and ``faces[i][j]`` is the id of
    ``d_j cells[i]`` in the level below (rows are empty in dimension 0)."""

    cells: list
    ids: dict
    faces: list[tuple[int, ...]]


class Levels:
    """The ``Level`` tables of one provider, each built on first use and
    then shared by every check handed this instance.  The cells come from
    ``p.cells``; the face table from ``p.face_rows`` where the provider has
    it, else from one ``p.face`` call per face.  Either way a face missing
    from the level below refuses the level with CompatibilityError, and a
    level is refused with CapacityError whenever it holds more cells than
    the caller's ``cap``."""

    def __init__(self, p: LevelProvider):
        self.p = p
        self._built: dict[int, Level] = {}

    def level(self, n: int, cap: int = DEFAULT_CAPACITY) -> Level:
        lv = self._built.get(n)
        if lv is not None:
            if len(lv.cells) > cap:
                raise CapacityError(f"more than {cap} cells in dimension {n}", cap=cap)
            return lv
        cells = []
        for c in self.p.cells(n, cap=cap):
            cells.append(c)
            if len(cells) > cap:
                raise CapacityError(f"more than {cap} cells in dimension {n}", cap=cap)
        ids = {c: i for i, c in enumerate(cells)}
        if n == 0:
            faces = [()] * len(cells)
        else:
            below = self.level(n - 1, cap)
            face_rows = getattr(self.p, "face_rows", None)
            try:
                if face_rows is not None:
                    faces = face_rows(n, below)
                else:
                    face, below_ids, js = self.p.face, below.ids, range(n + 1)
                    faces = [tuple([below_ids[face(c, j)] for j in js]) for c in cells]
            except KeyError:
                raise CompatibilityError(
                    f"a face of a {n}-cell is not a {n - 1}-cell; provider is broken"
                ) from None
        lv = self._built[n] = Level(cells, ids, faces)
        return lv


def boundary(p: LevelProvider, cell, n: int | None = None) -> BoundaryTuple:
    """The face tuple (d_0 x, ..., d_n x) of a cell of dimension n >= 1."""
    if n is None:
        n = cell.dim
    return BoundaryTuple(tuple(p.face(cell, j) for j in range(n + 1)))


def is_compatible(p: LevelProvider, t: BoundaryTuple) -> bool:
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


def is_compatible_horn(p: LevelProvider, h: HornTuple) -> bool:
    n = h.dim
    if n < 2:
        return True
    slots = h.slots()
    for a, j in enumerate(slots):
        for b in range(a + 1, len(slots)):
            k = slots[b]
            if p.face(h.faces[b], j) != p.face(h.faces[a], k - 1):
                return False
    return True


def _join(lower: Level, n: int, omitted: int | None, cap: int) -> list[tuple[int, ...]]:
    """Id tuples (x_0, ..., x_n) over the (n-1)-cells of ``lower`` with
    d_j x_k == d_{k-1} x_j for every pair of slots j < k, slot ``omitted``
    left out (``None`` keeps all slots, giving the kernel).  Slots are
    added in order, each by a hash join on the faces it shares with the
    slots already placed."""
    fv = lower.faces
    everyone = range(len(fv))
    what = "kernel" if omitted is None else f"horns without slot {omitted}"
    partial: list[tuple[int, ...]] = [()]
    placed: list[int] = []
    for k in range(n + 1):
        if k == omitted:
            continue
        grown: list[tuple[int, ...]] = []
        if n < 2 or not placed:
            for tup in partial:
                grown.extend([tup + (c,) for c in everyone])
                if len(grown) > cap:
                    break
        else:
            index: dict[tuple[int, ...], list[int]] = {}
            for c, row in enumerate(fv):
                index.setdefault(tuple(map(row.__getitem__, placed)), []).append(c)
            column = [row[k - 1] for row in fv]
            for tup in partial:
                for c in index.get(tuple(map(column.__getitem__, tup)), ()):
                    grown.append(tup + (c,))
                if len(grown) > cap:
                    break
        if len(grown) > cap:
            raise CapacityError(f"{what} of dimension {n} exceed {cap} at slot {k}", cap=cap)
        partial = grown
        placed.append(k)
    return partial


class CellTuples(Sequence):
    """The id tuples of a join, read as ``BoundaryTuple`` (no omitted slot)
    or ``HornTuple`` values whose faces are cells of ``lower``; ``ids``
    keeps the raw tuples, and decoding happens per item on access."""

    def __init__(self, lower: Level, dim: int, omitted: int | None, ids: list[tuple[int, ...]]):
        self.lower = lower
        self.dim = dim
        self.omitted = omitted
        self.ids = ids

    def decode(self, tup: tuple[int, ...]):
        faces = tuple(map(self.lower.cells.__getitem__, tup))
        if self.omitted is None:
            return BoundaryTuple(faces)
        return HornTuple(self.dim, self.omitted, faces)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int):
        return self.decode(self.ids[i])

    def __iter__(self):
        return map(self.decode, self.ids)


def simplicial_kernel(
    p: LevelProvider, n: int, cap: int = DEFAULT_CAPACITY, levels: Levels | None = None
) -> CellTuples:
    """All compatible face tuples in dimension n, by hash join."""
    if n < 1:
        raise CompatibilityError("kernel needs dimension >= 1")
    lower = (levels or Levels(p)).level(n - 1, cap)
    return CellTuples(lower, n, None, _join(lower, n, None, cap))


def horns(
    p: LevelProvider, n: int, l: int, cap: int = DEFAULT_CAPACITY, levels: Levels | None = None
) -> CellTuples:
    """All horns of dimension n with slot l omitted, by hash join."""
    if not 0 <= l <= n:
        raise CompatibilityError(f"horn position {l} out of range for dimension {n}")
    if n < 1:
        raise CompatibilityError("horns need dimension >= 1")
    lower = (levels or Levels(p)).level(n - 1, cap)
    return CellTuples(lower, n, l, _join(lower, n, l, cap))


def beta(p: LevelProvider, h: HornTuple) -> BoundaryTuple:
    """Collapse a horn one dimension down.

    Sends (x_0, ..., ^x_l, ..., x_n) to
    (d_{l-1} x_0, ..., d_{l-1} x_{l-1}, d_l x_{l+1}, ..., d_l x_n), which is
    always a compatible boundary tuple.
    """
    l = h.omitted
    return BoundaryTuple(tuple([p.face(x, l - 1 if i < l else l) for i, x in enumerate(h.faces)]))


def horn_of_cell(p: LevelProvider, cell, l: int, n: int | None = None) -> HornTuple:
    """The horn obtained by forgetting face l of a cell's boundary."""
    if n is None:
        n = cell.dim
    faces = tuple(p.face(cell, j) for j in range(n + 1) if j != l)
    return HornTuple(n, l, faces)


# -- identity audit ------------------------------------------------------

def _identity_families(face, degen) -> tuple:
    """(name, lowest dimension, failing instances, detail) per identity
    family.  ``failing(n, cell, fs, degs)`` yields the index part of each
    failing instance on one cell, k outer and j inner, given the rows
    ``fs[j] = d_j cell`` and ``degs[j] = s_j cell``."""
    return (
        ("simp1", 2, lambda n, c, fs, degs: ((j, k) for k in range(1, n + 1) for j in range(k)
                                              if face(fs[k], j) != face(fs[j], k - 1)),
         "d_j d_k != d_{k-1} d_j"),
        ("simp2", 1, lambda n, c, fs, degs: ((j, k) for k in range(1, n + 1) for j in range(k)
                                              if face(degs[k], j) != degen(fs[j], k - 1)),
         "d_j s_k != s_{k-1} d_j"),
        ("simp3", 0, lambda n, c, fs, degs: ((j,) for j in range(n + 1) if face(degs[j], j) != c),
         "d_j s_j != id"),
        ("simp4", 0, lambda n, c, fs, degs: ((j,) for j in range(n + 1) if face(degs[j], j + 1) != c),
         "d_{j+1} s_j != id"),
        ("simp5", 1, lambda n, c, fs, degs: ((j, k) for k in range(2, n + 2) for j in range(k - 1)
                                              if face(degs[j], k) != degen(fs[k - 1], j)),
         "d_k s_j != s_j d_{k-1}"),
        ("simp6", 0, lambda n, c, fs, degs: ((j, k) for k in range(1, n + 2) for j in range(k)
                                              if degen(degs[k - 1], j) != degen(degs[j], k)),
         "s_j s_{k-1} != s_k s_j"),
    )


def audit_simplicial(p: LevelProvider, maxdim: int, cap: int = DEFAULT_CAPACITY) -> ValidationReport:
    """Exhaustively check the six face/degeneracy identity families on all
    cells of dimension <= maxdim; first witness per family, families in
    name order.  A witness is (n, j, cell) for simp3/simp4 and
    (n, j, k, cell) otherwise.

    simp1: d_j d_k = d_{k-1} d_j (j < k)        simp2: d_j s_k = s_{k-1} d_j (j < k)
    simp3: d_j s_j = id                          simp4: d_{j+1} s_j = id
    simp5: d_k s_j = s_j d_{k-1} (j < k-1)       simp6: s_j s_{k-1} = s_k s_j (j < k)
    """
    face, degen = p.face, p.degeneracy
    families = _identity_families(face, degen)
    found: dict[str, Violation] = {}
    for n in range(maxdim + 1):
        js = range(n + 1)
        for cell in p.cells(n, cap=cap):
            fs = [face(cell, j) for j in js] if n else []
            degs = [degen(cell, j) for j in js]
            for name, lowest, failing, detail in families:
                if n >= lowest and name not in found:
                    bad = next(failing(n, cell, fs, degs), None)
                    if bad is not None:
                        found[name] = Violation(name, (n, *bad, cell), detail)
        if len(found) == len(families):
            break
    return ValidationReport(tuple(found[name] for name, *_ in families if name in found))


# -- coskeletality ---------------------------------------------------------

@dataclass(frozen=True)
class CoskeletalRecord:
    dim: int
    cell_count: int
    kernel_size: int
    injective: bool
    surjective: bool
    injectivity_witness: tuple | None = None
    surjectivity_witness: BoundaryTuple | None = None

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def check_coskeletal(
    p: LevelProvider, n: int, upto: int, cap: int = DEFAULT_CAPACITY, levels: Levels | None = None
) -> list[CoskeletalRecord]:
    """Decide bijectivity of the boundary map in each dimension n < k <= upto.

    The image is the set of face-id rows of the k-cells; the surjectivity
    witness is the smallest missing kernel tuple, ids comparing like cells.
    """
    levels = levels or Levels(p)
    records = []
    for k in range(n + 1, upto + 1):
        kernel = simplicial_kernel(p, k, cap=cap, levels=levels)
        kernel_set = set(kernel.ids)
        level = levels.level(k, cap)
        image: dict[tuple[int, ...], int] = {}
        inj_witness = None
        for i, row in enumerate(level.faces):
            first = image.setdefault(row, i)
            if first != i and inj_witness is None:
                inj_witness = (level.cells[first], level.cells[i])
        if not image.keys() <= kernel_set:
            raise CompatibilityError(f"boundary of a {k}-cell escaped the kernel; provider is broken")
        missing = kernel_set - image.keys()
        records.append(
            CoskeletalRecord(
                dim=k,
                cell_count=len(level.cells),
                kernel_size=len(kernel_set),
                injective=inj_witness is None,
                surjective=not missing,
                injectivity_witness=inj_witness,
                surjectivity_witness=kernel.decode(min(missing)) if missing else None,
            )
        )
    return records


# -- Kan -------------------------------------------------------------------

@dataclass(frozen=True)
class KanRecord:
    dim: int
    omitted: int
    horn_count: int
    unfillable: int
    witness: HornTuple | None = None

    @property
    def fillable(self) -> bool:
        return self.unfillable == 0


@dataclass(frozen=True)
class KanReport:
    records: tuple[KanRecord, ...]

    @property
    def is_kan(self) -> bool:
        return all(r.fillable for r in self.records)

    def first_failure(self) -> KanRecord | None:
        for r in self.records:
            if not r.fillable:
                return r
        return None


def check_kan(
    p: LevelProvider, upto: int, from_dim: int = 1, cap: int = DEFAULT_CAPACITY, levels: Levels | None = None
) -> KanReport:
    """Brute-force fillability of every horn in dimensions from_dim..upto:
    a horn fills when it is the face-id row of some n-cell with entry l
    dropped."""
    levels = levels or Levels(p)
    records = []
    for n in range(from_dim, upto + 1):
        rows = levels.level(n, cap).faces
        for l in range(n + 1):
            filled = {row[:l] + row[l + 1:] for row in rows}
            all_horns = horns(p, n, l, cap=cap, levels=levels)
            unfilled = [h for h in all_horns.ids if h not in filled]
            witness = all_horns.decode(unfilled[0]) if unfilled else None
            records.append(KanRecord(n, l, horn_count=len(all_horns), unfillable=len(unfilled), witness=witness))
    return KanReport(tuple(records))


# -- homotopy groups by brute force -----------------------------------------

class UnionFind:
    """Disjoint sets over 0..size-1.  Every root is the smallest member of
    its set."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class BasedClasses(NamedTuple):
    """The n-cells whose whole boundary is the degenerate basepoint
    (``members``, ids in ``level``), and each member's class, named by its
    smallest member id (``rep_of``).  Two members share a class when some
    (n+1)-cell has boundary (x, ..., x, y, z) with x the degenerate
    basepoint n-cell (id ``unit``)."""

    level: Level
    members: list[int]
    rep_of: dict[int, int]
    unit: int

    @property
    def reps(self) -> list[int]:
        return sorted(set(self.rep_of.values()))


def based_classes(
    p: LevelProvider, n: int, basepoint, cap: int = DEFAULT_CAPACITY, levels: Levels | None = None
) -> BasedClasses:
    """Group the based n-cells into classes; assumes the Kan property, which
    makes the relation an equivalence."""
    levels = levels or Levels(p)
    tower = [basepoint]
    for _ in range(n):
        tower.append(p.degeneracy(tower[-1], 0))
    level = levels.level(n, cap)
    based = (levels.level(n - 1, cap).ids.get(tower[n - 1]),) * (n + 1)
    members = [i for i, row in enumerate(level.faces) if row == based]
    member_set = set(members)
    unit = level.ids.get(tower[n])
    if unit not in member_set:
        raise CompatibilityError("degenerate basepoint cell missing from its own level")
    uf = UnionFind(len(level.cells))
    prefix = (unit,) * n
    for row in levels.level(n + 1, cap).faces:
        if row[:n] == prefix and row[n] in member_set and row[n + 1] in member_set:
            uf.union(row[n], row[n + 1])
    return BasedClasses(level, members, {c: uf.find(c) for c in members}, unit)


def pi_bruteforce(
    p: LevelProvider,
    n: int,
    basepoint,
    cap: int = DEFAULT_CAPACITY,
    levels: Levels | None = None,
) -> GroupPresentation:
    """Homotopy group in dimension n >= 1 at a 0-cell, by exhaustive search.

    Elements are the classes of ``based_classes``; the product of two
    classes is read off a filler of the horn that puts the representatives
    at slots n-1 and n+1: the first (n+1)-cell with faces (x, ..., x, y, _, z)
    gives face n.  Requires the provider to be Kan through dimension n+2;
    that is checked first, and a failure raises NotKanError with the
    witness horn.
    """
    if n < 1:
        raise CompatibilityError("brute-force homotopy groups start at dimension 1")
    levels = levels or Levels(p)
    failure = check_kan(p, upto=n + 2, cap=cap, levels=levels).first_failure()
    if failure is not None:
        raise NotKanError(failure.dim, failure.omitted, failure.witness)

    classes = based_classes(p, n, basepoint, cap=cap, levels=levels)
    cells = classes.level.cells
    rep_of = classes.rep_of
    reps = classes.reps
    index_of = {rep: i for i, rep in enumerate(reps)}

    prefix = (classes.unit,) * (n - 1)
    product: dict[tuple[int, int], int] = {}
    for row in levels.level(n + 1, cap).faces:
        if row[:n - 1] == prefix:
            product.setdefault((row[n - 1], row[n + 1]), row[n])

    table = []
    for y in reps:
        out = []
        for z in reps:
            d = product.get((y, z))
            if d is None:
                raise NotKanError(n + 1, n, witness=(cells[y], cells[z]))
            if d not in rep_of:
                raise CompatibilityError("product landed outside the based cells; provider is broken")
            out.append(index_of[rep_of[d]])
        table.append(tuple(out))

    labels = tuple(cells[r].text() if hasattr(cells[r], "text") else repr(cells[r]) for r in reps)
    g = GroupPresentation(labels=labels, unit=index_of[rep_of[classes.unit]], table=tuple(table))
    g.verify()
    return g
