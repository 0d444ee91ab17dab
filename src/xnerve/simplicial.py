"""Generic machinery over any finite simplicial level provider.

A *level provider* numbers its cells of each dimension by rank, gives the
face ranks of a whole dimension at once and holds one cell budget, ``cap``
(see ``LevelProvider``); ``Nerve`` is the main instance.  On top of that
this module builds compatibility kernels, horns, the horn-to-boundary map,
coskeletality and Kan checks, brute-force homotopy groups and the identity
audit; a level, enumeration or join stage larger than ``cap`` is refused.

Whole-level work runs on ranks.  A provider owns its levels: ``level(n)``
builds dimension n once as its face table, which is all a level is: n+1
columns, column ``j`` holding the rank of d_j of every cell in rank order
(the matrix description's faces d_0 .. d_n, one face index at a time).  The
provider's ``face_rows`` makes it from the columns of the level below, with
no cell built, and every later check on the same provider reads the kept
columns.  Kernels and horns are one hash join over the face columns of the
level below, kept as columns too: one rank list per placed slot.  Slot k is
added by indexing candidate ranks on the faces they must share with the
slots already placed, never by filtering the full product, and every
stage's keys and copies are made column by column.  The Kan and coskeletal
checks decide by counting: once a level's rows (one entry of every column)
are known to lie in the kernel (``rows_in_kernel``, checked once per
level), distinct rows and distinct projections are counted against the
join's last stage, which then only counts its tuples; rows are counted by
their hashes, and only a shortfall counts the rows themselves.  Horns and
kernel tuples are enumerated only when a count differs, for the witness.
Brute-force pi reads face rows across the columns.  Ranks turn back into
cells, through ``cell_at``, only in witnesses, group labels and the tuples
handed out by ``simplicial_kernel`` and ``horns``, so ``horns(...).columns``
go straight to ``HornFiller.fill_columns``.
The identity audit evaluates one table of the six identity families, each
side a word of faces and degeneracies, over columns: on a provider with
rank maps (``Nerve.rank_maps``) a column holds the ranks of up to a few
thousand cells of one enumeration block, and on any other provider it holds
one cell, mapped by ``face`` and ``degeneracy``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from .algebra import ValidationReport, Violation
from .errors import CapacityError, CompatibilityError, DEFAULT_CAPACITY, NotKanError
from .groups import GroupPresentation


class LevelProvider:
    """Base of the providers the generic checks run on.  Cells of dimension
    n are addressed by rank, 0 .. ``count_cells(n)``-1 in ``cells(n)``
    order.  A subclass gives ``face_rows(n, below)``: n+1 columns, column j
    holding the rank of d_j c of every n-cell c in rank order, from
    ``below``, the columns of dimension n-1, raising KeyError for a face
    that is not an (n-1)-cell.  The whole-level checks read ``level``,
    ``count_cells``, and ``cell_at`` and ``rank_of`` for witnesses, labels
    and the basepoint.  The identity audit reads ``rank_maps`` where a
    provider has it, and otherwise ``cells``, ``face`` and ``degeneracy``.
    ``face_rows`` must agree with ``face``: a ``Nerve`` subclass that
    overrides ``face`` or ``degeneracy`` must override ``face_rows`` and
    ``rank_maps`` too.  ``cap`` is the cell budget; ``Nerve`` sets its
    own."""

    cap = DEFAULT_CAPACITY

    def count_within(self, n: int) -> int:
        """``count_cells(n)``, refused with CapacityError above ``cap``."""
        count, cap = self.count_cells(n), self.cap
        if count > cap:
            raise CapacityError(f"{count} cells of dimension {n} exceed the budget {cap}", predicted=count, cap=cap)
        return count

    def level(self, n: int) -> list[list[int]]:
        """The face table of dimension n as columns: ``level(n)[j][i]`` is
        the rank of d_j of the n-cell of rank ``i``; dimension 0 has no
        columns, its size is ``count_cells(0)``.  Each table is built once
        per provider and then kept.  Refuses with CapacityError, before
        anything is built, whenever ``count_cells`` predicts more cells than
        ``cap``, and with CompatibilityError for n < 0 or a face that is not
        a cell of the level below."""
        if n < 0:
            raise CompatibilityError(f"levels need dimension >= 0, got {n}")
        todo = [(n, self.count_within(n))]
        while self.built(todo[-1][0]) is None and todo[-1][0] > 0:
            todo.append((todo[-1][0] - 1, self.count_within(todo[-1][0] - 1)))
        # made here, not in __init__, so a subclass need not call it
        levels = self.__dict__.setdefault("_levels", {})
        for k, _ in reversed(todo):
            if k not in levels:
                try:
                    levels[k] = self.face_rows(k, levels[k - 1]) if k else []
                except KeyError:
                    raise CompatibilityError(f"a face of a {k}-cell is not a {k - 1}-cell; provider is broken") from None
        return levels[n]

    def built(self, n: int) -> list[list[int]] | None:
        """The face columns of dimension n if ``level`` has built them, else
        None; builds nothing."""
        return self.__dict__.get("_levels", {}).get(n)

    def rows_in_kernel(self, n: int) -> bool:
        """Whether every row of ``level(n)`` lies in the kernel: d_j x_k ==
        d_{k-1} x_j for j < k on the table of dimension n-1.  Only a broken
        provider has a row that does not.  Decided once per level, on
        columns."""
        decided = self.__dict__.setdefault("_in_kernel", {})
        ok = decided.get(n)
        if ok is None:
            x = self.level(n)
            ok = True
            if n >= 2 and x[0]:
                d = self.level(n - 1)
                ok = all(list(map(d[j].__getitem__, x[k])) == list(map(d[k - 1].__getitem__, x[j]))
                         for k in range(1, n + 1) for j in range(k))
            decided[n] = ok
        return ok


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


def _join(p: LevelProvider, n: int, omitted: int | None, count: bool = False) -> list[list[int]] | int:
    """Columns of the id tuples (x_0, ..., x_n) over the (n-1)-cells of
    ``p`` with d_j x_k == d_{k-1} x_j for every pair of slots j < k, slot
    ``omitted`` left out (``None`` keeps all slots, giving the kernel): one
    rank list per present slot, tuples in the order of nested loops over
    the slots.  Slots are added in order, each by a hash join on the faces
    it shares with the slots already placed; every stage is refused above
    ``p.cap``.  With ``count`` the last stage only counts its tuples."""
    # faces[j][c] is the rank of d_j of the (n-1)-cell c; 0-cells have none
    faces, cap = p.level(n - 1), p.cap
    cells = p.count_cells(n - 1)
    what = "kernel" if omitted is None else f"horns without slot {omitted}"
    slots = [k for k in range(n + 1) if k != omitted]
    columns: list[list[int]] = []
    for k in slots:
        counted = count and k == slots[-1]
        size = len(columns[0]) if columns else 1
        if n < 2 or not columns:  # every candidate extends every tuple
            matches, counts = [range(cells)] * size, [cells] * size
            grown = size * cells
        else:
            # candidates c keyed on (d_j c for every placed j), and every
            # tuple on (d_{k-1} x_j for every placed j); one placed slot
            # keys on the bare rank
            index: dict = {}
            placed = [faces[j] for j in slots[:len(columns)]]
            for c, key in enumerate(placed[0] if len(placed) == 1 else zip(*placed)):
                index.setdefault(key, []).append(c)
            keys = [map(faces[k - 1].__getitem__, col) for col in columns]
            keys = keys[0] if len(keys) == 1 else zip(*keys)
            if counted:
                sizes = {key: len(found) for key, found in index.items()}
                grown = sum(map(sizes.get, keys, repeat(0)))
            else:
                matches = list(map(index.get, keys, repeat(())))
                counts = list(map(len, matches))
                grown = sum(counts)
        if grown > cap:
            raise CapacityError(f"{what} of dimension {n} exceed {cap} at slot {k}", cap=cap)
        if counted:
            return grown
        if grown != size or min(counts, default=1) != 1:
            # tuple i is repeated once per candidate it matched
            picks = list(chain.from_iterable(map(repeat, range(size), counts)))
            columns = [list(map(col.__getitem__, picks)) for col in columns]
        columns.append(list(chain.from_iterable(matches)))
    return columns


class CellTuples(Sequence):
    """The id tuples of a join, read as ``BoundaryTuple`` (no omitted slot)
    or ``HornTuple`` values whose faces are the (dim-1)-cells of ``p`` with
    those ranks; ``columns`` keeps the join's rank lists, one per present
    slot, and decoding happens per item on access."""

    def __init__(self, p: LevelProvider, dim: int, omitted: int | None, columns: list[list[int]]):
        self.p = p
        self.dim = dim
        self.omitted = omitted
        self.columns = columns

    def decode(self, tup: tuple[int, ...]):
        faces = tuple([self.p.cell_at(self.dim - 1, i) for i in tup])
        if self.omitted is None:
            return BoundaryTuple(faces)
        return HornTuple(self.dim, self.omitted, faces)

    def ids(self):
        """The id tuples, in join order."""
        return zip(*self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i: int):
        return self.decode(tuple([col[i] for col in self.columns]))

    def __iter__(self):
        return map(self.decode, self.ids())


def simplicial_kernel(p: LevelProvider, n: int) -> CellTuples:
    """All compatible face tuples in dimension n, by hash join."""
    if n < 1:
        raise CompatibilityError("kernel needs dimension >= 1")
    return CellTuples(p, n, None, _join(p, n, None))


def horns(p: LevelProvider, n: int, l: int) -> CellTuples:
    """All horns of dimension n with slot l omitted, by hash join."""
    if not 0 <= l <= n:
        raise CompatibilityError(f"horn position {l} out of range for dimension {n}")
    if n < 1:
        raise CompatibilityError("horns need dimension >= 1")
    return CellTuples(p, n, l, _join(p, n, l))


def beta(p: LevelProvider, h: HornTuple) -> BoundaryTuple:
    """Collapse a horn one dimension down.

    Sends (x_0, ..., ^x_l, ..., x_n) to
    (d_{l-1} x_0, ..., d_{l-1} x_{l-1}, d_l x_{l+1}, ..., d_l x_n), which is
    always a compatible boundary tuple.
    """
    l = h.omitted
    return BoundaryTuple(tuple([p.face(x, l - 1 if i < l else l) for i, x in enumerate(h.faces)]))


# -- identity audit ------------------------------------------------------

# The six identity families: name, lowest dimension, the identity as
# written, and its index tuples (j,) or (j, k) in dimension n, k outer and
# j inner.  Each side is a word of faces d_i and degeneracies s_i, applied
# right to left; "id" is the empty word.
_IDENTITIES = (
    ("simp1", 2, "d_j d_k = d_{k-1} d_j", lambda n: [(j, k) for k in range(1, n + 1) for j in range(k)]),
    ("simp2", 1, "d_j s_k = s_{k-1} d_j", lambda n: [(j, k) for k in range(1, n + 1) for j in range(k)]),
    ("simp3", 0, "d_j s_j = id", lambda n: [(j,) for j in range(n + 1)]),
    ("simp4", 0, "d_{j+1} s_j = id", lambda n: [(j,) for j in range(n + 1)]),
    ("simp5", 1, "d_k s_j = s_j d_{k-1}", lambda n: [(j, k) for k in range(2, n + 2) for j in range(k - 1)]),
    ("simp6", 0, "s_j s_{k-1} = s_k s_j", lambda n: [(j, k) for k in range(1, n + 2) for j in range(k)]),
)


def _word(side: str, index: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
    """The operators of one side of an identity, first applied first, at
    ``index`` = (j,) or (j, k): "d_{k-1} d_j" at (0, 2) is
    (("d", 0), ("d", 1))."""
    values = dict(zip("jk", index))
    word = []
    for op in reversed(side.split()):
        if op != "id":
            sub = op[2:].strip("{}")
            word.append((op[0], values[sub[0]] + int(sub[1:] or 0)))
    return tuple(word)


class _CellMaps:
    """The audit's maps through a provider's ``face`` and ``degeneracy``:
    a column is a list of one cell."""

    def __init__(self, p):
        self.p = p

    def chunks(self, n: int):
        return ([cell] for cell in self.p.cells(n))

    def face(self, col: list, i: int) -> list:
        return [self.p.face(cell, i) for cell in col]

    def degeneracy(self, col: list, j: int) -> list:
        return [self.p.degeneracy(cell, j) for cell in col]

    @staticmethod
    def cell(col: list, pos: int):
        return col[pos]


def _apply(maps, col, word: tuple[tuple[str, int], ...]):
    """The column of ``word`` applied to the column ``col``."""
    for op, i in word:
        col = maps.face(col, i) if op == "d" else maps.degeneracy(col, i)
    return col


def _audit(maps, maxdim: int) -> ValidationReport:
    """The audit over the columns of ``maps``: ``chunks(n)`` cuts dimension
    n into columns in rank order, ``face`` and ``degeneracy`` map columns,
    which are lists that compare entry by entry, and ``cell`` gives the cell
    of one entry.  Per family, the first failing cell of a column is found,
    and on it the first failing instance.  Where ``maps`` has ``agree``, an
    instance whose sides are degeneracies only is skipped on every column
    of a block on which ``agree`` finds the sides equal."""
    found: dict[str, Violation] = {}
    agree = getattr(maps, "agree", None)
    for n in range(maxdim + 1):
        checks = [(name, identity.replace(" = ", " != "),
                   agree is not None and all(op[0] == "s" for op in identity.replace(" = ", " ").split()),
                   [(index, *(_word(side, index) for side in identity.split(" = "))) for index in indices(n)])
                  for name, lowest, identity, indices in _IDENTITIES if n >= lowest]
        letters = [("d", j) for j in range(n + 1) if n] + [("s", j) for j in range(n + 1)]
        for col in maps.chunks(n):
            # every d_j c and s_j c, as the per-cell loop always made them
            made = {(): col, **{(letter,): _apply(maps, col, (letter,)) for letter in letters}}
            for name, detail, settle, instances in checks:
                if name in found:
                    continue
                best = None
                for index, *sides in instances:
                    if settle and agree(col, *sides):
                        continue
                    a, b = (_apply(maps, made[word[:1]], word[1:]) for word in sides)
                    if a != b:
                        pos = next(p for p, (x, y) in enumerate(zip(a, b)) if x != y)
                        if best is None or pos < best[0]:
                            best = (pos, index)
                            if pos == 0:
                                break
                if best is not None:
                    found[name] = Violation(name, (n, *best[1], maps.cell(col, best[0])), detail)
        if len(found) == len(_IDENTITIES):
            break
    return ValidationReport(tuple(found[name] for name, *_ in _IDENTITIES if name in found))


def audit_simplicial(p: LevelProvider, maxdim: int) -> ValidationReport:
    """Exhaustively check the six face/degeneracy identity families on all
    cells of dimension <= maxdim; first witness per family, families in
    name order.  A witness is (n, j, cell) for simp3/simp4 and
    (n, j, k, cell) otherwise; on one cell the first failing instance is
    taken with k outer and j inner.

    simp1: d_j d_k = d_{k-1} d_j (j < k)        simp2: d_j s_k = s_{k-1} d_j (j < k)
    simp3: d_j s_j = id                          simp4: d_{j+1} s_j = id
    simp5: d_k s_j = s_j d_{k-1} (j < k-1)       simp6: s_j s_{k-1} = s_k s_j (j < k)

    A provider with ``rank_maps`` is audited on rank columns.  When a face
    there is not a cell of its level, which only input that fails the
    axioms makes, the audit runs again per cell, so that its report or
    error is the one that per-cell ``face`` gives.  Any other provider needs
    only ``cells``, ``face`` and ``degeneracy``, and is audited cell by
    cell.
    """
    if getattr(p, "rank_maps", None) is not None:
        try:
            return _audit(p.rank_maps(maxdim), maxdim)
        except (KeyError, CompatibilityError):
            pass
    return _audit(_CellMaps(p), maxdim)


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


def check_coskeletal(p: LevelProvider, n: int, upto: int) -> list[CoskeletalRecord]:
    """Decide bijectivity of the boundary map in each dimension n < k <= upto.

    The image is the set of face-id rows of the k-cells, read across the
    level's columns.  Once every row lies in the kernel
    (``rows_in_kernel``), the map is injective iff the rows are distinct and
    surjective iff the distinct rows are as many as the kernel's tuples,
    which the join counts without storing them.  The injectivity witness is
    the first repeated row; only a count that differs enumerates the
    kernel, for the surjectivity witness: the smallest missing kernel
    tuple, ids comparing like cells.
    """
    if n < 0:
        raise CompatibilityError("kernel needs dimension >= 1")
    records = []
    for k in range(n + 1, upto + 1):
        kernel_size = _join(p, k, None, count=True)
        level, cells = p.level(k), p.count_cells(k)
        if not p.rows_in_kernel(k):
            raise CompatibilityError(f"boundary of a {k}-cell escaped the kernel; provider is broken")
        distinct = _distinct(level, cells)
        inj_witness = surj_witness = None
        if distinct != cells:
            first: dict[tuple[int, ...], int] = {}
            i, row = next((i, row) for i, row in enumerate(zip(*level)) if first.setdefault(row, i) != i)
            inj_witness = (p.cell_at(k, first[row]), p.cell_at(k, i))
        if distinct != kernel_size:
            kernel, image = simplicial_kernel(p, k), set(zip(*level))
            surj_witness = kernel.decode(min(t for t in kernel.ids() if t not in image))
        records.append(CoskeletalRecord(dim=k, cell_count=cells, kernel_size=kernel_size,
                                        injective=inj_witness is None, surjective=surj_witness is None,
                                        injectivity_witness=inj_witness, surjectivity_witness=surj_witness))
    return records


def _distinct(columns: list[list[int]], most: int) -> int:
    """The number of distinct rows of ``columns`` (row i holds entry i of
    every column), known to be at most ``most``: counted on the rows'
    hashes, which decides it when they reach ``most``, with no tuple kept
    per row; only a shortfall, a repeat or two rows of one hash, counts the
    rows themselves."""
    hashes = len(set(map(hash, zip(*columns))))
    return hashes if hashes == most else len(set(zip(*columns)))


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
        return next((r for r in self.records if not r.fillable), None)


def check_kan(p: LevelProvider, upto: int, from_dim: int = 1) -> KanReport:
    """Brute-force fillability of every horn in dimensions from_dim..upto:
    a horn fills when it is the face-id row of some n-cell with entry l
    dropped.  Once every row lies in the kernel (``rows_in_kernel``), those
    projections are horns, so (n, l) is fillable iff there are as many
    distinct projections as horns, which the join counts without storing
    them.  Horns are enumerated only otherwise, for the unfilled count and
    the witness."""
    if from_dim < 1:
        raise CompatibilityError("horns need dimension >= 1")
    records = []
    for n in range(from_dim, upto + 1):
        columns = p.level(n)
        sound = p.rows_in_kernel(n)
        for l in range(n + 1):
            kept = columns[:l] + columns[l + 1:]
            if sound:
                horn_count = _join(p, n, l, count=True)
                if _distinct(kept, horn_count) == horn_count:
                    records.append(KanRecord(n, l, horn_count=horn_count, unfillable=0))
                    continue
            filled = set(zip(*kept))
            all_horns = horns(p, n, l)
            unfilled = [h for h in all_horns.ids() if h not in filled]
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
    (``members``, ranks), and each member's class, named by its smallest
    member rank (``rep_of``).  Two members share a class when some
    (n+1)-cell has boundary (x, ..., x, y, z) with x the degenerate
    basepoint n-cell (rank ``unit``)."""

    members: list[int]
    rep_of: dict[int, int]
    unit: int

    @property
    def reps(self) -> list[int]:
        return sorted(set(self.rep_of.values()))


def based_classes(p: LevelProvider, n: int, basepoint) -> BasedClasses:
    """Group the based n-cells into classes; assumes the Kan property, which
    makes the relation an equivalence."""
    tower = [basepoint]
    for _ in range(n):
        tower.append(p.degeneracy(tower[-1], 0))
    based = (p.rank_of(tower[n - 1]),) * (n + 1)
    members = [i for i, row in enumerate(zip(*p.level(n))) if row == based]
    member_set = set(members)
    unit = p.rank_of(tower[n])
    if unit not in member_set:
        raise CompatibilityError("degenerate basepoint cell missing from its own level")
    uf = UnionFind(p.count_cells(n))
    prefix = (unit,) * n
    for row in zip(*p.level(n + 1)):
        if row[:n] == prefix and row[n] in member_set and row[n + 1] in member_set:
            uf.union(row[n], row[n + 1])
    return BasedClasses(members, {c: uf.find(c) for c in members}, unit)


def pi_bruteforce(p: LevelProvider, n: int, basepoint) -> GroupPresentation:
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
    failure = check_kan(p, upto=n + 2).first_failure()
    if failure is not None:
        raise NotKanError(failure.dim, failure.omitted, failure.witness)

    classes = based_classes(p, n, basepoint)
    rep_of, reps = classes.rep_of, classes.reps
    index_of = {rep: i for i, rep in enumerate(reps)}

    prefix = (classes.unit,) * (n - 1)
    product: dict[tuple[int, int], int] = {}
    for row in zip(*p.level(n + 1)):
        if row[:n - 1] == prefix:
            product.setdefault((row[n - 1], row[n + 1]), row[n])

    table = []
    for y in reps:
        out = []
        for z in reps:
            d = product.get((y, z))
            if d is None:
                raise NotKanError(n + 1, n, witness=(p.cell_at(n, y), p.cell_at(n, z)))
            if d not in rep_of:
                raise CompatibilityError("product landed outside the based cells; provider is broken")
            out.append(index_of[rep_of[d]])
        table.append(tuple(out))

    labels = tuple(p.cell_at(n, r).text() for r in reps)
    g = GroupPresentation(labels=labels, unit=index_of[rep_of[classes.unit]], table=tuple(table))
    g.verify()
    return g
