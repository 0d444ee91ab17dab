"""Nerve cells of a crossed monoid and their face/degeneracy calculus.

A cell of dimension n >= 1 is an upper-triangular n x n matrix stored row by
row: ``rows[i-1] = (m[i][i], m[i][i+1], ..., m[i][n])`` for matrix row i.
The first entry of each row is a morphism id, everything to its right is an
element id of the fiber over ``objects[i]``.  The object sequence
``objects = (x0, ..., xn)`` is pinned by the diagonal: m[j][j] runs from
``x_j`` to ``x_{j-1}``.  Dimension-0 cells are bare objects (no rows);
dimension-1 cells are 1 x 1 matrices, one per morphism.

Index conventions used throughout:

* matrix positions (i, j) are 1-based, 1 <= i <= j <= n;
* entry (i, j) sits at ``rows[i-1][j-i]``;
* the row twist ``eta(M, j, k) = m[j+1][j+1] * d(m[j+1][j+2] ... m[j+1][k])``
  is a morphism from ``x_{j+1}`` to ``x_j`` (empty fiber product for
  k == j+1).

The inner face d_j (1 <= j <= n-1) multiplies columns j and j+1 in every row
above row j, then merges rows j and j+1 into the single row

    ( m[j][j] d(m[j][j+1]) m[j+1][j+1],
      m[j][j+2]^eta(M,j,j+1) m[j+1][j+2], ...,
      m[j][n]^eta(M,j,n-1) m[j+1][n] ).

d_0 deletes the first row, d_n the last column.  The degeneracy s_j inserts a
unit column at j+1 above row j+1, a fresh row (1_{x_j}, e, ..., e) at j+1,
and shifts the lower rows one step south-east (the insertion is skipped for
j = 0, the shift for j = n).

A cell's rank is its position in ``cells(n)``: within its block, the
mixed-radix number whose digits are its entries.  ``_block(seq)`` is the one
lookup of a block, which keeps the face, glue and s_j plans its object
sequence fixes.  ``cell_at`` and ``rank_of`` convert.  Everything else works
on columns of ranks, in any dimension, with no cell built, by digit
arithmetic: the corner bijection ``M <-> (d_0 M, d_n M, m[1][n])``, n >= 2,
and its closed inner-face formulas (``faces_of``, ``assemble_ids``,
``corners``), and the identity audit's maps (``rank_maps``), where s_j is
digit insertion: s_j c keeps every digit of c's rank and adds fixed digits
for the identity and the fiber units.  One routine, ``_block_faces``, holds
the face formulas for whole levels (``face_rows``) and for chosen ranks.  On
cells, ``face``, ``degeneracy`` and ``corner_assemble`` run the same rank
forms: a cell goes in through ``rank_of``, which refuses an invalid one with
CellError, and comes out through ``cell_at``.  The matrix arithmetic above is
the tests' oracle for them (``MatrixNerve`` in ``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cached_property, partial
from operator import getitem, mul
from typing import Iterator, NamedTuple, Sequence

from .algebra import CrossedMonoid, gather
from .errors import CapacityError, CellError, CompatibilityError, DEFAULT_CAPACITY
from .simplicial import LevelProvider


class NerveCell(NamedTuple):
    """A cell as a plain tuple ``(dim, objects, rows)``: hashing, equality
    and ordering run on the tuple itself."""

    dim: int
    objects: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def corner(self) -> int:
        """The fiber element at position (1, n); needs dim >= 2."""
        return self.rows[0][self.dim - 1]

    def text(self) -> str:
        """Canonical serialization: dim | object ids | row-major entries."""
        objs = ",".join(str(x) for x in self.objects)
        rows = ";".join(",".join(str(v) for v in row) for row in self.rows)
        return f"{self.dim}|{objs}|{rows}"


# NerveCell from one (dim, objects, rows) tuple, built in C without the
# Python-level __new__ of a NamedTuple; the structure maps and the
# enumeration make every cell through it.
_cell = partial(tuple.__new__, NerveCell)


# A count of more digits than the 4300 that Python writes in decimal by
# default is over any budget: it is refused, never printed.
_HUGE = 10 ** 4300


class _Block:
    """One object sequence with a morphism in every C(x_i, x_{i-1}): per
    matrix row i, C(x_i, x_{i-1}) and the size of the fiber over x_i; the
    block size and the rank of its first cell.  The properties and the plans
    the sequence fixes (``plan``, ``glue``, ``degeneracies`` by j) are made on first use."""

    def __init__(self, seq: tuple[int, ...], homs: tuple[tuple[int, ...], ...], fibers: tuple, size: int, start: int):
        self.seq, self.homs, self.fibers, self.size, self.start = seq, homs, fibers, size, start
        self.plan, self.glue, self.degeneracies = None, None, {}

    @cached_property
    def domains(self) -> list[Sequence[int]]:
        """The candidate list of every matrix position, row-major."""
        n = len(self.homs)
        return [d for i, (hom, f) in enumerate(zip(self.homs, self.fibers), 1) for d in (hom, *[range(f)] * (n - i))]

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The place value of every position's digit."""
        return tuple(_weights([len(dom) for dom in self.domains]))

    @cached_property
    def bounds(self) -> list[tuple[int, int]]:
        """Slice bounds of rows 1..n in a row-major entry list."""
        return list(itertools.pairwise(itertools.accumulate(range(len(self.homs), 0, -1), initial=0)))


def _glue(glue: tuple[int, ...], firsts, lasts, corners) -> list[int]:
    """Ranks of the cells of one block with faces d_0 in ``firsts``, d_n in
    ``lasts`` (ranks) and corners ``corners``: row 1 is the last face's row
    1 and the corner, the rows below are the first face's rows.  ``glue``
    is the block's start, the start and size of the first face's block, the
    start of the last face's block, the size of the last face's rows below
    row 1 and the size of the fiber over x1."""
    start, fstart, fsize, lstart, ltail, fiber = glue
    start -= fstart
    return [start + ((last - lstart) // ltail * fiber + corner) * fsize + first
            for first, last, corner in zip(firsts, lasts, corners)]


class Nerve(LevelProvider):
    """Level provider for the nerve of one crossed monoid.

    Refuses at construction, with CompatibilityError, a boundary that is
    not an endomorphism of its object, naming ``(x, a)``, and a composite
    that leaves its hom-set, naming ``(a, b)``: the face maps compose with
    boundary values, and an inner face is a composite, so every face of a
    cell is a cell.

    The nerve keeps every face table that ``level`` builds, and the first
    ``cap`` rows per dimension that ``faces_of`` makes of other levels, both
    as face columns (``_read``), for as long as it lives: the checks run on
    one ``Nerve`` share them, and a second ``check_kan(nv, 4)`` builds
    nothing.  ``cap`` bounds every level and join.
    """

    def __init__(self, xm: CrossedMonoid, cap: int = DEFAULT_CAPACITY):
        cat = xm.cat
        for x, row in enumerate(xm.boundary):
            a = next((a for a, d in enumerate(row) if cat.src[d] != x or cat.tgt[d] != x), None)
            if a is not None:
                raise CompatibilityError(f"boundary at (x, a) = ({x}, {a}) is not an endomorphism of object {x}")
        if cat.ill_typed_composite is not None:
            a, b = cat.ill_typed_composite
            raise CompatibilityError(f"composite at (a, b) = ({a}, {b}) does not run {cat.src[b]}->{cat.tgt[a]}")
        self.xm, self.cap = xm, cap
        self._dims: dict[int, tuple[_Block, ...]] = {}
        self._starts: dict[int, list[int]] = {}
        self._block_of: dict[tuple[int, ...], _Block] = {}  # by object sequence, every dimension; read by _block
        self._rows: dict[int, tuple[list[list[int]], dict[int, int]]] = {}  # faces_of's rows: columns, positions
        self._counts: dict[int, int] = {}  # count_cells, by dimension
        # mor_at[r] is the morphism of the 1-cell of rank r; mor_rank inverts it
        self.mor_at = [g for x0 in cat.objects() for x1 in cat.objects() for g in cat.hom(x1, x0)]
        self.mor_rank = sorted(range(len(self.mor_at)), key=self.mor_at.__getitem__)

    # -- construction -------------------------------------------------

    def point(self, obj: int) -> NerveCell:
        if not 0 <= obj < self.xm.cat.num_objects:
            raise CellError(f"object {obj} out of range")
        return NerveCell(0, (obj,), ())

    def cell(self, objects: Sequence[int], rows: Sequence[Sequence[int]]) -> NerveCell:
        """Validated constructor; raises CellError naming the bad entry."""
        c = NerveCell(len(objects) - 1, tuple(objects), tuple(tuple(r) for r in rows))
        self.validate_cell(c)
        return c

    def validate_cell(self, c: NerveCell) -> None:
        xm = self.xm
        cat = xm.cat
        n = c.dim
        if n < 0 or len(c.objects) != n + 1:
            raise CellError(f"object sequence has {len(c.objects)} entries for dimension {n}")
        for x in c.objects:
            if not 0 <= x < cat.num_objects:
                raise CellError(f"object {x} out of range")
        if len(c.rows) != n:
            raise CellError(f"cell of dimension {n} needs {n} rows, found {len(c.rows)}")
        for i in range(1, n + 1):
            row = c.rows[i - 1]
            if len(row) != n - i + 1:
                raise CellError(f"row {i} has {len(row)} entries, expected {n - i + 1}")
            d = row[0]
            if not 0 <= d < cat.num_morphisms:
                raise CellError(f"entry ({i},{i}) = {d} is not a morphism id")
            if cat.src[d] != c.objects[i] or cat.tgt[d] != c.objects[i - 1]:
                raise CellError(
                    f"entry ({i},{i}) runs {cat.src[d]}->{cat.tgt[d]}, "
                    f"expected {c.objects[i]}->{c.objects[i - 1]}"
                )
            size = xm.fibers[c.objects[i]].size
            for k, v in enumerate(row[1:], start=i + 1):
                if not 0 <= v < size:
                    raise CellError(f"entry ({i},{k}) = {v} outside the fiber over object {c.objects[i]}")

    # -- structure maps ------------------------------------------------

    def face(self, M: NerveCell, j: int) -> NerveCell:
        n = M.dim
        if n < 1:
            raise CellError("0-cells have no faces")
        if not 0 <= j <= n:
            raise CellError(f"face index {j} out of range for dimension {n}")
        return self.cell_at(n - 1, self.faces_of(n, [self.rank_of(M)])[j][0])

    def degeneracy(self, M: NerveCell, j: int) -> NerveCell:
        n = M.dim
        if not 0 <= j <= n:
            raise CellError(f"degeneracy index {j} out of range for dimension {n}")
        rank, blk = self.rank_of(M), self._block(M.objects)
        return self.cell_at(n + 1, self._degenerate(blk, [rank - blk.start], j)[0])

    def _degenerate(self, blk: _Block, idxs: Sequence[int], j: int) -> list[int]:
        """Ranks of s_j of the cells of ``blk`` with indices ``idxs``."""
        new, const, runs = self._degeneracy_plan(blk, j)
        return _spell(idxs, runs, new.start + const)

    def _degeneracy_plan(self, blk: _Block, j: int) -> tuple[_Block, int, list[list[int]]]:
        """(block, constant, digit runs) of s_j on one block of dimension n:
        s_j c lies in the block of c's object sequence with x_j repeated, and
        its index there is the constant, the inserted identity and units,
        plus the image of c's index under the runs."""
        plan = blk.degeneracies.get(j)
        if plan is None:
            xm, seq, n = self.xm, blk.seq, len(blk.seq) - 1
            new = self._block(seq[:j + 1] + seq[j:])

            def pos(i: int, c: int) -> int:
                """Flat position of matrix entry (i, c) in dimension n + 1."""
                return (i - 1) * (2 * n + 4 - i) // 2 + c - i

            dest = [pos(i, c + (c > j)) if i <= j else pos(i + 1, c + 1)
                    for i in range(1, n + 1) for c in range(i, n + 1)]
            fixed = [(pos(i, j + 1), xm.fibers[seq[i]].unit) for i in range(1, j + 1)]
            fixed.append((pos(j + 1, j + 1), new.domains[pos(j + 1, j + 1)].index(xm.cat.identity[seq[j]])))
            fixed.extend((pos(j + 1, c), xm.fibers[seq[j]].unit) for c in range(j + 2, n + 2))
            lens, new_lens = [len(dom) for dom in blk.domains], [len(dom) for dom in new.domains]
            const = sum(digit * new.weights[q] for q, digit in fixed)
            plan = blk.degeneracies[j] = (new, const, _digit_runs(lens, dest, new_lens))
        return plan

    # -- corner bijection ----------------------------------------------

    def corner_assemble(self, first: NerveCell, last: NerveCell, corner: int) -> NerveCell:
        """The cell with d_0 = ``first``, d_n = ``last`` and corner
        ``corner``: row 1 is the last face's row 1 and the corner, the rows
        below are the first face's rows."""
        if first.dim != last.dim or first.dim < 1:
            raise CompatibilityError("corner faces must share a dimension >= 1")
        n, ends = first.dim + 1, [self.rank_of(first), self.rank_of(last)]
        faces = self.faces_of(n - 1, ends)
        if faces[n - 1][0] != faces[0][1]:
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        return self.cell_at(n, self.assemble_ids(n, ends[:1], ends[1:], [corner])[0])

    # -- enumeration -----------------------------------------------------

    def _dim(self, n: int) -> tuple[_Block, ...]:
        """Enumeration blocks of dimension n >= 0 in rank order, built once.

        One block per object sequence, sequences lexicographic.  A cell's
        rank is its block's start plus its index in the block, the
        mixed-radix number whose digits are its entries' positions in the
        candidate lists (``_Block.domains``); fiber candidates are
        range(size), so a fiber digit is its element.  In dimension 0 an
        object's rank is its id; negative dimensions have no blocks.  A cell
        of more entries than ``cap``, or more object sequences than ``cap``,
        is refused with CapacityError before any block is made.
        """
        blocks = () if n < 0 else self._dims.get(n)
        if blocks is None:
            xm, cap, cat = self.xm, self.cap, self.xm.cat
            if n * (n + 1) // 2 > cap:  # the entries of one cell
                raise CapacityError(f"a cell of dimension {n} has {n * (n + 1) // 2} entries, over the budget {cap}", cap=cap)
            sequences = self._count(n, [1] * cat.num_objects, bool)
            if sequences > cap:
                raise CapacityError(f"{sequences} object sequences of dimension {n} exceed the budget {cap}", cap=cap)
            seqs = [(x,) for x in cat.objects()]
            for _ in range(n):  # lexicographic, one object at a time
                seqs = [seq + (y,) for seq in seqs for y in cat.objects() if cat.hom(y, seq[-1])]
            blocks, start = [], 0
            for seq in seqs:
                homs = tuple([cat.hom(seq[i], seq[i - 1]) for i in range(1, n + 1)])
                fibers = tuple([xm.fibers[x].size for x in seq[1:]])
                size = math.prod([len(hom) * f ** (n - i) for i, (hom, f) in enumerate(zip(homs, fibers), 1)])
                blocks.append(_Block(seq, homs, fibers, size, start))
                start += size
            self._block_of.update((blk.seq, blk) for blk in blocks)
            self._starts[n] = [blk.start for blk in blocks]
            blocks = self._dims[n] = tuple(blocks)
        return blocks

    def _block(self, seq: tuple[int, ...]) -> _Block | None:
        """The block of an object sequence, its dimension built first; None
        for a sequence with an empty hom-set."""
        return self._block_of.get(seq) if self._dim(len(seq) - 1) else None

    def _count(self, n: int, sizes: Sequence[int], weigh) -> int:
        """The cells (``len``, fiber sizes) or object sequences (``bool``, sizes
        1) of dimension n >= 0, at most ``_HUGE``: the products over rows i of
        weigh(C(x_i, x_{i-1})) sizes[x_i]^(n-i), summed row by row, or with
        all sizes 1 as 1^T H^n 1 by squaring.  With a larger size, the constant
        sequence on its object alone has at least 2^(n(n-1)/2) cells."""
        objs = range(self.xm.cat.num_objects)
        homs = [[weigh(self.xm.cat.hom(x, y)) for y in objs] for x in objs]
        v = [1] * len(objs)

        def times(m, v):
            return [min(sum(map(mul, row, v)), _HUGE) for row in m]

        while n and max(sizes, default=1) == 1:  # leaves n = 0 for the rows below
            v = times(homs, v) if n & 1 else v
            homs, n = list(zip(*[times(homs, col) for col in zip(*homs)])), n >> 1
        if n * (n - 1) // 2 >= _HUGE.bit_length():
            return _HUGE
        for i in range(1, n + 1):
            v = [min(size ** (n - i) * s, _HUGE) for size, s in zip(sizes, times(homs, v))]
        return min(sum(v), _HUGE)

    def count_cells(self, n: int) -> int:
        """The number of n-cells, with no block built; a count of more than
        4300 digits, over any budget, is refused with CapacityError."""
        if n not in self._counts:
            self._counts[n] = self._count(n, [f.size for f in self.xm.fibers], len) if n >= 0 else 0
        if self._counts[n] == _HUGE:
            raise CapacityError(f"10^4300 or more cells of dimension {n} exceed the budget {self.cap}", cap=self.cap)
        return self._counts[n]

    def count_within(self, n: int) -> int:
        """``count_cells(n)`` refused above ``cap``, then as ``_dim(n)`` refuses."""
        count = super().count_within(n)
        self._dim(n)
        return count

    def cells(self, n: int) -> Iterator[NerveCell]:
        """All cells of dimension n, object sequences lexicographic, then
        entries row-major lexicographic; refused above ``cap``."""
        self.count_within(n)
        for blk in self._dim(n):
            for flat in itertools.product(*blk.domains):
                yield _cell((n, blk.seq, tuple([flat[a:b] for a, b in blk.bounds])))

    def cell_at(self, n: int, index: int) -> NerveCell:
        """The index-th cell in enumeration order, without materializing."""
        blk = self._dim(n)[self._block_indices(n, [index])[0]]
        index -= blk.start
        flat = tuple([dom[index // w % len(dom)] for dom, w in zip(blk.domains, blk.weights)])
        return _cell((n, blk.seq, tuple([flat[a:b] for a, b in blk.bounds])))

    def rank_of(self, c: NerveCell) -> int:
        """Position of a cell in ``cells(c.dim)`` order; the inverse of
        ``cell_at``.  Refuses an invalid cell with CellError."""
        self.validate_cell(c)
        blk = self._block(c.objects)
        entries = itertools.chain.from_iterable(c.rows)
        return blk.start + sum(w * dom.index(v) for w, dom, v in zip(blk.weights, blk.domains, entries))

    def corners(self, n: int, ranks: Sequence[int]) -> list[int]:
        """Corner, entry (1, n), of the n-cell of every rank in ``ranks``,
        n >= 2."""
        if n < 2:
            raise CompatibilityError("corner splitting needs dimension >= 2")
        blocks, where = self._dim(n), self._block_indices(n, ranks)
        glues = {b: self._glue_of(blocks[b]) for b in set(where)}
        return [(r - g[0]) // g[2] % g[5] for r, g in zip(ranks, map(glues.__getitem__, where))]

    def assemble_ids(self, n: int, firsts: Sequence[int], lasts: Sequence[int], corners: Sequence[int]) -> list[int]:
        """Rank form of ``corner_assemble``: the rank of the n-cell, n >= 2,
        with first face, last face and corner ``(first, last, corner)``, for
        every triple of three columns, the faces given as ranks.  Their
        overlap is not compared; only columns of unequal lengths, a pair
        with no common object sequence, or a corner outside its fiber, is
        refused, the first refused triple raising.  Columns of one pair of
        face blocks, as on every one-block level, are assembled whole once
        their corners are in range; others in one pass, each triple reading
        the glue of its pair."""
        if n < 2:
            raise CompatibilityError("corner splitting needs dimension >= 2")
        if len({len(firsts), len(lasts), len(corners)}) > 1:
            raise CompatibilityError(f"corner columns of unequal lengths {[len(firsts), len(lasts), len(corners)]}")
        blocks = self._dim(n - 1)
        lbs, fbs = self._block_indices(n - 1, lasts), self._block_indices(n - 1, firsts)
        glues = {}
        for b_last, b_first in {(0, 0)} if len(blocks) == 1 and lbs else set(zip(lbs, fbs)):
            lseq, fseq = blocks[b_last].seq, blocks[b_first].seq
            blk = self._block(lseq + fseq[-1:])
            glues[b_last, b_first] = None if blk is None or lseq[1:] != fseq[:-1] else self._glue_of(blk)
        if len(glues) == 1:
            (glue,) = glues.values()
            if glue is not None and 0 <= min(corners) <= max(corners) < glue[5]:
                return _glue(glue, firsts, lasts, corners)
        cells = []
        for b_last, b_first, first, last, corner in zip(lbs, fbs, firsts, lasts, corners):
            glue = glues[b_last, b_first]
            if glue is None:
                raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
            start, fstart, fsize, lstart, ltail, fiber = glue  # as in _glue
            if not 0 <= corner < fiber:
                raise CompatibilityError(f"corner {corner} outside the fiber over object {blocks[b_last].seq[1]}")
            cells.append(start - fstart + ((last - lstart) // ltail * fiber + corner) * fsize + first)
        return cells

    def _check_ranks(self, n: int, ranks: Sequence[int]) -> None:
        """Raise IndexError on the first rank that is not one of the n-cells."""
        count = self.count_cells(n)
        if ranks and not (0 <= min(ranks) and max(ranks) < count):
            raise IndexError(next(r for r in ranks if not 0 <= r < count))

    def _block_indices(self, n: int, ranks: Sequence[int]) -> list[int]:
        """Position in ``_dim(n)`` of the block of every rank; a rank that is
        not one of the n-cells raises IndexError."""
        self._check_ranks(n, ranks)
        starts = self._starts[n]
        if len(starts) == 1:
            return [0] * len(ranks)
        return [b - 1 for b in map(partial(bisect_right, starts), ranks)]

    def _glue_of(self, blk: _Block) -> tuple[int, ...]:
        """The constants of ``_glue`` for a block of dimension >= 2."""
        if blk.glue is None:
            seq = blk.seq
            first, last = self._block(seq[1:]), self._block(seq[:-1])
            blk.glue = (blk.start, first.start, first.size, last.start, self._block(seq[1:-1]).size,
                        self.xm.fibers[seq[1]].size)
        return blk.glue

    def faces_of(self, n: int, ranks: Sequence[int]) -> list[list[int]]:
        """Face columns of the n-cells of ``ranks``, n >= 1, in any
        dimension: n+1 lists, list j holding the rank of d_j c of every c in
        input order; a rank that is not one of the n-cells raises
        IndexError.  The faces are read from a built level's columns, or
        from the columns of rows the nerve keeps.  The rows it lacks are
        made by a loop: top-down, the ranks each dimension lacks and their
        d_0 and d_n ranks (spelled once), which the dimension below makes;
        bottom-up, their rows, by ``_block_faces``, appended to the kept
        columns, of which each dimension keeps the first ``cap`` rows."""
        if n < 1:
            raise CellError("0-cells have no faces")
        self._check_ranks(n, ranks)
        work, want = [], ranks
        for d in range(n, 0, -1):
            table, at = self.built(d), None  # at the loop's end: the table the bottom-up pass reads first
            if table is not None:
                break
            table, at = self._rows.setdefault(d, ([[] for _ in range(d + 1)], {}))
            todo = sorted(set(want).difference(at))
            if not todo:
                break
            blocks, jobs = self._dim(d), []
            groups = [(1, todo)] if len(blocks) == 1 else itertools.groupby(
                todo, key=partial(bisect_right, self._starts[d]))
            for b, group in groups:
                blk, group = blocks[b - 1], list(group)
                plan, spell = self._plan_of(d, blk), partial(_spell, [r - blk.start for r in group])
                jobs.append((group, plan, spell, (spell(plan[2], plan[0].start), spell(plan[3], plan[1]))))
            work.append((d, table, at, jobs))
            if d < 3:
                break
            want = [r for *_, ends in jobs for col in ends for r in col]
        for d, columns, made, jobs in reversed(work):
            for group, plan, digits, ends in jobs:  # ``table``: the faces of d-1, read for d >= 3
                for col, faces in zip(columns, self._block_faces(d, plan, digits, table, ends, at)):
                    col.extend(faces)
                made.update(zip(group, itertools.count(len(made))))
            table, at = columns, made
        face = _read(table, ranks, at)
        faces = [list(face(j)) for j in range(n + 1)]
        # past the budget the newest rows are read, not kept; ``made`` holds ranks in position order
        for _, columns, made, _ in work:
            for r in list(itertools.islice(reversed(made), max(len(made) - self.cap, 0))):
                del made[r]
            for col in columns:
                del col[self.cap:]
        return faces

    def _plan_of(self, n: int, blk: _Block) -> tuple:
        """What ``_block_faces`` reads for one block of dimension n >= 1,
        made once: the block of d_0, the start of d_n's block, the digit
        runs (``_keep_runs``) of the ranks of d_0 and d_n, and the
        tables and digit runs the inner faces need: for n = 2 those of the
        composite diagonal, for n >= 3 the fiber product over x1, d_1's
        corner maps by row-2 value (each made on first use, then kept) and
        the glue of every d_j's block."""
        if blk.plan is not None:
            return blk.plan
        xm = self.xm
        seq, domains = blk.seq, blk.domains
        flat = range(n * (n + 1) // 2)
        keep = partial(_keep_runs, tuple(map(len, domains)))
        row_ends = {b - 1 for _, b in blk.bounds}
        extra = None
        if n == 2:
            # compose[m11 * d(m12)] for every value of row 1, in row 1's own radix
            compose, d_x1 = xm.cat.compose_table, xm.boundary[seq[1]]
            ups = [compose[compose[u][d_x1[a]]] for u in domains[0] for a in range(len(domains[1]))]
            extra = (ups, domains[2], self.mor_rank, keep({0, 1}), keep({2}))
        elif n >= 3:
            inner = [self._block(seq[:j] + seq[j + 1:]) for j in range(1, n)]
            fiber2 = xm.fibers[seq[2]]
            twists = _Twists(n, fiber2.size, domains[n], xm.boundary[seq[2]], xm.action, xm.cat.compose_table,
                             fiber2.table)
            extra = (xm.fibers[seq[1]].table, twists, [self._glue_of(b) for b in inner],
                     keep({n - 1}), keep(set(flat[n:2 * n - 1])), keep({n - 2}))
        blk.plan = (self._block(seq[1:]), self._block(seq[:-1]).start, keep(set(flat[n:])),
                    keep(set(flat).difference(row_ends)), extra)
        return blk.plan

    # -- whole-level face tables -------------------------------------------

    def face_rows(self, n: int, below: list[list[int]]) -> list[list[int]]:
        """Columns d_0 .. d_n, as ranks, of the n-cells, n >= 1, in rank
        order, with no cell built, dropping the rows kept of dimension n.
        ``below`` is the face table of dimension n-1, read for n >= 3."""
        self._rows.pop(n, None)
        columns = [[] for _ in range(n + 1)]
        for blk in self._dim(n):
            faces = self._block_faces(n, self._plan_of(n, blk), partial(_ranks, blk.size), below)
            # a level of one block keeps its block's columns: no copy of them
            columns = faces if not columns[0] else [*map(list.__iadd__, columns, faces)]
        return columns

    @staticmethod
    def _block_faces(n: int, plan: tuple, digits, below, ends=None, at=None) -> list[list[int]]:
        """Columns d_0 .. d_n, as ranks, of cells of one block of dimension
        n >= 1, given the block's ``_plan_of``, ``digits(runs, start=0)``:
        per cell, ``start`` plus the image of its index in the block under
        the digit runs ``runs`` of the plan (``_ranks`` for the whole block,
        ``_spell`` for chosen cells), and ``below``, the face table of
        dimension n-1 (``_read``, at positions ``at``), read for n >= 3;
        ``ends``, if given, are the d_0 and d_n columns, already spelled.

        d_0 deletes row 1, so its rank keeps the digits of rows 2 .. n; d_n
        deletes the last digit of every row.  For n = 2, d_1 is the
        composite diagonal m11 * d(m12) * m22.  For n >= 3, d_j is the cell
        with first face d_{j-1} d_0 c, last face d_j d_n c and a corner c'
        made from c's corner by the paper's closed formulas: c' = c for
        2 <= j <= n-2, c' = c^eta(M, 1, n-1) m[2][n] for j = 1, and
        c' = m[1][n-1] c in the fiber over x1 for j = n-1."""
        first_blk, last_start, runs_first, runs_last, extra = plan
        first, last = ends or (digits(runs_first, first_blk.start), digits(runs_last, last_start))
        inner = []
        if n == 2:
            ups, dom22, mor_rank, runs_row1, runs_m22 = extra
            composite = map(getitem, map(ups.__getitem__, digits(runs_row1)), map(dom22.__getitem__, digits(runs_m22)))
            inner.append(list(map(mor_rank.__getitem__, composite)))
        elif n >= 3:
            mul1, twists, glues, runs_corner, runs_row2, runs_m1n1 = extra
            # fiber candidates are range(size), so a digit is its element
            corner = digits(runs_corner)
            corners = [
                map(getitem, map(twists.__getitem__, digits(runs_row2)), corner),
                *[corner] * (n - 3),
                map(getitem, map(mul1.__getitem__, digits(runs_m1n1)), corner),
            ]
            fa, lb = _read(below, first, at), _read(below, last, at)
            for j, glue, cs in zip(range(1, n), glues, corners):
                inner.append(_glue(glue, fa(j - 1), lb(j), cs))
        return [first, *inner, last]

    def rank_maps(self, maxdim: int) -> _RankMaps:
        """Face and degeneracy maps on rank columns, for ``audit_simplicial``
        up to dimension ``maxdim``."""
        return _RankMaps(self, maxdim)


class _Twists(dict):
    """d_1's corner map of the n-cells, n >= 3, of one block, by the index
    of row 2 in its own radix: entry [row2][c] is c^eta m[2][n] in the
    fiber over x2, with eta = m[2][2] * d(m[2][3] ... m[2][n-1]).  A row-2
    value's map is made on its first lookup and then kept."""

    def __init__(self, n, f2, dom22, d_x2, action, compose, mul2):
        self.plan = (n, f2, dom22, d_x2, action, compose, mul2)

    def __missing__(self, row2: int) -> list[int]:
        n, f2, dom22, d_x2, action, compose, mul2 = self.plan
        v, m2n = divmod(row2, f2)  # v: m[2][2], then m[2][3] .. m[2][n-1] as base-f2 digits
        eta = dom22[v // f2 ** (n - 3)]
        for k in range(n - 4, -1, -1):
            eta = compose[eta][d_x2[v // f2 ** k % f2]]
        twist = self[row2] = [mul2[a][m2n] for a in action[eta]]
        return twist


def _read(table, ranks, at=None):
    """The function of j that gives the rank of d_j of every cell of
    ``ranks`` in face columns: a level's, mapped lazily by rank (whole
    blocks are read there, and an itemgetter holds a copy of its indices),
    or kept ones, read at the positions ``at`` maps the ranks to, found
    once, through one itemgetter for every column."""
    if at is None:
        return lambda j: map(table[j].__getitem__, ranks)
    pick = gather(gather(ranks)(at))
    return lambda j: pick(table[j])


def _ranks(size: int, runs: Sequence[Sequence[int]], start: int = 0) -> list[int]:
    """``start`` plus the image of every index 0 .. ``size``-1 of a block
    under the digit runs ``runs`` of ``_digit_runs``, built in
    index order; the runs must keep their digits in order."""
    col, below = [start], 1
    for weight, span, new in runs:
        col *= weight // below
        col = [d * new + r for d in range(span) for r in col]
        below = weight * span
    col *= size // below
    return col


# Cells per rank column of the identity audit.  Beyond the level tables the
# audit keeps s_j of the whole level below, one table per j
# (``_RankMaps.degeneracy_tables``), which grows with that level; the rest
# grows with this chunk.  The tables stay: without them S4 ``audit --dims
# 0..2`` ran 10-20% and F4 ``audit --dims 0..4`` about 40% slower.
AUDIT_CHUNK = 2048


class _Column(list):
    """Ranks of cells of one block of dimension ``dim``, as ``_RankMaps``
    passes them between maps; ``faces`` keeps the ranks of all faces once
    they are read or made."""

    __slots__ = ("dim", "blk", "faces")

    def __init__(self, dim: int, blk: _Block, ranks: Sequence[int]):
        super().__init__(ranks)
        self.dim, self.blk = dim, blk
        self.faces: list[list[int]] | None = None


class _RankMaps:
    """The identity audit's face and degeneracy maps on rank columns of one
    nerve, up to dimension ``maxdim``.  A column holds cells of one block,
    and so does each of its faces and degeneracies.  ``chunks(n)`` builds
    the levels n and below, and n+1 below ``maxdim`` when it is within the
    budget, and cuts each block of dimension n into columns of at most
    ``AUDIT_CHUNK`` cells.

    * d_i makes all faces of a column at once (the audit reads them all),
      from the face table of the column's dimension where the nerve has
      built it, else, for degenerate (n+1)-cells, by the face formulas of
      ``Nerve._block_faces`` on the column's indices.
    * s_j is digit insertion.  s_j c repeats x_j, adds a row (1_{x_j}, e,
      ..., e) and a unit column, and every entry of c keeps its digit, as
      its hom-set or fiber is the same (Duskin, "Simplicial matrices and the
      nerves of weak n-categories I", TAC 9, 2002).  So the index of s_j c
      in its block is a constant plus runs of c's index digits moved to new
      places (``Nerve._degeneracy_plan``, which ``Nerve.degeneracy`` reads
      too).  On faces of the cells under audit it reads a table of s_j on
      the whole level n-1."""

    def __init__(self, nv: Nerve, maxdim: int):
        self.nv, self.maxdim = nv, maxdim
        self.dim = -1
        self.degeneracy_tables: dict[int, list[int]] = {}
        self._verdicts: dict[tuple, bool] = {}  # agree's, by object sequence and words

    def chunks(self, n: int) -> Iterator[_Column]:
        nv = self.nv
        self.dim = n
        nv.level(n)
        if n < self.maxdim and nv.count_cells(n + 1) <= nv.cap:
            nv.level(n + 1)
        self.degeneracy_tables = {}
        for blk in nv._dim(n):
            end = blk.start + blk.size
            for lo in range(blk.start, end, AUDIT_CHUNK):
                yield _Column(n, blk, range(lo, min(lo + AUDIT_CHUNK, end)))

    def face(self, col: _Column, i: int) -> _Column:
        m, blk, nv = col.dim, col.blk, self.nv
        table = nv.built(m)
        if col.faces is None and table is not None:
            col.faces = list(map(gather(col), table))
        elif col.faces is None:
            digits = partial(_spell, [r - blk.start for r in col])
            col.faces = nv._block_faces(m, nv._plan_of(m, blk), digits, nv.built(m - 1))
        return _Column(m - 1, nv._block(blk.seq[:i] + blk.seq[i + 1:]), col.faces[i])

    def degeneracy(self, col: _Column, j: int) -> _Column:
        if col.dim < self.dim:  # faces of the cells under audit: s_j of the whole level below, once
            table = self.degeneracy_tables.get(j)
            if table is None:
                table = self.degeneracy_tables[j] = [
                    r for blk in self.nv._dim(col.dim) for r in self.nv._degenerate(blk, range(blk.size), j)]
            ranks = [table[r] for r in col]
        else:
            ranks = self.nv._degenerate(col.blk, [r - col.blk.start for r in col], j)
        return _Column(col.dim + 1, self.nv._degeneracy_plan(col.blk, j)[0], ranks)

    def agree(self, col: _Column, a: tuple, b: tuple) -> bool:
        """Whether the words ``a`` and ``b`` of degeneracies only, as
        ``(("s", j), ...)`` first applied first, agree on every cell of the
        block of ``col``; decided once per block.  Every s_j is a digit
        insertion, so each word is an affine map of the block's digit vector
        with no carries, and the words agree on the block iff they agree on
        its basis: the first cell, and the cell with one digit 1 and the
        others 0 for every digit of radix above 1."""
        key = (col.blk.seq, a, b)
        if key not in self._verdicts:
            blk = col.blk
            basis = [blk.start] + [blk.start + w for w, dom in zip(blk.weights, blk.domains) if len(dom) > 1]
            ends = []
            for word in (a, b):
                end = _Column(col.dim, blk, basis)
                for _, j in word:
                    end = self.degeneracy(end, j)
                ends.append(end)
            self._verdicts[key] = ends[0] == ends[1]
        return self._verdicts[key]

    def cell(self, col: _Column, pos: int) -> NerveCell:
        return self.nv.cell_at(col.dim, col[pos])


def _keep_runs(lens: Sequence[int], keep: set[int]) -> list[list[int]]:
    """The digit runs of ``_digit_runs`` that spell, from a number of the
    mixed radix ``lens``, the number its digits at the positions in
    ``keep`` make in their own mixed radix."""
    kept = sorted(keep)
    at = dict(zip(kept, itertools.count()))
    return _digit_runs(lens, [at.get(p) for p in range(len(lens))], [lens[p] for p in kept])


def _digit_runs(lens: Sequence[int], dest: Sequence[int | None], new_lens: Sequence[int]) -> list[list[int]]:
    """The map that moves digit p of the mixed radix ``lens`` to position
    ``dest[p]`` of the radix ``new_lens`` (None drops it), as runs
    [weight, span, new weight] of digits that stay adjacent: a number's
    image is the sum over runs of number // weight % span * new weight."""
    weights, new_weights = _weights(lens), _weights(new_lens)
    runs: list[list[int]] = []
    prev = None
    for p in range(len(lens) - 1, -1, -1):
        q = dest[p]
        if q is not None:
            if prev == (p + 1, q + 1):
                runs[-1][1] *= lens[p]
            else:
                runs.append([weights[p], lens[p], new_weights[q]])
            prev = (p, q)
    return runs


def _weights(lens: Sequence[int]) -> list[int]:
    """The place value of every digit of the mixed radix ``lens``."""
    out, weight = [], 1
    for size in reversed(lens):
        out.append(weight)
        weight *= size
    return out[::-1]


def _spell(idxs: Sequence[int], runs: Sequence[Sequence[int]], const: int = 0) -> list[int]:
    """``const`` plus the image of every number in ``idxs`` under the digit
    map ``runs`` of ``_digit_runs``."""
    if not runs:
        return [const] * len(idxs)
    weight, span, new = runs[0]
    col = [const + i // weight % span * new for i in idxs]
    for weight, span, new in runs[1:]:
        col = [c + i // weight % span * new for c, i in zip(col, idxs)]
    return col

