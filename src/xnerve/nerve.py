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

A cell's rank is its position in ``cells(n)``.  ``cell_at`` and ``rank_of``
convert.  The corner bijection ``M <-> (d_0 M, d_n M, m[1][n])``, n >= 2, and
its closed inner-face formulas work on ranks alone, in any dimension, with no
cell built: ``face_ids``, ``assemble_id`` and ``corner_at``.  On ranks, s_j
is digit insertion: s_j c keeps every digit of c's rank and adds fixed
digits for the identity and the fiber units (``rank_maps``, for the identity
audit).  On cells, ``face``, ``degeneracy``, ``eta`` and ``corner_assemble``
are the matrix definitions the rank forms are tested against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import defaultdict
from functools import partial
from typing import Iterator, NamedTuple, Sequence

from .algebra import CrossedMonoid, XMorphism
from .columns import RankMaps
from .errors import CellError, CompatibilityError, DEFAULT_CAPACITY
from .simplicial import LevelProvider


class NerveCell(NamedTuple):
    """A cell as a plain tuple ``(dim, objects, rows)``: hashing, equality
    and ordering run on the tuple itself."""

    dim: int
    objects: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """Matrix entry at 1-based position (i, j), i <= j."""
        return self.rows[i - 1][j - i]

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


class _Block(NamedTuple):
    """One object sequence with a morphism in every C(x_i, x_{i-1}): the
    row-major candidate list of every matrix position, the block size (their
    product) and the rank of its first cell."""

    seq: tuple[int, ...]
    domains: tuple[tuple[int, ...], ...]
    size: int
    start: int


def _glue(glue: tuple[int, ...], first: int, last: int, corner: int) -> int:
    """Rank of the cell with faces d_0 = ``first``, d_n = ``last`` (ranks)
    and corner ``corner``: row 1 is the last face's row 1 and the corner,
    the rows below are the first face's rows.  ``glue`` is the block's
    start, the start and size of the first face's block, the start of the
    last face's block, the size of the last face's rows below row 1 and the
    size of the fiber over x1."""
    start, fstart, fsize, lstart, ltail, fiber = glue
    return start + ((last - lstart) // ltail * fiber + corner) * fsize + first - fstart


class Nerve(LevelProvider):
    """Level provider for the nerve of one crossed monoid.

    Refuses at construction, with CompatibilityError naming ``(x, a)``, a
    boundary that is not an endomorphism of its object: the face maps
    compose with boundary values and need them to be.

    The nerve keeps every face table that ``level`` builds for as long as it
    lives, so the checks run on one ``Nerve`` share them and none builds a
    table twice: a second ``check_kan(nv, 4)`` builds nothing.  Build a fresh
    ``Nerve`` to let the tables go.  ``cap`` bounds every level and join.
    """

    def __init__(self, xm: CrossedMonoid, cap: int = DEFAULT_CAPACITY):
        cat = xm.cat
        for x, row in enumerate(xm.boundary):
            a = next((a for a, d in enumerate(row) if cat.src[d] != x or cat.tgt[d] != x), None)
            if a is not None:
                raise CompatibilityError(f"boundary at (x, a) = ({x}, {a}) is not an endomorphism of object {x}")
        self.xm, self.cap = xm, cap
        self._dims: dict[int, tuple[_Block, ...]] = {}
        self._starts: dict[int, list[int]] = {}
        self._block_of: dict[tuple[int, ...], _Block] = {}  # by object sequence, every dimension
        self._glues: dict[tuple[int, ...], tuple[int, ...]] = {}  # by object sequence
        self._face_plans: dict[tuple[int, ...], tuple] = {}  # by object sequence
        self._face_id_rows: defaultdict[int, dict[int, tuple[int, ...]]] = defaultdict(dict)
        # mor_at[r] is the morphism of the 1-cell of rank r; mor_rank inverts it
        self.mor_at = [g for blk in self._dim(1) for g in blk.domains[0]]
        self.mor_rank = sorted(range(len(self.mor_at)), key=self.mor_at.__getitem__)

    # -- construction -------------------------------------------------

    def point(self, obj: int) -> NerveCell:
        if not 0 <= obj < self.xm.cat.num_objects:
            raise CellError(f"object {obj} out of range")
        return NerveCell(0, (obj,), ())

    def morphism_cell(self, m: int) -> NerveCell:
        """The dimension-1 cell identified with morphism ``m``."""
        cat = self.xm.cat
        if not 0 <= m < cat.num_morphisms:
            raise CellError(f"morphism {m} out of range")
        return NerveCell(1, (cat.tgt[m], cat.src[m]), ((m,),))

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

    def eta(self, M: NerveCell, j: int, k: int) -> int:
        """Row twist: ``m[j+1][j+1] * d(m[j+1][j+2] ... m[j+1][k])``.

        Runs from ``x_{j+1}`` to ``x_j``; ``k == j+1`` gives the bare
        diagonal entry.
        """
        n = M.dim
        if not (0 <= j and j + 1 <= k <= n):
            raise CellError(f"eta indices ({j},{k}) out of range for dimension {n}")
        xm = self.xm
        row = M.rows[j]
        drow = xm.boundary[M.objects[j + 1]]
        compose = xm.cat.compose_table
        mor = row[0]
        for col in range(j + 2, k + 1):
            mor = compose[mor][drow[row[col - j - 1]]]
        return mor

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
        diag = compose[compose[upper[0]][d_upper[upper[1]]]][lower[0]]
        if diag is None:
            raise CompatibilityError(f"a face of a {n}-cell is not a {n - 1}-cell: its diagonal leaves its hom-set")
        merged = [diag]
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

    # -- corner bijection ----------------------------------------------

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

    # -- enumeration -----------------------------------------------------

    def _dim(self, n: int) -> tuple[_Block, ...]:
        """Enumeration blocks of dimension n >= 0 in rank order, built once.

        One block per object sequence, sequences lexicographic.  A cell's
        rank is its block's start plus its index in the block, the
        mixed-radix number whose digits are its entries' positions in the
        candidate lists; fiber candidates are range(size), so a fiber digit
        is its element.  In dimension 0 an object's rank is its id; negative
        dimensions have no blocks.
        """
        blocks = () if n < 0 else self._dims.get(n)
        if blocks is None:
            xm = self.xm
            cat = xm.cat
            blocks, start = [], 0
            for seq in itertools.product(cat.objects(), repeat=n + 1):
                if not all(cat.hom(seq[i], seq[i - 1]) for i in range(1, n + 1)):
                    continue
                domains: list[tuple[int, ...]] = []
                for i in range(1, n + 1):
                    domains.append(cat.hom(seq[i], seq[i - 1]))
                    domains.extend([tuple(xm.fibers[seq[i]].elements())] * (n - i))
                size = math.prod(map(len, domains))
                blocks.append(_Block(seq, tuple(domains), size, start))
                start += size
            self._block_of.update((blk.seq, blk) for blk in blocks)
            self._starts[n] = [blk.start for blk in blocks]
            blocks = self._dims[n] = tuple(blocks)
        return blocks

    @staticmethod
    def _row_bounds(n: int) -> list[tuple[int, int]]:
        """Slice bounds of rows 1..n in a row-major entry list."""
        bounds, pos = [], 0
        for ln in range(n, 0, -1):
            bounds.append((pos, pos + ln))
            pos += ln
        return bounds

    def count_cells(self, n: int) -> int:
        blocks = self._dim(n)
        return blocks[-1].start + blocks[-1].size if blocks else 0

    def cells(self, n: int) -> Iterator[NerveCell]:
        """All cells of dimension n, object sequences lexicographic, then
        entries row-major lexicographic; refused above ``cap``."""
        self.count_within(n)
        bounds = self._row_bounds(n)
        for blk in self._dim(n):
            for flat in itertools.product(*blk.domains):
                yield _cell((n, blk.seq, tuple([flat[a:b] for a, b in bounds])))

    def _locate(self, n: int, r: int) -> tuple[_Block, int]:
        """(block, index within the block) of rank r in dimension n."""
        blocks = self._dims.get(n) or self._dim(n)
        blk = blocks[bisect_right(self._starts[n], r) - 1] if r >= 0 and blocks else None
        if blk is None or r - blk.start >= blk.size:
            raise IndexError(r)
        return blk, r - blk.start

    def cell_at(self, n: int, index: int) -> NerveCell:
        """The index-th cell in enumeration order, without materializing."""
        blk, index = self._locate(n, index)
        digits = []
        for dom in reversed(blk.domains):
            index, digit = divmod(index, len(dom))
            digits.append(dom[digit])
        flat = tuple(reversed(digits))
        return _cell((n, blk.seq, tuple([flat[a:b] for a, b in self._row_bounds(n)])))

    def rank_of(self, c: NerveCell) -> int:
        """Position of a cell in ``cells(c.dim)`` order; the inverse of
        ``cell_at``.  Refuses an invalid cell with CellError."""
        self.validate_cell(c)
        self._dim(c.dim)
        blk = self._block_of[c.objects]
        r = 0
        for dom, v in zip(blk.domains, itertools.chain.from_iterable(c.rows)):
            r = r * len(dom) + dom.index(v)
        return blk.start + r

    def corner_at(self, n: int, r: int) -> int:
        """Corner, entry (1, n), of the n-cell of rank r, n >= 2."""
        if n < 2:
            raise CompatibilityError("corner splitting needs dimension >= 2")
        blk, index = self._locate(n, r)
        glue = self._glue_of(blk)
        return index // glue[2] % glue[5]

    def assemble_id(self, n: int, first: int, last: int, corner: int) -> int:
        """Rank form of ``corner_assemble``: the rank of the n-cell, n >= 2,
        with first face, last face and corner ``(first, last, corner)``,
        the faces given as ranks.  Their overlap is not compared; only a
        pair with no common object sequence is refused."""
        if n < 2:
            raise CompatibilityError("corner splitting needs dimension >= 2")
        lseq, fseq = self._locate(n - 1, last)[0].seq, self._locate(n - 1, first)[0].seq
        self._dim(n)
        blk = self._block_of.get(lseq + fseq[-1:])
        if blk is None or lseq[1:] != fseq[:-1]:
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        glue = self._glue_of(blk)
        if not 0 <= corner < glue[5]:
            raise CompatibilityError(f"corner {corner} outside the fiber over object {lseq[1]}")
        return _glue(glue, first, last, corner)

    def _glue_of(self, blk: _Block) -> tuple[int, ...]:
        """The constants of ``_glue`` for a block of dimension >= 2."""
        glue = self._glues.get(blk.seq)
        if glue is None:
            seq = blk.seq
            self._dim(len(seq) - 2)
            self._dim(len(seq) - 3)
            block_of = self._block_of
            first, last = block_of[seq[1:]], block_of[seq[:-1]]
            glue = self._glues[seq] = (blk.start, first.start, first.size, last.start, block_of[seq[1:-1]].size,
                                       self.xm.fibers[seq[1]].size)
        return glue

    def face_ids(self, n: int, r: int) -> tuple[int, ...]:
        """Ranks of d_0 .. d_n of the n-cell of rank r, n >= 1, in any
        dimension; rows are cached per rank until ``clear_face_ids``."""
        rows = self._face_id_rows[n]
        row = rows.get(r)
        if row is None:
            row = rows[r] = self._face_row(n, r)
        return row

    def clear_face_ids(self) -> None:
        self._face_id_rows.clear()

    def _face_row(self, n: int, r: int) -> tuple[int, ...]:
        """d_0 deletes row 1, so its rank keeps the low digits of r's index
        in its block; d_n deletes the last digit of every row.  For n = 2,
        d_1 is the composite diagonal.  For n >= 3, d_j is the cell with
        first face d_{j-1} d_0, last face d_j d_n and a corner c' made from
        r's corner c by the paper's closed formulas: c' = c for
        2 <= j <= n-2, c' = c^eta(M, 1, n-1) m[2][n] for j = 1, and
        c' = m[1][n-1] c in the fiber over x1 for j = n-1."""
        if n < 1:
            raise CellError("0-cells have no faces")
        blk, index = self._locate(n, r)
        first, last_start, last_row, drops, extra = self._face_plans.get(blk.seq) or self._face_plan(n, blk)
        d0 = first.start + index % first.size
        q, dn = index // last_row, last_start
        for size, fiber, weight in drops:
            q, v = divmod(q, size)
            dn += v // fiber * weight
        if n == 1:
            return (d0, dn)
        row1, rest = divmod(index, first.size)
        if n == 2:
            compose, d_x1, dom11, dom22, f1, diag = extra
            m11, m12 = divmod(row1, f1)
            d1 = diag.get(compose[compose[dom11[m11]][d_x1[m12]]][dom22[rest]])
            if d1 is None:
                raise CompatibilityError("a face of a 2-cell is not a 1-cell: its diagonal leaves its hom-set")
            return (d0, d1, dn)
        tail2, f1, f2, mul1, mul2, dom22, d_x2, action, compose, glues = extra
        c = row1 % f1
        eta, m2n = _row2_twist(n, rest // tail2, f2, dom22, d_x2, compose)
        corners = [mul2[action[eta][c]][m2n], *[c] * (n - 3), mul1[row1 // f1 % f1][c]]
        f0, fn = self.face_ids(n - 1, d0), self.face_ids(n - 1, dn)
        return (d0, *map(_glue, glues, f0, fn[1:], corners), dn)

    def _face_plan(self, n: int, blk: _Block) -> tuple:
        """What ``_face_row`` reads for one block of dimension n >= 1: the
        block of d_0, the start of d_n's block, the size of row n, the (size,
        fiber size, weight) of rows n-1 .. 1 for d_n, and the tables the
        inner faces need, with the glue of every d_j's block for n >= 3.
        Refuses a block whose inner faces have no block."""
        xm = self.xm
        self._dim(n - 1)
        self._dim(n - 2)
        block_of = self._block_of
        seq, domains = blk.seq, blk.domains
        sizes = [math.prod(map(len, domains[a:b])) for a, b in self._row_bounds(n)]
        fibers = [xm.fibers[x].size for x in seq[1:]]
        drops, weight = [], 1
        for size, fiber in zip(sizes[-2::-1], fibers[-2::-1]):
            drops.append((size, fiber, weight))
            weight *= size // fiber
        extra = None
        if n == 2:
            diag = {g: self.mor_rank[g] for g in xm.cat.hom(seq[2], seq[0])}
            extra = (xm.cat.compose_table, xm.boundary[seq[1]], domains[0], domains[2], fibers[0], diag)
        elif n >= 3:
            inner = [block_of.get(seq[:j] + seq[j + 1:]) for j in range(1, n)]
            if None in inner:
                raise CompatibilityError(f"a face of a {n}-cell is not a {n - 1}-cell: no cell has its objects")
            extra = (block_of[seq[2:]].size, fibers[0], fibers[1], xm.fibers[seq[1]].table, xm.fibers[seq[2]].table,
                     domains[n], xm.boundary[seq[2]], xm.action, xm.cat.compose_table, [self._glue_of(b) for b in inner])
        plan = self._face_plans[seq] = (block_of[seq[1:]], block_of[seq[:-1]].start, sizes[-1], drops, extra)
        return plan

    # -- whole-level face tables -------------------------------------------

    def face_rows(self, n: int, below: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Row ``(rank of d_0 c, ..., rank of d_n c)`` of every n-cell c,
        n >= 1, in rank order, with no cell built.  ``below`` is the face
        table of dimension n-1, read for n >= 3.  A 2-cell whose diagonal
        leaves its hom-set raises KeyError."""
        rows: list[tuple[int, ...]] = []
        for blk in self._dim(n):
            rows.extend(zip(*self._block_faces(n, blk, below, partial(_ranks, [len(dom) for dom in blk.domains]))))
        return rows

    def _block_faces(self, n: int, blk: _Block, below: Sequence[tuple[int, ...]], digits) -> list[list[int]]:
        """Columns d_0 .. d_n, as ranks, of cells of one block of dimension
        n >= 1, given ``digits(keep)``: per cell, the number that its rank
        digits at the positions in ``keep`` spell (``_ranks`` for the whole
        block, ``columns._pick`` for chosen cells).

        The columns follow the formulas of ``_face_row``: d_0 and d_n delete
        rank digits; for n = 2, d_1 is the composite diagonal; for n >= 3,
        ``_glue`` makes d_j from d_{j-1} d_0 c and d_j d_n c, read from
        ``below``, and c's corner digit, mapped for j = 1 and j = n-1 as
        there."""
        row_ends = {b - 1 for _, b in self._row_bounds(n)}
        flat = range(n * (n + 1) // 2)
        first_blk, last_start, _, _, extra = self._face_plans.get(blk.seq) or self._face_plan(n, blk)
        first = [first_blk.start + r for r in digits(set(flat[n:]))]
        last = [last_start + r for r in digits(set(flat) - row_ends)]
        inner = []
        if n == 2:
            compose, d_x1, dom11, dom22, f1, diag = extra
            # compose[m11 * d(m12)] for every value of row 1, in row 1's own radix
            ups = [compose[compose[u][d_x1[a]]] for u in dom11 for a in range(f1)]
            inner.append([diag[ups[a][dom22[b]]] for a, b in zip(digits({0, 1}), digits({2}))])
        elif n >= 3:
            tail2, f1, f2, mul1, mul2, dom22, d_x2, action, compose, glues = extra
            # fiber candidates are range(size), so a digit is its element
            corner = digits({n - 1})
            # d_1's corner map for every value of row 2, in row 2's own radix
            twists = []
            for row2 in range(len(dom22) * f2 ** (n - 2)):
                eta, m2n = _row2_twist(n, row2, f2, dom22, d_x2, compose)
                twists.append([mul2[a][m2n] for a in action[eta]])
            corners = [
                [twists[r][c] for r, c in zip(digits(set(flat[n:2 * n - 1])), corner)],
                *[corner] * (n - 3),
                [mul1[a][c] for a, c in zip(digits({n - 2}), corner)],
            ]
            fa, lb = [below[a] for a in first], [below[b] for b in last]
            for j, glue, cs in zip(range(1, n), glues, corners):
                fs, ls = [r[j - 1] for r in fa], [r[j] for r in lb]
                inner.append(list(map(_glue, itertools.repeat(glue), fs, ls, cs)))
        return [first, *inner, last]

    def rank_maps(self, maxdim: int) -> RankMaps:
        """Face and degeneracy maps on rank columns, for ``audit_simplicial``
        up to dimension ``maxdim``."""
        return RankMaps(self, maxdim)


def _row2_twist(n: int, row2: int, f2: int, dom22: Sequence[int], d_x2: Sequence[int], compose) -> tuple[int, int]:
    """(eta, m[2][n]) of an n-cell, n >= 3, whose row 2 has index ``row2``
    in its own radix: eta = m[2][2] * d(m[2][3] ... m[2][n-1]) twists the
    corner of d_1, and m[2][n] multiplies it."""
    v, m2n = divmod(row2, f2)
    entries = []
    for _ in range(n - 3):
        v, e = divmod(v, f2)
        entries.append(e)
    eta = dom22[v]
    for e in reversed(entries):
        eta = compose[eta][d_x2[e]]
    return eta, m2n


def _ranks(lens: Sequence[int], keep: set[int]) -> list[int]:
    """For every digit tuple of the mixed radix ``lens``, in product order,
    the number that its digits at the positions in ``keep`` spell in their
    own mixed radix."""
    col, weight = [0], 1
    for p in range(len(lens) - 1, -1, -1):
        if p in keep:
            col = [d * weight + r for d in range(lens[p]) for r in col]
            weight *= lens[p]
        else:
            col *= lens[p]
    return col


def induced_cell(m: XMorphism, M: NerveCell) -> NerveCell:
    """Push a cell along a structure map: objects and diagonal through the
    functor, fiber entries through the matching fiber map."""
    objs = tuple(m.obj_map[x] for x in M.objects)
    rows = []
    for i, row in enumerate(M.rows, start=1):
        fiber_map = m.fiber_maps[M.objects[i]]
        rows.append((m.mor_map[row[0]],) + tuple(fiber_map[v] for v in row[1:]))
    return NerveCell(M.dim, objs, tuple(rows))
