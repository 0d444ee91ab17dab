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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple, Sequence

from .algebra import CrossedMonoid, XMorphism
from .errors import CapacityError, CellError, CompatibilityError, DEFAULT_CAPACITY


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

    def sort_key(self):
        return (self.dim, self.objects, self.rows)

    def text(self) -> str:
        """Canonical serialization: dim | object ids | row-major entries."""
        objs = ",".join(str(x) for x in self.objects)
        rows = ";".join(",".join(str(v) for v in row) for row in self.rows)
        return f"{self.dim}|{objs}|{rows}"


# NerveCell from one (dim, objects, rows) tuple, built in C without the
# Python-level __new__ of a NamedTuple; the structure maps and the
# enumeration make every cell through it.
_cell = partial(tuple.__new__, NerveCell)


@dataclass(frozen=True)
class CornerTriple:
    """A cell split as (first face, last face, upper-right corner element)."""

    first: NerveCell
    last: NerveCell
    corner: int


# (object sequence, row-major candidate list per matrix position, block size)
_Block = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]


class Nerve:
    """Level provider for the nerve of one crossed monoid.

    Refuses at construction, with CompatibilityError naming ``(x, a)``, a
    boundary that is not an endomorphism of its object: the face maps
    compose with boundary values and need them to be.
    """

    def __init__(self, xm: CrossedMonoid):
        cat = xm.cat
        for x, row in enumerate(xm.boundary):
            a = next((a for a, d in enumerate(row) if cat.src[d] != x or cat.tgt[d] != x), None)
            if a is not None:
                raise CompatibilityError(f"boundary at (x, a) = ({x}, {a}) is not an endomorphism of object {x}")
        self.xm = xm
        self._blocks_by_dim: dict[int, tuple[_Block, ...]] = {}

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

    def corner_split(self, M: NerveCell) -> CornerTriple:
        """Split M as (first face, last face, corner); needs dim >= 2."""
        n = M.dim
        if n < 2:
            raise CompatibilityError("corner splitting needs dimension >= 2")
        return CornerTriple(self.face(M, 0), self.face(M, n), M.rows[0][n - 1])

    def corner_assemble(self, t: CornerTriple) -> NerveCell:
        """Inverse of corner_split: glue the two faces around the corner."""
        m0, mn = t.first, t.last
        if m0.dim != mn.dim or m0.dim < 1:
            raise CompatibilityError("corner faces must share a dimension >= 1")
        n = m0.dim + 1
        if self.face(m0, n - 1) != self.face(mn, 0):
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        fiber = self.xm.fibers[m0.objects[0]]
        if not 0 <= t.corner < fiber.size:
            raise CompatibilityError(f"corner {t.corner} outside the fiber over object {m0.objects[0]}")
        objs = mn.objects + (m0.objects[-1],)
        rows = (mn.rows[0] + (t.corner,),) + m0.rows
        return _cell((n, objs, rows))

    def corner_face(self, t: CornerTriple, j: int) -> CornerTriple:
        """Split of d_j(assemble(t)) computed by closed corner formulas.

        The corner is unchanged for 2 <= j <= n-2, twisted by the first row
        of the first face for j = 1, and multiplied by the last face's
        corner for j = n-1.
        """
        m0, mn = t.first, t.last
        n = m0.dim + 1
        if n < 3:
            raise CompatibilityError("corner_face needs dimension >= 3")
        if not 1 <= j <= n - 1:
            raise CompatibilityError(f"corner_face index {j} out of range")
        d_first = self.face(m0, j - 1)
        d_last = self.face(mn, j)
        if j == 1:
            corner = self._corner_map(1, m0)[t.corner]
        elif j == n - 1:
            corner = self._corner_map(j, mn)[t.corner]
        else:
            corner = t.corner
        return CornerTriple(d_first, d_last, corner)

    def _corner_map(self, j: int, side: NerveCell) -> tuple[int, ...]:
        """Corner of d_j M indexed by the corner of M, for an n-cell M with
        n = side.dim + 1 >= 3 and j = 1 or j = n-1.

        For j = 1 the map depends only on ``side = d_0 M``: the corner is
        twisted by eta(d_0 M, 0, n-2) and multiplied by the corner of d_0 M
        in the fiber over x2.  For j = n-1 it depends only on
        ``side = d_n M``: the corner of d_n M times the corner, in the fiber
        over x1.
        """
        n = side.dim + 1
        xm = self.xm
        if j == 1:
            act = xm.action[self.eta(side, 0, n - 2)]
            row = side.rows[0][n - 2]
            mul = xm.fibers[side.objects[1]].table
            return tuple([mul[a][row] for a in act])
        return xm.fibers[side.objects[1]].table[side.rows[0][n - 2]]

    def corner_project(self, faces: Sequence[NerveCell]) -> CornerTriple:
        """Triple (first, last, corner of the third face) of a face tuple."""
        third = faces[2]
        if third.dim < 2:
            raise CompatibilityError("corner projection needs faces of dimension >= 2")
        return CornerTriple(faces[0], faces[-1], third.rows[0][third.dim - 1])

    def corner_triples(self, n: int, cap: int = DEFAULT_CAPACITY) -> Iterator[CornerTriple]:
        """All valid (first, last, corner) triples in dimension n >= 2."""
        if n < 2:
            raise CompatibilityError("corner triples exist from dimension 2 up")
        lower = list(self.cells(n - 1, cap=cap))
        by_first_face: dict[NerveCell, list[NerveCell]] = {}
        for c in lower:
            by_first_face.setdefault(self.face(c, 0), []).append(c)
        for first in lower:
            key = self.face(first, n - 1)
            fiber = self.xm.fibers[first.objects[0]]
            for last in by_first_face.get(key, ()):
                for m in fiber.elements():
                    yield CornerTriple(first, last, m)

    # -- enumeration -----------------------------------------------------

    def _blocks(self, n: int) -> tuple[_Block, ...]:
        """Enumeration blocks of dimension n >= 0, built once per dimension.

        One block per object sequence (x0, ..., xn) with a morphism in every
        C(x_i, x_{i-1}), sequences lexicographic: the sequence, the row-major
        candidate list of every matrix position, and the block size, the
        product of the candidate counts.  A cell's index within its block is
        the mixed-radix number whose digits are its positions in those lists.
        """
        blocks = self._blocks_by_dim.get(n)
        if blocks is None:
            xm = self.xm
            cat = xm.cat
            out = []
            for seq in itertools.product(cat.objects(), repeat=n + 1):
                if not all(cat.hom(seq[i], seq[i - 1]) for i in range(1, n + 1)):
                    continue
                domains: list[tuple[int, ...]] = []
                for i in range(1, n + 1):
                    domains.append(cat.hom(seq[i], seq[i - 1]))
                    domains.extend([tuple(xm.fibers[seq[i]].elements())] * (n - i))
                size = 1
                for dom in domains:
                    size *= len(dom)
                out.append((seq, tuple(domains), size))
            blocks = self._blocks_by_dim[n] = tuple(out)
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
        if n < 0:
            return 0
        if n == 0:
            return self.xm.cat.num_objects
        return sum(size for _, _, size in self._blocks(n))

    def cells(self, n: int, cap: int = DEFAULT_CAPACITY) -> Iterator[NerveCell]:
        """All cells of dimension n, object sequences lexicographic, then
        entries row-major lexicographic."""
        predicted = self.count_cells(n)
        if cap is not None and predicted > cap:
            raise CapacityError(
                f"{predicted} cells of dimension {n} exceed the budget {cap}",
                predicted=predicted,
                cap=cap,
            )
        if n == 0:
            for x in self.xm.cat.objects():
                yield _cell((0, (x,), ()))
            return
        bounds = self._row_bounds(n)
        for seq, domains, _ in self._blocks(n):
            for flat in itertools.product(*domains):
                yield _cell((n, seq, tuple([flat[a:b] for a, b in bounds])))

    def cell_at(self, n: int, index: int) -> NerveCell:
        """The index-th cell in enumeration order, without materializing."""
        if index < 0:
            raise IndexError(index)
        if n == 0:
            if index >= self.xm.cat.num_objects:
                raise IndexError(index)
            return _cell((0, (index,), ()))
        for seq, domains, size in self._blocks(n):
            if index >= size:
                index -= size
                continue
            digits = []
            for dom in reversed(domains):
                index, digit = divmod(index, len(dom))
                digits.append(dom[digit])
            flat = tuple(reversed(digits))
            return _cell((n, seq, tuple([flat[a:b] for a, b in self._row_bounds(n)])))
        raise IndexError(index)

    # -- whole-level face tables -------------------------------------------

    def face_rows(self, n: int, below) -> list[tuple[int, ...]]:
        """Row ``(id of d_0 c, ..., id of d_n c)`` of every n-cell c, n >= 1,
        in ``cells(n)`` order, made without a ``face`` call.

        ``below`` is the level of ``cells(n-1)``: its ``cells``, its
        ``cell -> id`` map ``ids`` and its face table ``faces``.  The rows
        equal ``below.ids[face(c, j)]`` on every crossed monoid this nerve
        accepts; a KeyError is raised where ``face`` would give a cell
        missing from ``below``.  The rows hold the ints of ``below.ids``.

        Each enumeration block is built column by column.  d_0 and d_n
        delete digits of a cell's rank in its block: d_0 drops row 1, d_n
        the last entry of every row.  The corner is the digit at position
        n-1.  For n = 2, d_1 is the composite diagonal.  For n >= 3, d_j is
        the (n-1)-cell with corner triple ``(d_{j-1} d_0 c, d_j d_n c,
        corner)``, the corner mapped by ``_corner_map`` for j = 1 and
        j = n-1.
        """
        ids = below.ids
        id_of = list(ids.values())
        block_ids = {}
        pos = 0
        for seq, _, size in self._blocks(n - 1):
            block_ids[seq] = id_of[pos:pos + size]
            pos += size
        row_ends = {b - 1 for _, b in self._row_bounds(n)}
        flat = range(n * (n + 1) // 2)
        keep_first = set(flat[n:])
        keep_last = set(flat) - row_ends
        if n == 2:
            cat = self.xm.cat
            compose = cat.compose_table
            mor_id = {c.rows[0][0]: i for c, i in ids.items()}
        elif n >= 3:
            cols = [[row[j] for row in below.faces] for j in range(n)]
            triple = dict(zip(zip(cols[0], cols[n - 1], [c.rows[0][-1] for c in below.cells]), id_of))
            first_map = [self._corner_map(1, c) for c in below.cells]
            last_map = [self._corner_map(n - 1, c) for c in below.cells]

        rows: list[tuple[int, ...]] = []
        for seq, domains, _ in self._blocks(n):
            lens = [len(dom) for dom in domains]
            first = list(map(block_ids[seq[1:]].__getitem__, _ranks(lens, keep_first)))
            last = list(map(block_ids[seq[:-1]].__getitem__, _ranks(lens, keep_last)))
            inner = []
            if n == 2:
                d_up = self.xm.boundary[seq[1]]
                ups = [compose[u][d_up[a]] for u in domains[0] for a in domains[1]]
                diag = {g: mor_id[g] for g in cat.hom(seq[2], seq[0])}
                inner.append([diag[compose[u][v]] for u in ups for v in domains[2]])
            elif n >= 3:
                # fiber candidates are range(size), so a digit is its element
                corner = _ranks(lens, {n - 1})
                fa, fb = cols[0], cols[1]
                inner.append([triple[fa[a], fb[b], first_map[a][c]] for a, b, c in zip(first, last, corner)])
                for j in range(2, n - 1):
                    fa, fb = cols[j - 1], cols[j]
                    inner.append([triple[fa[a], fb[b], c] for a, b, c in zip(first, last, corner)])
                fa, fb = cols[n - 2], cols[n - 1]
                inner.append([triple[fa[a], fb[b], last_map[b][c]] for a, b, c in zip(first, last, corner)])
            rows.extend(zip(first, *inner, last))
        return rows


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
