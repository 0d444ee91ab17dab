"""Constructive horn fillers for crossed-module nerves, on cell ranks.

``HornFiller.fill_columns`` fills many horns of one dimension and slot at
once: a horn is one position of n columns of face ranks, one column per
present slot, as ``horns(...).columns`` gives them, and the fillers come
back as a column of ranks.  Every step is a column operation: face columns
from ``Nerve.faces_of``, corners from ``Nerve.corners``, cells from
``Nerve.assemble_ids``.  ``fill`` is one horn given as cells, a column of
one: ranks carry no dimension, so it refuses faces that are not
(n-1)-cells, then converts with ``rank_of`` and ``cell_at``.
Dimension 2 fills by groupoid inverses with a unit corner.  Every
dimension n >= 3 collapses the horn one level with beta, rebuilds the
missing face from that boundary, and assembles the filler through the
corner bijection.  For n >= 4 the missing face is itself assembled that
way; for n = 3 it is the 2-cell whose diagonal is entries 2 and 0 of beta
and whose corner solves the boundary-image equation.

A filler runs on the ``Nerve`` it is given and shares its tables, the face
rows it keeps of other levels (every slot and column reads them) and its
cell budget.  Nothing is assumed of the input; each check compares columns
of ints and a failure raises CompatibilityError: the horn has n faces in
columns of one length, ranks of (n-1)-cells, and a slot in 0..n, the faces
match up as a horn, the n = 3 completed tuple satisfies eq:image, the
first and last faces overlap, and every face column of the filler and, for
n >= 4, of the missing face is the column it was built from (for n = 2, its
face columns at the horn's slots).  A refused column raises the error of
its first refused horn, as that horn alone would.

The boundary-image equation for a compatible 4-tuple (M0, M1, M2, M3) of
2-cells reads, with g the lower diagonal of M3 and c_j the corner of M_j:

    c3^g * c1 == c2^g * c0                                   (rule "eq:image")

It is necessary for the tuple to be a boundary over any crossed monoid and
also sufficient over a crossed module.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .algebra import CrossedMonoid
from .errors import CompatibilityError, NotCrossedModuleError
from .nerve import Nerve, NerveCell
from .simplicial import HornTuple


def _image_rule(xm: CrossedMonoid, g: int, c: Sequence[int]) -> bool:
    """Rule eq:image on the corners ``c`` of a 4-tuple of 2-cells whose
    face 3 has the lower diagonal g."""
    act, mul = xm.action[g], xm.fibers[xm.cat.src[g]].table
    return mul[act[c[3]]][c[1]] == mul[act[c[2]]][c[0]]


class HornFiller:
    """Fillers on ``nerve``, the nerve of one crossed module.

    Refuses at construction, naming the first failed hypothesis, when the
    nerve's crossed monoid is not a crossed module.  Inverses are read from
    the cached ``morphism_inverse`` and fiber ``inverse`` tables, so the fill
    paths never search.
    """

    def __init__(self, nerve: Nerve):
        nerve.xm.classification.require_module()
        self.nerve, self.xm = nerve, nerve.xm

    # -- small helpers -------------------------------------------------

    def _act_inv(self, g: int, a: int) -> int:
        return self.xm.action[self.xm.cat.morphism_inverse[g]][a]

    def _mul(self, obj: int, *items: int) -> int:
        return self.xm.fibers[obj].product(items)

    def _inv(self, obj: int, a: int) -> int:
        v = self.xm.fibers[obj].inverse[a]
        if v is None:
            raise NotCrossedModuleError("fibers_are_groups", (obj, a))
        return v

    def _mor_inverse(self, m: int) -> int:
        v = self.xm.cat.morphism_inverse[m]
        if v is None:
            raise NotCrossedModuleError("category_is_groupoid", (m,))
        return v

    # -- dimension dispatch ----------------------------------------------

    def fill(self, h: HornTuple) -> NerveCell:
        """The filler of a horn given as cells, which must be of dimension
        n-1: converted to ranks, filled as columns of one and decoded."""
        n, nv = h.dim, self.nerve
        if any(f.dim != n - 1 for f in h.faces):
            raise CompatibilityError(f"a horn of dimension {n} has faces of dimension {n - 1}")
        return nv.cell_at(n, self.fill_columns(n, h.omitted, [[nv.rank_of(f)] for f in h.faces])[0])

    def fill_columns(self, n: int, l: int, columns: Sequence[Sequence[int]]) -> list[int]:
        """Ranks of the fillers of the dimension-n horns with slot l omitted
        whose present faces, in slot order, have the ranks in ``columns``:
        horn i is ``[col[i] for col in columns]``.

        Refuses with CompatibilityError unless the columns are of one length,
        the faces are (n-1)-cells that match up as a horn, the filler's faces
        are the horn's, and for n >= 3 the face columns of the filler and
        (n >= 4) of the missing face are the columns they were built from,
        the n = 3 tuple passing eq:image.  The error is that of the first
        refused horn: a refused column is filled again one horn at a time
        until that horn raises."""
        if n < 2:
            raise CompatibilityError(f"no constructive filler in dimension {n}")
        if not 0 <= l <= n or len(columns) != n:
            raise CompatibilityError(f"a horn of dimension {n} has {n} faces and a slot in 0..{n}, "
                                     f"got {len(columns)} faces and slot {l}")
        columns = [list(col) for col in columns]
        if len(set(map(len, columns))) > 1:
            raise CompatibilityError(f"horn columns of unequal lengths {list(map(len, columns))}")
        try:
            return self._fill(n, l, columns)
        except (CompatibilityError, NotCrossedModuleError):
            for i in range(len(columns[0])):
                self._fill(n, l, [col[i:i + 1] for col in columns])
            raise

    def _fill(self, n: int, l: int, faces: list[list[int]]) -> list[int]:
        """``fill_columns`` on one column, refused as a whole: ``rows[b][j]``
        is the column of d_j of present face b, from ``faces_of``, whose face
        rows the nerve keeps for the next slot too."""
        try:
            rows = [self.nerve.faces_of(n - 1, col) for col in faces]
        except IndexError as e:
            raise CompatibilityError(f"face rank {e.args[0]} is not one of the {self.nerve.count_cells(n - 1)} "
                                     f"cells of dimension {n - 1}") from None
        slots = [k for k in range(n + 1) if k != l]
        for a, j in enumerate(slots):
            for b in range(a + 1, n):
                if rows[b][j] != rows[a][slots[b] - 1]:
                    raise CompatibilityError("tuple is not a horn: faces do not match up")
        if n == 2:
            return self._fill_dim2(l, faces, slots)
        beta = [r[l - 1 if i < l else l] for i, r in enumerate(rows)]
        completed = list(faces)
        missing = self._missing_2face(l, faces, rows, beta) if n == 3 else self._cell_with_boundary(n - 1, beta)
        completed.insert(l, missing)  # for 0 < l < n faces 0 and n are present, their ends known
        return self._cell_with_boundary(n, completed, (rows[0][n - 1], rows[-1][0]) if 0 < l < n else None)

    def _fill_dim2(self, l: int, faces: list[list[int]], slots: list[int]) -> list[int]:
        """The 2-cells with d_0 = lower, d_2 = upper and a unit corner, the
        missing edge made from groupoid inverses."""
        cat, nv = self.xm.cat, self.nerve
        f, g = [[nv.mor_at[r] for r in col] for col in faces]
        if l == 1:
            lower, upper = f, g
        elif l == 2:
            lower, upper = f, [cat.compose(b, self._mor_inverse(a)) for a, b in zip(f, g)]
        else:
            lower, upper = [cat.compose(self._mor_inverse(b), a) for a, b in zip(f, g)], g
        units = [self.xm.fibers[cat.src[u]].unit for u in upper]
        fillers = nv.assemble_ids(2, [nv.mor_rank[m] for m in lower], [nv.mor_rank[m] for m in upper], units)
        got_faces = nv.faces_of(2, fillers)
        for slot, expected in zip(slots, faces):
            got = got_faces[slot]
            if got != expected:
                i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
                raise CompatibilityError(
                    f"filler face mismatch at slot {slot}: "
                    f"expected {nv.cell_at(1, expected[i]).text()}, got {nv.cell_at(1, got[i]).text()}"
                )
        return fillers

    def _missing_2face(self, l: int, faces: list[list[int]], rows: list[list[list[int]]],
                       beta: list[list[int]]) -> list[int]:
        """The omitted 2-faces of dimension-3 horns, with boundaries
        ``beta``: the diagonal is entries 2 and 0 of beta, and the corner
        solves rule eq:image, with g the lower diagonal of face 3."""
        nv, xm = self.nerve, self.xm
        gs = [nv.mor_at[r] for r in (beta[0] if l == 3 else rows[-1][0])]
        c = [nv.corners(2, col) for col in faces]
        c.insert(l, itertools.repeat(None))
        mul, inv, act_inv = self._mul, self._inv, self._act_inv
        corners = []
        for g, c0, c1, c2, c3 in zip(gs, *c):
            x1, x2, act = xm.cat.tgt[g], xm.cat.src[g], xm.action[g]
            if l == 0:
                corners.append(mul(x2, act[mul(x1, inv(x1, c2), c3)], c1))
            elif l == 1:
                corners.append(mul(x2, act[mul(x1, inv(x1, c3), c2)], c0))
            elif l == 2:
                corners.append(act_inv(g, mul(x2, act[c3], c1, inv(x2, c0))))
            else:
                corners.append(act_inv(g, mul(x2, act[c2], c0, inv(x2, c1))))
        return nv.assemble_ids(2, beta[0], beta[2], corners)

    def _cell_with_boundary(self, n: int, faces: list[list[int]], ends=None) -> list[int]:
        """Ranks of the n-cells, n >= 3, with the face ranks ``faces`` (one
        column per face), built through the corner bijection; the corner is
        that of face 2 for n >= 4 and solves rule eq:image for n = 3.
        Refuses tuples that fail eq:image, whose outer faces do not overlap
        (``ends``, if given, are d_{n-1} of face 0 and d_0 of face n), or
        whose cells have another boundary."""
        nv, xm = self.nerve, self.xm
        if n == 3:
            c = [nv.corners(2, col) for col in faces]
            gs = [nv.mor_at[r] for r in nv.faces_of(2, faces[3])[0]]
            if not all(map(_image_rule, itertools.repeat(xm), gs, zip(*c))):
                raise CompatibilityError("boundary tuple fails eq:image")
            corner = [self._mul(xm.cat.tgt[g], self._inv(xm.cat.tgt[g], c3), c2)
                      for g, c2, c3 in zip(gs, c[2], c[3])]
        else:
            corner = nv.corners(n - 1, faces[2])
        first, last = ends or (nv.faces_of(n - 1, faces[0])[n - 1], nv.faces_of(n - 1, faces[-1])[0])
        if first != last:
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        cells = nv.assemble_ids(n, faces[0], faces[-1], corner)
        for j, (got, expected) in enumerate(zip(nv.faces_of(n, cells), faces)):
            if got != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {j}")
        return cells
