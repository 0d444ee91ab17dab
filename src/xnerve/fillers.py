"""Constructive horn fillers for crossed-module nerves, on cell ranks.

``HornFiller.fill_columns`` fills many horns of one dimension and slot at
once: a horn is one position of n columns of face ranks, one column per
present slot, as ``horns(...).columns`` gives them, and the fillers come
back as a column of ranks.  Every step is a column operation: face columns
from ``Nerve.faces_of``, corners from ``Nerve.corners``, cells from
``Nerve.assemble_ids``.  ``fill`` is one horn given as cells, a column of
one: ranks carry no dimension, so it refuses faces that are not
(n-1)-cells, then converts with ``rank_of`` and ``cell_at``.

Every dimension n >= 2 takes one path: rebuild the missing face, insert
it, then assemble the filler through the corner bijection and check it.
The missing edge of n = 2 comes from groupoid inverses; from n = 3 the
missing face is the (n-1)-cell whose boundary is beta of the horn, built
and checked the same way.  A corner is a unit for n = 2, solves the
boundary-image equation for n = 3, and is the corner of face 2 beyond.

A filler runs on the ``Nerve`` it is given and shares its tables, the face
rows it keeps of other levels (every slot and column reads them) and its
cell budget.  Nothing is assumed of the input; each check compares columns
of ints and a failure raises CompatibilityError: the horn has n faces in
columns of one length, ranks of (n-1)-cells, and a slot in 0..n, the faces
match up as a horn, every completed 3-tuple satisfies eq:image, and every
face column of the filler and, for n >= 3, of the missing face is the
column it was built from, which is also the one check that its outer faces
overlap.  A refused column raises the error of its first refused horn, as
that horn alone would.

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
from .errors import CompatibilityError
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
        the faces are (n-1)-cells that match up as a horn, and the filler
        and, for n >= 3, the rebuilt missing face have the face columns they
        were built from, every completed 3-tuple passing eq:image.  The
        error is that of the first refused horn: a refused column is filled
        again one horn at a time until that horn raises."""
        if n < 2:
            raise CompatibilityError(f"no constructive filler in dimension {n}")
        if not 0 <= l <= n or len(columns) != n:
            raise CompatibilityError(f"a horn of dimension {n} has {n} faces and a slot in 0..{n}, "
                                     f"got {len(columns)} faces and slot {l}")
        columns = [col if isinstance(col, list) else list(col) for col in columns]  # the face checks compare lists
        if len(set(map(len, columns))) > 1:
            raise CompatibilityError(f"horn columns of unequal lengths {list(map(len, columns))}")
        try:
            return self._fill(n, l, columns)
        except CompatibilityError:
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
        beta = [r[l - 1 if i < l else l] for i, r in enumerate(rows)]
        corner = self._missing_corner(l, faces, rows, beta) if n == 3 else None
        missing = self._missing_edge(l, faces) if n == 2 else self._cell_with_boundary(n - 1, beta, corner)
        completed = list(faces)
        completed.insert(l, missing)
        return self._cell_with_boundary(n, completed)

    def _missing_edge(self, l: int, faces: list[list[int]]) -> list[int]:
        """The omitted 1-faces of dimension-2 horns, from groupoid inverses:
        d_1 = d_2 d_0, so d_0 = d_2^-1 d_1 and d_2 = d_1 d_0^-1."""
        nv, cat = self.nerve, self.xm.cat
        inv = cat.morphism_inverse.__getitem__
        f, g = [[nv.mor_at[r] for r in col] for col in faces]
        if l == 0:
            edges = map(cat.compose, map(inv, g), f)
        elif l == 1:
            edges = map(cat.compose, g, f)
        else:
            edges = map(cat.compose, g, map(inv, f))
        return [nv.mor_rank[m] for m in edges]

    def _missing_corner(self, l: int, faces: list[list[int]], rows: list[list[list[int]]],
                        beta: list[list[int]]) -> list[int]:
        """The corners of the omitted 2-faces of dimension-3 horns, with
        boundaries ``beta``: they solve rule eq:image, with g the lower
        diagonal of face 3."""
        nv, xm = self.nerve, self.xm
        gs = [nv.mor_at[r] for r in (beta[0] if l == 3 else rows[-1][0])]
        c = [nv.corners(2, col) for col in faces]
        c.insert(l, itertools.repeat(None))

        def corner(g: int, c0: int, c1: int, c2: int, c3: int) -> int:
            f1, f2, act = xm.fibers[xm.cat.tgt[g]], xm.fibers[xm.cat.src[g]], xm.action[g]
            if l == 0:
                return f2.product((act[f1.product((f1.inverse[c2], c3))], c1))
            if l == 1:
                return f2.product((act[f1.product((f1.inverse[c3], c2))], c0))
            act_inv = xm.action[xm.cat.morphism_inverse[g]]
            if l == 2:
                return act_inv[f2.product((act[c3], c1, f2.inverse[c0]))]
            return act_inv[f2.product((act[c2], c0, f2.inverse[c1]))]
        return list(map(corner, gs, *c))

    def _cell_with_boundary(self, n: int, faces: list[list[int]], corner=None) -> list[int]:
        """Ranks of the n-cells, n >= 2, with the face ranks ``faces`` (one
        column per face), built through the corner bijection from faces 0
        and n.  The corner is ``corner`` if given, else a unit for n = 2,
        the solution of rule eq:image for n = 3 and that of face 2 for
        n >= 4.  Refuses tuples that fail eq:image, or whose cells have
        another face row, as when d_{n-1} of face 0 is not d_0 of face n.
        The only place a filler assembles cells."""
        nv, xm = self.nerve, self.xm
        if corner is None and n == 2:
            corner = [xm.fibers[xm.cat.src[nv.mor_at[r]]].unit for r in faces[-1]]  # over d_0 of face 2
        elif corner is None and n == 3:
            c = [nv.corners(2, col) for col in faces]
            gs = [nv.mor_at[r] for r in nv.faces_of(2, faces[3])[0]]
            if not all(map(_image_rule, itertools.repeat(xm), gs, zip(*c))):
                raise CompatibilityError("boundary tuple fails eq:image")
            fibers = (xm.fibers[xm.cat.tgt[g]] for g in gs)
            corner = [f.product((f.inverse[c3], c2)) for f, c2, c3 in zip(fibers, c[2], c[3])]
        elif corner is None:
            corner = nv.corners(n - 1, faces[2])
        cells = nv.assemble_ids(n, faces[0], faces[-1], corner)
        for j, (got, expected) in enumerate(zip(nv.faces_of(n, cells), faces)):
            if got != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {j}")
        return cells
