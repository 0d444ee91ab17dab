"""Constructive horn fillers for crossed-module nerves, on cell ranks.

``HornFiller.fill_ids`` takes a horn as the ranks of its faces (see
``Nerve.face_ids``) and returns the filler's rank.  ``fill`` is the cell
form: ranks carry no dimension, so it refuses faces that are not
(n-1)-cells, then converts with ``rank_of`` and ``cell_at`` and leaves every
other check to ``fill_ids``.  Dimension 2 fills by groupoid inverses with a
unit corner.  Every dimension n >= 3 collapses the horn one level with beta,
rebuilds the missing face from that boundary, and assembles the filler
through the corner bijection (``Nerve.assemble_id``).  For n >= 4 the
missing face is itself assembled that way; for n = 3 it is the 2-cell whose
diagonal is entries 2 and 0 of beta and whose corner solves the
boundary-image equation.

A filler runs on the ``Nerve`` it is given and shares its tables and cell
budget.  Nothing is assumed of the input; each check is an int comparison
and a failure raises CompatibilityError: the horn has n faces, ranks of
(n-1)-cells, and a slot in 0..n, the faces match up as a horn, the n = 3
completed tuple satisfies eq:image, the first and last faces overlap, and
the whole face rows of the filler and, for n >= 4, of the missing face are
the tuples they were built from (for n = 2, the filler's faces at the
horn's slots).

The boundary-image equation for a compatible 4-tuple (M0, M1, M2, M3) of
2-cells reads, with g the lower diagonal of M3 and c_j the corner of M_j:

    c3^g * c1 == c2^g * c0                                   (rule "eq:image")

It is necessary for the tuple to be a boundary over any crossed monoid and
also sufficient over a crossed module.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import CrossedMonoid
from .errors import CompatibilityError, NotCrossedModuleError
from .nerve import Nerve, NerveCell
from .simplicial import BoundaryTuple, HornTuple


def image_b3(xm: CrossedMonoid, t: BoundaryTuple) -> bool:
    """Does a compatible 4-tuple of 2-cells bound a 3-cell? (rule eq:image)

    Necessary over any crossed monoid; necessary and sufficient over a
    crossed module.
    """
    return _image_rule(xm, t.faces[3].rows[1][0], [m.rows[0][1] for m in t.faces])


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

    # -- dimension dispatch ----------------------------------------------

    def fill(self, h: HornTuple) -> NerveCell:
        """The filler of a horn given as cells, which must be of dimension
        n-1: converted to ranks, filled by ``fill_ids`` and decoded."""
        n, nv = h.dim, self.nerve
        if any(f.dim != n - 1 for f in h.faces):
            raise CompatibilityError(f"a horn of dimension {n} has faces of dimension {n - 1}")
        return nv.cell_at(n, self.fill_ids(n, h.omitted, [nv.rank_of(f) for f in h.faces]))

    def fill_ids(self, n: int, l: int, faces: Sequence[int]) -> int:
        """Rank of the filler of the dimension-n horn whose present faces,
        in slot order with slot l omitted, have the ranks ``faces``.

        Refuses with CompatibilityError unless the faces are (n-1)-cells that
        match up as a horn, the filler's faces are the horn's, and for n >= 3
        the face rows of the filler and (n >= 4) of the missing face are the
        tuples they were built from, the n = 3 tuple passing eq:image."""
        if n < 2:
            raise CompatibilityError(f"no constructive filler in dimension {n}")
        if not 0 <= l <= n or len(faces) != n:
            raise CompatibilityError(f"a horn of dimension {n} has {n} faces and a slot in 0..{n}, "
                                     f"got {len(faces)} faces and slot {l}")
        size = self.nerve.count_cells(n - 1)
        for f in faces:
            if not 0 <= f < size:
                raise CompatibilityError(f"face rank {f} is not one of the {size} cells of dimension {n - 1}")
        face_ids = self.nerve.face_ids
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

    def _fill_dim2(self, l: int, faces: Sequence[int], slots: list[int]) -> int:
        """The 2-cell with d_0 = lower, d_2 = upper and a unit corner, the
        missing edge made from groupoid inverses."""
        cat, nv = self.xm.cat, self.nerve
        f, g = [nv.mor_at[r] for r in faces]
        if l == 1:
            lower, upper = f, g
        elif l == 2:
            lower, upper = f, cat.compose(g, self._mor_inverse(f))
        else:
            lower, upper = cat.compose(self._mor_inverse(g), f), g
        filler = nv.assemble_id(2, nv.mor_rank[lower], nv.mor_rank[upper], self.xm.fibers[cat.src[upper]].unit)
        row = nv.face_ids(2, filler)
        for slot, expected in zip(slots, faces):
            if row[slot] != expected:
                raise CompatibilityError(
                    f"filler face mismatch at slot {slot}: "
                    f"expected {nv.cell_at(1, expected).text()}, got {nv.cell_at(1, row[slot]).text()}"
                )
        return filler

    def _mor_inverse(self, m: int) -> int:
        v = self.xm.cat.morphism_inverse[m]
        if v is None:
            raise NotCrossedModuleError("category_is_groupoid", (m,))
        return v

    def _missing_2face(self, l: int, faces: Sequence[int], rows: list[tuple[int, ...]], beta: list[int]) -> int:
        """The omitted 2-face of a dimension-3 horn, with boundary ``beta``:
        the diagonal is entries 2 and 0 of beta, and the corner solves rule
        eq:image, with g the lower diagonal of face 3."""
        nv = self.nerve
        g = nv.mor_at[beta[0] if l == 3 else rows[-1][0]]
        x1, x2 = self.xm.cat.tgt[g], self.xm.cat.src[g]
        c = [nv.corner_at(2, f) for f in faces]
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
        return nv.assemble_id(2, beta[0], beta[2], corner)

    def _cell_with_boundary(self, n: int, faces: Sequence[int]) -> int:
        """Rank of the n-cell, n >= 3, with the face ranks ``faces``, built
        through the corner bijection; the corner is that of face 2 for
        n >= 4 and solves rule eq:image for n = 3.  Refuses a tuple that
        fails eq:image, whose outer faces do not overlap, or whose cell has
        another boundary."""
        nv = self.nerve
        face_ids = nv.face_ids
        if n == 3:
            c = [nv.corner_at(2, f) for f in faces]
            g = nv.mor_at[face_ids(2, faces[3])[0]]
            if not _image_rule(self.xm, g, c):
                raise CompatibilityError("boundary tuple fails eq:image")
            x1 = self.xm.cat.tgt[g]
            corner = self._mul(x1, self._inv(x1, c[3]), c[2])
        else:
            corner = nv.corner_at(n - 1, faces[2])
        if face_ids(n - 1, faces[0])[n - 1] != face_ids(n - 1, faces[-1])[0]:
            raise CompatibilityError("faces do not overlap: d_{n-1}(first) != d_0(last)")
        cell = nv.assemble_id(n, faces[0], faces[-1], corner)
        for j, (got, expected) in enumerate(zip(face_ids(n, cell), faces)):
            if got != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {j}")
        return cell
