"""Constructive horn fillers for crossed-module nerves.

Dimension 2 fills by groupoid inverses with a unit corner.  Every dimension
n >= 3 takes one path: collapse the horn one level with ``beta``, rebuild
the missing face from that boundary, and reassemble the filler through the
corner bijection.  For n >= 4 the missing face is itself rebuilt through
the corner bijection; for n = 3 it is a 2-cell whose diagonal is the
boundary's outer edges, the only two entries of ``beta`` computed, and whose
corner is solved out of the boundary-image equation.

The boundary-image equation for a compatible 4-tuple (M0, M1, M2, M3) of
2-cells reads, with g the lower diagonal of M3 and c_j the corner of M_j:

    c3^g * c1 == c2^g * c0                                   (rule "eq:image")

It is necessary for the tuple to be a boundary over any crossed monoid and
also sufficient over a crossed module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Classification, CrossedMonoid, classify_structure
from .errors import CompatibilityError, NotCrossedModuleError
from .nerve import CornerTriple, Nerve, NerveCell
from .simplicial import BoundaryTuple, HornTuple, beta, beta_face, is_compatible_horn


def image_b3(xm: CrossedMonoid, t: BoundaryTuple) -> bool:
    """Does a compatible 4-tuple of 2-cells bound a 3-cell? (rule eq:image)

    Necessary over any crossed monoid; necessary and sufficient over a
    crossed module.
    """
    m0, m1, m2, m3 = t.faces
    g = m3.rows[1][0]
    act = xm.action[g]
    mul = xm.fibers[xm.cat.src[g]].table
    lhs = mul[act[m3.rows[0][1]]][m1.rows[0][1]]
    rhs = mul[act[m2.rows[0][1]]][m0.rows[0][1]]
    return lhs == rhs


@dataclass(frozen=True)
class FaceCheck:
    slot: int
    expected: NerveCell
    actual: NerveCell

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class FillResult:
    filler: NerveCell
    checks: tuple[FaceCheck, ...]

    @property
    def verified(self) -> bool:
        return all(c.ok for c in self.checks)


class HornFiller:
    """Fillers for the nerve of one crossed module.

    Refuses at construction, naming the first failed hypothesis, when the
    input is not a crossed module.  Inverse lookups (morphisms, fiber
    elements, action maps) are precomputed here so the fill paths never
    search.
    """

    def __init__(self, xm: CrossedMonoid, classification: Classification | None = None):
        self.xm = xm
        self.classification = (classification or classify_structure(xm)).require_module()
        self.nerve = Nerve(xm)
        self.mor_inv = tuple(xm.cat.morphism_inverse)
        self.fiber_inv = tuple(f.inverse for f in xm.fibers)

    # -- small helpers -------------------------------------------------

    def _act(self, g: int, a: int) -> int:
        return self.xm.action[g][a]

    def _act_inv(self, g: int, a: int) -> int:
        return self.xm.action[self.mor_inv[g]][a]

    def _mul(self, obj: int, *items: int) -> int:
        return self.xm.fibers[obj].product(items)

    def _inv(self, obj: int, a: int) -> int:
        v = self.fiber_inv[obj][a]
        if v is None:
            raise NotCrossedModuleError("fibers_are_groups", (obj, a))
        return v

    def _result(self, h: HornTuple, filler: NerveCell, boundary: tuple | None = None) -> FillResult:
        """Check the filler's faces at the horn's slots.  ``boundary`` is its
        whole face tuple when a reconstruction has already computed it."""
        face = self.nerve.face
        checks = tuple(
            FaceCheck(slot, expected, face(filler, slot) if boundary is None else boundary[slot])
            for slot, expected in zip(h.slots(), h.faces)
        )
        result = FillResult(filler, checks)
        if not result.verified:
            bad = next(c for c in result.checks if not c.ok)
            raise CompatibilityError(
                f"filler face mismatch at slot {bad.slot}: "
                f"expected {bad.expected.text()}, got {bad.actual.text()}"
            )
        return result

    def _checked_boundary(self, cell: NerveCell, faces: tuple[NerveCell, ...]) -> tuple[NerveCell, ...]:
        """The face tuple of a reconstructed cell, refused unless it is
        ``faces``."""
        face = self.nerve.face
        got = tuple([face(cell, j) for j in range(len(faces))])
        for j, expected in enumerate(faces):
            if got[j] != expected:
                raise CompatibilityError(f"boundary reconstruction failed at face {j}")
        return got

    # -- dimension dispatch ----------------------------------------------

    def fill(self, h: HornTuple) -> FillResult:
        if not is_compatible_horn(self.nerve, h):
            raise CompatibilityError("tuple is not a horn: faces do not match up")
        if h.dim == 2:
            return self.fill_dim2(h)
        if h.dim >= 3:
            return self.fill_collapse(h)
        raise CompatibilityError(f"no constructive filler in dimension {h.dim}")

    def fill_dim2(self, h: HornTuple) -> FillResult:
        cat = self.xm.cat
        l = h.omitted
        mors = [c.rows[0][0] for c in h.faces]
        if l == 1:
            lower, upper = mors[0], mors[1]
        elif l == 2:
            f0, f1 = mors
            upper = cat.compose(f1, self._mor_inverse(f0))
            lower = f0
        else:
            f1, f2 = mors
            upper = f2
            lower = cat.compose(self._mor_inverse(f2), f1)
        x1 = cat.src[upper]
        filler = NerveCell(
            2,
            (cat.tgt[upper], x1, cat.src[lower]),
            ((upper, self.xm.fibers[x1].unit), (lower,)),
        )
        return self._result(h, filler)

    def _mor_inverse(self, m: int) -> int:
        v = self.mor_inv[m]
        if v is None:
            raise NotCrossedModuleError("category_is_groupoid", (m,))
        return v

    def _missing_2face(self, h: HornTuple) -> NerveCell:
        """The omitted 2-face of a dimension-3 horn, whose boundary is
        ``beta(h)``: the diagonal is read off entries 2 and 0 of beta(h),
        the only two computed, and the corner solves rule eq:image, with g
        the lower diagonal of the completed face 3."""
        cat = self.xm.cat
        l = h.omitted
        upper = beta_face(self.nerve, h, 2).rows[0][0]
        lower = beta_face(self.nerve, h, 0).rows[0][0]
        g = lower if l == 3 else h.faces[-1].rows[1][0]
        x1, x2 = cat.tgt[g], cat.src[g]
        c = [f.rows[0][1] for f in h.faces]
        c.insert(l, None)
        mul, act, inv = self._mul, self._act, self._inv
        if l == 0:
            corner = mul(x2, act(g, mul(x1, inv(x1, c[2]), c[3])), c[1])
        elif l == 1:
            corner = mul(x2, act(g, mul(x1, inv(x1, c[3]), c[2])), c[0])
        elif l == 2:
            corner = self._act_inv(g, mul(x2, act(g, c[3]), c[1], inv(x2, c[0])))
        else:
            corner = self._act_inv(g, mul(x2, act(g, c[2]), c[0], inv(x2, c[1])))
        return NerveCell(2, (cat.tgt[upper], cat.src[upper], cat.src[lower]), ((upper, corner), (lower,)))

    def _cell_from_boundary3(self, faces: tuple[NerveCell, ...]) -> tuple[NerveCell, tuple[NerveCell, ...]]:
        """Unique 3-cell with the given boundary, and that boundary as
        recomputed from it; refuses a tuple that fails rule eq:image."""
        if not image_b3(self.xm, BoundaryTuple(faces)):
            raise CompatibilityError("boundary tuple fails eq:image")
        m0, m3 = faces[0], faces[3]
        x1 = m3.objects[1]
        corner = self._mul(x1, self._inv(x1, faces[3].rows[0][1]), faces[2].rows[0][1])
        cell = self.nerve.corner_assemble(CornerTriple(m0, m3, corner))
        return cell, self._checked_boundary(cell, faces)

    def _cell_from_boundary(self, faces: tuple[NerveCell, ...]) -> tuple[NerveCell, tuple[NerveCell, ...]]:
        """Cell with the given boundary in dimensions >= 3 (>= 4 via the
        corner bijection), and that boundary as recomputed from it."""
        if len(faces) == 4:
            return self._cell_from_boundary3(faces)
        cell = self.nerve.corner_assemble(self.nerve.corner_project(faces))
        return cell, self._checked_boundary(cell, faces)

    def fill_collapse(self, h: HornTuple) -> FillResult:
        """Dimensions >= 3: collapse the horn with beta, rebuild the missing
        face from that boundary, then the filler from the completed one."""
        if h.dim < 3:
            raise CompatibilityError("the collapse path starts at dimension 3")
        if h.dim == 3:
            missing = self._missing_2face(h)
        else:
            missing = self._cell_from_boundary(beta(self.nerve, h).faces)[0]
        faces = list(h.faces)
        faces.insert(h.omitted, missing)
        filler, boundary = self._cell_from_boundary(tuple(faces))
        return self._result(h, filler, boundary)
