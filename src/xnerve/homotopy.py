"""Closed-form homotopy groups of crossed-module nerves, with cross checks.

For a crossed module the fundamental group at an object t is the quotient of
the endomorphism group C(t,t) by the (normal) image of the boundary, and the
second homotopy group is the kernel of the boundary, a commutative group.
``pi_compare`` takes the ``Nerve`` of a crossed module, reads the closed
forms from its ``xm``, recomputes both groups through the generic simplicial
brute force on that nerve's face tables, and exhibits an explicit
isomorphism between the two answers.  Calls on one nerve share its tables
and cell budget, and all share the crossed monoid's ``classification``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CrossedMonoid
from .errors import ArgumentError, CompatibilityError, XNerveError
from .groups import GroupPresentation, find_isomorphism, subgroup_presentation
from .nerve import Nerve
from .simplicial import UnionFind, based_classes, pi_bruteforce


def pi0(xm: CrossedMonoid) -> tuple[tuple[int, ...], ...]:
    """Zig-zag connected components of the objects, each sorted, in order of
    their smallest member."""
    cat = xm.cat
    uf = UnionFind(cat.num_objects)
    for m in cat.morphisms():
        uf.union(cat.src[m], cat.tgt[m])
    buckets: dict[int, list[int]] = {}
    for x in cat.objects():
        buckets.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(v) for _, v in sorted(buckets.items()))


def pi1(xm: CrossedMonoid, t: int) -> GroupPresentation:
    """C(t,t) modulo the image of the boundary, with [g][h] = [g*h].

    Verifies that the image really is a normal subgroup before forming
    cosets; an input that fails the axioms may have an image that is not.
    """
    if not 0 <= t < xm.cat.num_objects:
        raise ArgumentError(f"basepoint {t} is not an object id (0..{xm.cat.num_objects - 1})")
    xm.classification.require_module()
    cat = xm.cat
    loops = cat.hom(t, t)
    image = sorted({xm.boundary[t][a] for a in xm.fibers[t].elements()})
    image_set = set(image)
    for h in image:
        for k in image:
            if cat.compose(h, k) not in image_set:
                raise XNerveError(f"boundary image not a subgroup of C({t},{t}): {h} * {k} escapes")
    inv = cat.morphism_inverse
    for g in loops:
        for h in image:
            conj = cat.compose(cat.compose(inv[g], h), g)
            if conj not in image_set:
                raise XNerveError(
                    f"boundary image not normal in C({t},{t}): {g}^-1 * {h} * {g} escapes"
                )

    # loops ascend, so each coset is met first at its least member, its
    # representative, and class labels follow the representatives
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in loops:
        if g not in coset_of:
            coset_of.update((cat.compose(g, h), len(reps)) for h in image)
            reps.append(g)

    table = tuple(
        tuple(coset_of[cat.compose(a, b)] for b in reps)
        for a in reps
    )
    g = GroupPresentation(
        labels=tuple(f"[{r}]" for r in reps),
        unit=coset_of[cat.identity[t]],
        table=table,
    )
    g.verify()
    return g


def pi2(xm: CrossedMonoid, t: int) -> GroupPresentation:
    """Kernel of the boundary at t, as a group; commutativity is asserted."""
    if not 0 <= t < xm.cat.num_objects:
        raise ArgumentError(f"basepoint {t} is not an object id (0..{xm.cat.num_objects - 1})")
    xm.classification.require_module()
    fiber = xm.fibers[t]
    one = xm.cat.identity[t]
    kernel = [a for a in fiber.elements() if xm.boundary[t][a] == one]
    try:
        g = subgroup_presentation(labels=[str(a) for a in kernel], elements=kernel, mul=fiber.mul, unit=fiber.unit)
    except XNerveError as exc:  # only an input that fails the axioms
        raise XNerveError(f"boundary kernel at object {t} is not a subgroup: {exc}") from None
    g.verify()
    if not g.is_abelian:
        raise XNerveError(f"boundary kernel at object {t} is not commutative; structure invalid")
    return g


@dataclass(frozen=True)
class PiComparison:
    n: int
    basepoint: int
    algebraic: GroupPresentation
    bruteforce: GroupPresentation
    isomorphism: tuple[int, ...] | None

    @property
    def isomorphic(self) -> bool:
        return self.isomorphism is not None


def pi_compare(nv: Nerve, n: int, t: int) -> PiComparison:
    """Compute the homotopy group of ``nv`` at object t both ways, in closed
    form from ``nv.xm`` and by brute force on ``nv``'s face tables, and
    search for an isomorphism."""
    if n not in (1, 2):
        raise CompatibilityError("closed forms exist for dimensions 1 and 2 only")
    algebraic = pi1(nv.xm, t) if n == 1 else pi2(nv.xm, t)
    brute = pi_bruteforce(nv, n, nv.point(t))
    iso = find_isomorphism(algebraic, brute)
    return PiComparison(n=n, basepoint=t, algebraic=algebraic, bruteforce=brute, isomorphism=iso)


@dataclass(frozen=True)
class VanishingReport:
    n: int
    basepoint: int
    based_cells: int
    classes: int

    @property
    def trivial(self) -> bool:
        return self.classes == 1


def higher_vanishing(nv: Nerve, t: int) -> VanishingReport:
    """Check that pi3 is trivial.

    Counts the classes of the brute force (``based_classes``) without its
    Kan pre-check: crossed-module nerves are Kan, and enumerating every
    dimension-5 horn just to re-prove that would blow the budget on
    large fibers.
    """
    nv.xm.classification.require_module()
    classes = based_classes(nv, 3, nv.point(t))
    return VanishingReport(n=3, basepoint=t, based_cells=len(classes.members), classes=len(classes.reps))
