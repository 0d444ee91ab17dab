"""Ready-made crossed monoids used by the docs, the tests and the benchmark.

All of them are one- or two-object structures small enough for exhaustive
checks, built from cyclic tables or tiny hand-written monoids.
"""

from __future__ import annotations

from .algebra import CrossedMonoid, FiniteCategory, FiniteMonoid


def cyclic_monoid(n: int) -> FiniteMonoid:
    """Additive cyclic monoid Z/n with unit 0."""
    return FiniteMonoid(n, 0, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def trivial_monoid() -> FiniteMonoid:
    return FiniteMonoid(1, 0, ((0,),))


def idempotent_pair_monoid() -> FiniteMonoid:
    """{e, a} with a*a = a: a monoid that is not a group, not cancellative."""
    return FiniteMonoid(2, 0, ((0, 1), (1, 1)))


def one_object_category(mul: FiniteMonoid) -> FiniteCategory:
    """A monoid viewed as a category with a single object."""
    n = mul.size
    return FiniteCategory(
        num_objects=1,
        src=(0,) * n,
        tgt=(0,) * n,
        identity=(mul.unit,),
        compose_table=mul.table,
    )


def one_object_crossed_monoid(
    endo: FiniteMonoid,
    fiber: FiniteMonoid,
    action=None,
    boundary=None,
) -> CrossedMonoid:
    """Assemble a one-object crossed monoid.

    ``action`` maps morphism id -> total table on the fiber (identity tables
    by default); ``boundary`` maps fiber element -> morphism id (constantly
    the identity by default).
    """
    cat = one_object_category(endo)
    if action is None:
        action = [tuple(fiber.elements())] * endo.size
    if boundary is None:
        boundary = [tuple([endo.unit] * fiber.size)]
    else:
        boundary = [tuple(boundary)]
    return CrossedMonoid(cat=cat, fibers=(fiber,), action=tuple(tuple(r) for r in action), boundary=tuple(boundary))


def trivial_point() -> CrossedMonoid:
    """One object, one morphism, trivial fiber."""
    return one_object_crossed_monoid(trivial_monoid(), trivial_monoid())


def group_z2() -> CrossedMonoid:
    """Z/2 as a one-object groupoid with trivial fiber (a classifying space)."""
    return one_object_crossed_monoid(cyclic_monoid(2), trivial_monoid())


def z3_fiber_only() -> CrossedMonoid:
    """Trivial category with fiber Z/3 and trivial boundary."""
    return one_object_crossed_monoid(trivial_monoid(), cyclic_monoid(3))


def z2_with_z3_fiber() -> CrossedMonoid:
    """Z/2 category, fiber Z/3, trivial action and boundary."""
    return one_object_crossed_monoid(cyclic_monoid(2), cyclic_monoid(3))


def z2_with_z3_fiber_twisted() -> CrossedMonoid:
    """Z/2 category, fiber Z/3, the non-identity morphism negates the fiber."""
    return one_object_crossed_monoid(
        cyclic_monoid(2),
        cyclic_monoid(3),
        action=[(0, 1, 2), (0, 2, 1)],
    )


def idempotent_fiber() -> CrossedMonoid:
    """Trivial category over the non-cancellative monoid {e, a}."""
    return one_object_crossed_monoid(trivial_monoid(), idempotent_pair_monoid())


def broken_exchange() -> CrossedMonoid:
    """Z/2 category, fiber Z/4 negated by g, boundary k -> g^(k mod 2).

    A deliberately invalid structure: the exchange rule cr3 fails at
    a = b = 1.  Useful for exercising the validator.
    """
    return one_object_crossed_monoid(
        cyclic_monoid(2),
        cyclic_monoid(4),
        action=[(0, 1, 2, 3), (0, 3, 2, 1)],
        boundary=(0, 1, 0, 1),
    )


def z3_identity_boundary() -> CrossedMonoid:
    """Z/3 one-object groupoid, fiber Z/3, boundary the identity map."""
    return one_object_crossed_monoid(
        cyclic_monoid(3),
        cyclic_monoid(3),
        boundary=(0, 1, 2),
    )


def idempotent_endo_category() -> CrossedMonoid:
    """One object whose morphism monoid {1, z}, z*z = z, is not a group."""
    return one_object_crossed_monoid(idempotent_pair_monoid(), trivial_monoid())


def pair_groupoid_z3() -> CrossedMonoid:
    """Two isomorphic objects with Z/3 fibers carried across the isomorphism.

    Morphisms: 0 = id of object 0, 1 = id of object 1, 2: 0 -> 1, 3: 1 -> 0.
    """
    n = None
    cat = FiniteCategory(
        num_objects=2,
        src=(0, 1, 0, 1),
        tgt=(0, 1, 1, 0),
        identity=(0, 1),
        compose_table=(
            (0, n, n, 3),
            (n, 1, 2, n),
            (2, n, n, 1),
            (n, 3, 0, n),
        ),
    )
    z3 = cyclic_monoid(3)
    ident = tuple(z3.elements())
    return CrossedMonoid(
        cat=cat,
        fibers=(z3, z3),
        action=(ident, ident, ident, ident),
        boundary=((0, 0, 0), (1, 1, 1)),
    )


def empty_crossed_monoid() -> CrossedMonoid:
    return CrossedMonoid(
        cat=FiniteCategory(0, (), (), (), ()),
        fibers=(),
        action=(),
        boundary=(),
    )


def disjoint_union(a: CrossedMonoid, b: CrossedMonoid) -> CrossedMonoid:
    """Side-by-side union with ids of ``b`` shifted past those of ``a``."""
    oa, ma = a.cat.num_objects, a.cat.num_morphisms
    src = a.cat.src + tuple(s + oa for s in b.cat.src)
    tgt = a.cat.tgt + tuple(t + oa for t in b.cat.tgt)
    identity = a.cat.identity + tuple(i + ma for i in b.cat.identity)
    total = ma + b.cat.num_morphisms
    table = []
    for i in range(total):
        row = []
        for j in range(total):
            if i < ma and j < ma:
                row.append(a.cat.compose_table[i][j])
            elif i >= ma and j >= ma:
                v = b.cat.compose_table[i - ma][j - ma]
                row.append(None if v is None else v + ma)
            else:
                row.append(None)
        table.append(tuple(row))
    cat = FiniteCategory(oa + b.cat.num_objects, src, tgt, identity, tuple(table))
    boundary = a.boundary + tuple(tuple(v + ma for v in row) for row in b.boundary)
    return CrossedMonoid(
        cat=cat,
        fibers=a.fibers + b.fibers,
        action=a.action + b.action,
        boundary=boundary,
    )
