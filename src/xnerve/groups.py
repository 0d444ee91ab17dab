"""Finite groups as labelled multiplication tables, plus isomorphism search
depth first over the images of greedy generators, which finds the
lexicographically first isomorphism (why: ``find_isomorphism``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import first_nonassociative, generating_set
from .errors import XNerveError


@dataclass(frozen=True)
class GroupPresentation:
    """A finite group given by its table; verify() enforces the axioms."""

    labels: tuple[str, ...]
    unit: int
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.labels)

    def verify(self) -> None:
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise XNerveError("group table is not square")
        if any(not 0 <= v < n for r in self.table for v in r):
            raise XNerveError("group table entry out of range")
        t = self.table
        for a in range(n):
            if t[self.unit][a] != a or t[a][self.unit] != a:
                raise XNerveError(f"unit not neutral on {a}")
        bad = first_nonassociative(t, generating_set(t))
        if bad is not None:
            raise XNerveError("not associative at ({},{},{})".format(*bad))
        for a in range(n):
            if all(t[a][b] != self.unit or t[b][a] != self.unit for b in range(n)):
                raise XNerveError(f"element {a} has no inverse")

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a + 1, self.order))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        def order(a: int) -> int:
            x, k = a, 1
            while x != self.unit:
                x, k = self.table[x][a], k + 1
            return k
        return tuple(map(order, range(self.order)))

    @cached_property
    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_orders))

    def structure_tag(self) -> str:
        """Cosmetic name guessed from the order profile; never asserted on."""
        n = self.order
        if n == 1:
            return "trivial"
        if n in self.order_profile:
            return f"cyclic of order {n}"
        if self.is_abelian:
            return f"abelian of order {n}"
        return f"group of order {n}"


def find_isomorphism(g: GroupPresentation, h: GroupPresentation) -> tuple[int, ...] | None:
    """The table-preserving bijection g -> h with the lexicographically first
    images ``(f(0), ..., f(n-1))``, or None.

    Depth first over the images of g's greedy generators
    (``algebra.generating_set``), each among the elements of h of its order,
    ascending.  Each element below a greedy generator lies in the subgroup the
    generators before it make, so two maps first differ at a generator: the
    first map found is the lexicographically first.
    """
    n = g.order
    if n != h.order or g.order_profile != h.order_profile:
        return None
    gens = generating_set(g.table)

    def search(images: list[int]) -> tuple[int, ...] | None:
        """The first isomorphism sending gens[k] to images[k] for k < len(images), or None."""
        f: list = [None] * n
        f[g.unit], hit, todo = h.unit, {h.unit}, [g.unit]
        while todo:  # spread from the unit along right products by the chosen generators
            a = todo.pop()
            for x, c in zip(gens, images):
                b, v = g.table[a][x], h.table[f[a]][c]
                if f[b] is None and v not in hit:
                    f[b] = v
                    hit.add(v)
                    todo.append(b)
                elif f[b] != v:  # a product on two images, or two elements on one
                    return None
        if len(images) == len(gens):
            ok = all(h.table[f[a]][f[b]] == f[g.table[a][b]] for a in range(n) for b in range(n))
            return tuple(f) if ok else None
        order = g.element_orders[gens[len(images)]]
        for c in range(n):
            if h.element_orders[c] == order and (iso := search(images + [c])) is not None:
                return iso
        return None

    return search([])


def subgroup_presentation(labels: list[str], elements: list[int], mul, unit: int) -> GroupPresentation:
    """Table for a subset closed under ``mul``; raises if it is not closed."""
    index = {e: i for i, e in enumerate(elements)}
    if unit not in index:
        raise XNerveError("unit missing from the subset")
    table = []
    for a in elements:
        row = tuple(index.get(mul(a, b)) for b in elements)
        if None in row:
            raise XNerveError(f"subset not closed: {a}*{elements[row.index(None)]} escapes")
        table.append(row)
    return GroupPresentation(labels=tuple(labels), unit=index[unit], table=tuple(table))
