"""Finite groups as labelled multiplication tables, plus isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import first_nonassociative, generating_set
from .errors import StructureError


@dataclass(frozen=True)
class GroupPresentation:
    """A finite group given by its table; verify() enforces the axioms."""

    labels: tuple[str, ...]
    unit: int
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def verify(self) -> None:
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise StructureError("group table is not square")
        if any(not 0 <= v < n for r in self.table for v in r):
            raise StructureError("group table entry out of range")
        t = self.table
        for a in range(n):
            if t[self.unit][a] != a or t[a][self.unit] != a:
                raise StructureError(f"unit not neutral on {a}")
        bad = first_nonassociative(t, generating_set(t))
        if bad is not None:
            raise StructureError("not associative at ({},{},{})".format(*bad))
        for a in range(n):
            if all(t[a][b] != self.unit or t[b][a] != self.unit for b in range(n)):
                raise StructureError(f"element {a} has no inverse")

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != self.unit:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(a) for a in range(self.order)))

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
    """A table-preserving bijection g -> h, or None.

    Backtracking over elements with candidates restricted by element order;
    fine for the small groups this package produces.
    """
    n = g.order
    if n != h.order or g.order_profile != h.order_profile:
        return None
    g_ord = [g.element_order(a) for a in range(n)]
    h_by_order: dict[int, list[int]] = {}
    for b in range(n):
        h_by_order.setdefault(h.element_order(b), []).append(b)

    mapping: list[int | None] = [None] * n
    used = [False] * n
    mapping[g.unit] = h.unit
    used[h.unit] = True

    def consistent(a: int) -> bool:
        fa = mapping[a]
        for b in range(n):
            fb = mapping[b]
            if fb is None:
                continue
            ab, ba = g.table[a][b], g.table[b][a]
            if mapping[ab] is not None and h.table[fa][fb] != mapping[ab]:
                return False
            if mapping[ba] is not None and h.table[fb][fa] != mapping[ba]:
                return False
        return True

    order_of_assignment = sorted(range(n), key=lambda a: (a != g.unit, a))

    def extend(pos: int) -> bool:
        if pos == n:
            return all(
                h.table[mapping[a]][mapping[b]] == mapping[g.table[a][b]]
                for a in range(n)
                for b in range(n)
            )
        a = order_of_assignment[pos]
        if mapping[a] is not None:
            return extend(pos + 1)
        for b in h_by_order.get(g_ord[a], ()):
            if used[b]:
                continue
            mapping[a] = b
            used[b] = True
            if consistent(a) and extend(pos + 1):
                return True
            mapping[a] = None
            used[b] = False
        return False

    if extend(0):
        return tuple(mapping)  # type: ignore[arg-type]
    return None


def subgroup_presentation(labels: list[str], elements: list[int], mul, unit: int) -> GroupPresentation:
    """Table for a subset closed under ``mul``; raises if it is not closed."""
    index = {e: i for i, e in enumerate(elements)}
    if unit not in index:
        raise StructureError("unit missing from the subset")
    table = []
    for a in elements:
        row = []
        for b in elements:
            v = mul(a, b)
            if v not in index:
                raise StructureError(f"subset not closed: {a}*{b} escapes")
            row.append(index[v])
        table.append(tuple(row))
    return GroupPresentation(labels=tuple(labels), unit=index[unit], table=tuple(table))
