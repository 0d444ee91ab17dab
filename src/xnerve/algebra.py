"""Finite table-driven algebra: monoids, categories, crossed monoids.

Everything uses dense integer ids (objects 0..o-1, morphisms 0..m-1, fiber
elements 0..k-1 per object) and explicit lookup tables, so iteration order
and reported witnesses are deterministic.  Constructors enforce table shape
(totality, id ranges) and raise StructureError; the equational axioms are
checked by the validators, which return reports instead of raising.

Composition convention: the product ``a*b`` of morphisms requires
``src(a) == tgt(b)`` and has ``src(a*b) == src(b)``, ``tgt(a*b) == tgt(a)``.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .errors import NotComposableError, NotCrossedModuleError, StructureError

Table = tuple[tuple[int, ...], ...]


def _as_table(rows) -> Table:
    return tuple(tuple(int(v) for v in row) for row in rows)


def generating_set(table) -> tuple[int, ...]:
    """Greedy generators of a (partial) multiplication table.

    Takes the smallest id not yet reached as a left-bracketed product
    ``((g1*g2)*...)*gk`` of the generators taken so far; undefined products
    (None) are skipped.  Each (element, generator) product is formed once,
    so this costs O(n*|G|).
    """
    reached = [False] * len(table)
    found: list[int] = []
    gens: list[int] = []
    for x in range(len(table)):
        if reached[x]:
            continue
        gens.append(x)
        todo = [x] + [table[y][x] for y in found]
        while todo:
            z = todo.pop()
            if z is None or reached[z]:
                continue
            reached[z] = True
            found.append(z)
            row = table[z]
            todo.extend(row[g] for g in gens)
    return tuple(gens)


def _assoc_on_generators(table, gens) -> bool:
    """Light's test: ``(a*g)*c == a*(g*c)`` for every generator g.

    The middle elements for which the law holds are closed under products,
    so checking the generators decides associativity of the whole table.
    With partial products this needs composites to have the right endpoints
    (``cat.endpoints``).  Every comparison made is one instance of the law,
    so a False is always a real failure.
    """
    for g in gens:
        row_g = table[g]
        cs = [c for c, gc in enumerate(row_g) if gc is not None]
        pick_c = itemgetter(*cs)
        pick_gc = itemgetter(*[row_g[c] for c in cs])
        for row_a in table:
            ag = row_a[g]
            if ag is not None and pick_c(table[ag]) != pick_gc(row_a):
                return False
    return True


def first_nonassociative(table, gens: tuple[int, ...] | None = None) -> tuple[int, int, int] | None:
    """First ``(a, b, c)`` in ascending order with ``(a*b)*c != a*(b*c)``,
    over the triples whose inner products are defined; None if there is none.

    With ``gens`` (a generating set that Light's test may rely on) the
    answer is decided in O(n^2*|G|), and the O(n^3) scan runs only to locate
    the witness of a failure.
    """
    if gens is not None and _assoc_on_generators(table, gens):
        return None
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            if ab is None:
                continue
            row_ab = table[ab]
            for c, bc in enumerate(table[b]):
                if bc is not None and row_ab[c] != row_a[bc]:
                    return a, b, c
    return None


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: rule id plus the smallest witness found."""

    axiom: str
    witness: tuple
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def axioms(self) -> tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)

    def find(self, axiom: str) -> Violation | None:
        for v in self.violations:
            if v.axiom == axiom:
                return v
        return None


@dataclass(frozen=True)
class FiniteMonoid:
    """Monoid on {0..size-1} given by a total multiplication table."""

    size: int
    unit: int
    table: Table

    def __post_init__(self):
        object.__setattr__(self, "table", _as_table(self.table))
        if self.size <= 0:
            raise StructureError("monoid needs at least one element")
        if not 0 <= self.unit < self.size:
            raise StructureError(f"monoid unit {self.unit} out of range 0..{self.size - 1}")
        if len(self.table) != self.size:
            raise StructureError(f"mul table has {len(self.table)} rows, expected {self.size}")
        for a, row in enumerate(self.table):
            if len(row) != self.size:
                raise StructureError(f"mul row {a} has {len(row)} entries, expected {self.size}")
            for b, v in enumerate(row):
                if not 0 <= v < self.size:
                    raise StructureError(f"mul[{a}][{b}] = {v} out of range")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, items: Iterable[int]) -> int:
        """Left-to-right product; the empty product is the unit."""
        acc = self.unit
        for x in items:
            acc = self.table[acc][x]
        return acc

    def elements(self) -> range:
        return range(self.size)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return generating_set(self.table)

    @cached_property
    def inverse(self) -> tuple[int | None, ...]:
        """Two-sided inverse per element, None where there is none."""
        out: list[int | None] = []
        for a in range(self.size):
            inv = None
            for b in range(self.size):
                if self.table[a][b] == self.unit and self.table[b][a] == self.unit:
                    inv = b
                    break
            out.append(inv)
        return tuple(out)


@dataclass(frozen=True)
class FiniteCategory:
    """Small category with objects 0..num_objects-1 and a partial compose table.

    ``compose_table[a][b]`` holds ``a*b`` exactly when ``src[a] == tgt[b]``
    and None otherwise; the constructor enforces that shape.
    """

    num_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identity: tuple[int, ...]
    compose_table: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "src", tuple(int(v) for v in self.src))
        object.__setattr__(self, "tgt", tuple(int(v) for v in self.tgt))
        object.__setattr__(self, "identity", tuple(int(v) for v in self.identity))
        object.__setattr__(
            self,
            "compose_table",
            tuple(tuple(None if v is None else int(v) for v in row) for row in self.compose_table),
        )
        if self.num_objects < 0:
            raise StructureError("negative object count")
        m = len(self.src)
        if len(self.tgt) != m:
            raise StructureError("src/tgt length mismatch")
        for i, (s, t) in enumerate(zip(self.src, self.tgt)):
            if not 0 <= s < self.num_objects or not 0 <= t < self.num_objects:
                raise StructureError(f"morphism {i} has endpoint out of range")
        if len(self.identity) != self.num_objects:
            raise StructureError("identity table must cover every object")
        for x, e in enumerate(self.identity):
            if not 0 <= e < m:
                raise StructureError(f"identity[{x}] = {e} is not a morphism id")
            if self.src[e] != x or self.tgt[e] != x:
                raise StructureError(f"identity[{x}] = {e} has endpoints {self.src[e]}->{self.tgt[e]}")
        if len(self.compose_table) != m:
            raise StructureError("compose table must have one row per morphism")
        for a, row in enumerate(self.compose_table):
            if len(row) != m:
                raise StructureError(f"compose row {a} has {len(row)} entries, expected {m}")
            for b, v in enumerate(row):
                composable = self.src[a] == self.tgt[b]
                if composable and v is None:
                    raise StructureError(f"compose({a},{b}) missing although endpoints match")
                if not composable and v is not None:
                    raise StructureError(f"compose({a},{b}) defined although endpoints differ")
                if v is not None and not 0 <= v < m:
                    raise StructureError(f"compose({a},{b}) = {v} out of range")

    @property
    def num_morphisms(self) -> int:
        return len(self.src)

    def objects(self) -> range:
        return range(self.num_objects)

    def morphisms(self) -> range:
        return range(self.num_morphisms)

    def compose(self, a: int, b: int) -> int:
        """Product a*b; requires src(a) == tgt(b)."""
        v = self.compose_table[a][b]
        if v is None:
            raise NotComposableError(
                f"cannot compose {a} ({self.src[a]}->{self.tgt[a]}) with {b} ({self.src[b]}->{self.tgt[b]})"
            )
        return v

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return generating_set(self.compose_table)

    def hom(self, src_obj: int, tgt_obj: int) -> tuple[int, ...]:
        """Morphism ids with the given source and target, ascending."""
        return self._hom_table.get((src_obj, tgt_obj), ())

    @cached_property
    def _hom_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for i in range(self.num_morphisms):
            out.setdefault((self.src[i], self.tgt[i]), []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def morphism_inverse(self) -> tuple[int | None, ...]:
        """Two-sided inverse per morphism, None where there is none."""
        out: list[int | None] = []
        for a in range(self.num_morphisms):
            s, t = self.src[a], self.tgt[a]
            inv = None
            for b in self.hom(t, s):
                if self.compose_table[a][b] == self.identity[t] and self.compose_table[b][a] == self.identity[s]:
                    inv = b
                    break
            out.append(inv)
        return tuple(out)


@dataclass(frozen=True)
class CrossedMonoid:
    """A contravariant monoid of coefficients over a finite category.

    fibers[x] is the monoid sitting over object x; action[m] is the total map
    fibers[tgt(m)] -> fibers[src(m)] induced by morphism m; boundary[x] sends
    each element of fibers[x] to an endomorphism of x.
    """

    cat: FiniteCategory
    fibers: tuple[FiniteMonoid, ...]
    action: Table
    boundary: Table

    def __post_init__(self):
        object.__setattr__(self, "action", _as_table(self.action))
        object.__setattr__(self, "boundary", _as_table(self.boundary))
        cat = self.cat
        if len(self.fibers) != cat.num_objects:
            raise StructureError("need exactly one fiber monoid per object")
        if len(self.action) != cat.num_morphisms:
            raise StructureError("need exactly one action row per morphism")
        for m, row in enumerate(self.action):
            dom = self.fibers[cat.tgt[m]].size
            cod = self.fibers[cat.src[m]].size
            if len(row) != dom:
                raise StructureError(f"action[{m}] has {len(row)} entries, expected {dom}")
            for a, v in enumerate(row):
                if not 0 <= v < cod:
                    raise StructureError(f"action[{m}][{a}] = {v} out of range")
        if len(self.boundary) != cat.num_objects:
            raise StructureError("need exactly one boundary row per object")
        for x, row in enumerate(self.boundary):
            if len(row) != self.fibers[x].size:
                raise StructureError(f"boundary[{x}] has {len(row)} entries, expected {self.fibers[x].size}")
            for a, v in enumerate(row):
                if not 0 <= v < cat.num_morphisms:
                    raise StructureError(f"boundary[{x}][{a}] = {v} is not a morphism id")

    def act(self, m: int, a: int) -> int:
        """Image of fiber element a under the map induced by morphism m."""
        return self.action[m][a]

    @cached_property
    def classification(self) -> "Classification":
        """``classify_structure(self)``, computed once."""
        return classify_structure(self)


@dataclass(frozen=True)
class XMorphism:
    """Structure map between two crossed monoids: a functor plus fiber maps."""

    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    fiber_maps: Table

    def __post_init__(self):
        object.__setattr__(self, "obj_map", tuple(int(v) for v in self.obj_map))
        object.__setattr__(self, "mor_map", tuple(int(v) for v in self.mor_map))
        object.__setattr__(self, "fiber_maps", _as_table(self.fiber_maps))


def identity_xmorphism(xm: CrossedMonoid) -> XMorphism:
    return XMorphism(
        obj_map=tuple(xm.cat.objects()),
        mor_map=tuple(xm.cat.morphisms()),
        fiber_maps=tuple(tuple(f.elements()) for f in xm.fibers),
    )


class _Collector:
    """Gathers at most one (lexicographically first) witness per axiom id."""

    def __init__(self):
        self._seen: dict[str, Violation] = {}

    def hit(self, axiom: str, witness: tuple, detail: str = "") -> bool:
        """Record a violation; returns True if this axiom already had one."""
        if axiom in self._seen:
            return True
        self._seen[axiom] = Violation(axiom, witness, detail)
        return False

    def done(self, axiom: str) -> bool:
        return axiom in self._seen

    def report(self) -> ValidationReport:
        return ValidationReport(tuple(self._seen.values()))


def validate_crossed_monoid(xm: CrossedMonoid) -> ValidationReport:
    """Decide every axiom; table shapes were enforced at construction.

    Rule ids: mon.assoc, mon.unit, cat.assoc, cat.id, act.id, act.comp,
    act.hom, cr1 (boundary typing and multiplicativity), cr2 (equivariance),
    cr3 (the exchange rule ab = b * a^d(b)).  The first witness per rule is
    reported, scanning ids in ascending order, so runs are reproducible.  An
    instance that runs past a table, because a boundary or a composite has
    the wrong endpoints, fails its rule.

    The four cubic rules are decided over generating sets (Light's test,
    and its analogues for the action), each only once the rules it relies
    on are known to hold; otherwise, and to locate the witness of a
    failure, the ascending scan over every instance runs.
    """
    cat = xm.cat
    out = _Collector()

    for x, mon in enumerate(xm.fibers):
        t = mon.table
        for a in mon.elements():
            if t[mon.unit][a] != a or t[a][mon.unit] != a:
                out.hit("mon.unit", (x, a), f"unit not neutral on {a} in fiber {x}")
                break
        if not out.done("mon.assoc"):
            witness = first_nonassociative(t, mon.generators)
            if witness is not None:
                out.hit("mon.assoc", (x, *witness), "fiber multiplication not associative")

    comp = cat.compose_table
    bad_endpoints = next(
        ((a, b) for a in cat.morphisms() for b, v in enumerate(comp[a])
         if v is not None and (cat.src[v] != cat.src[b] or cat.tgt[v] != cat.tgt[a])),
        None,
    )
    for a in cat.morphisms():
        ta, sa = cat.identity[cat.tgt[a]], cat.identity[cat.src[a]]
        if comp[ta][a] != a or comp[a][sa] != a:
            out.hit("cat.id", (a,), "identity morphism not neutral")
            break
    witness = first_nonassociative(comp, cat.generators if bad_endpoints is None else None)
    if witness is not None:
        out.hit("cat.assoc", witness, "composition not associative")
    if bad_endpoints is not None:
        out.hit("cat.endpoints", bad_endpoints, "composite has wrong endpoints")

    act = xm.action
    for x in cat.objects():
        e = cat.identity[x]
        for a in xm.fibers[x].elements():
            if act[e][a] != a:
                out.hit("act.id", (x, a), "identity morphism must act trivially")
                break
        if out.done("act.id"):
            break
    # With an associative category and well-typed composites, the b for
    # which act(a*b) == act(b) o act(a) holds for every a are closed under
    # composition, so the category generators decide the rule.
    comp_gate = bad_endpoints is None and not out.done("cat.assoc") and all(
        act[v] == tuple(map(act[b].__getitem__, act[a]))
        for a in cat.morphisms()
        for b in cat.generators
        if (v := comp[a][b]) is not None
    )
    if not comp_gate:
        witness = next(
            ((a, b, m) for a in cat.morphisms() for b, v in enumerate(comp[a]) if v is not None
             for m in xm.fibers[cat.tgt[a]].elements()
             # a composite with wrong endpoints may not act on m at all
             if m >= len(act[v]) or act[v][m] != act[b][act[a][m]]),
            None,
        )
        if witness is not None:
            out.hit("act.comp", witness, "action not functorial on a composite")
    # With associative fibers, the b for which f(a*b) == f(a)*f(b) holds for
    # every a are closed under products, so the fiber generators decide it.
    hom_gate = not out.done("mon.assoc")
    columns = [tuple(zip(*f.table)) for f in xm.fibers] if hom_gate else None
    for m in cat.morphisms():
        fib_t = xm.fibers[cat.tgt[m]]
        fib_s = xm.fibers[cat.src[m]]
        row = act[m]
        if row[fib_t.unit] != fib_s.unit:
            out.hit("act.hom", (m, fib_t.unit), "action does not preserve the unit")
            break
        if hom_gate:
            cols_t, cols_s = columns[cat.tgt[m]], columns[cat.src[m]]
            pick = itemgetter(*row)
            if all(itemgetter(*cols_t[b])(row) == pick(cols_s[row[b]]) for b in fib_t.generators):
                continue
        witness = next(((a, b) for a in fib_t.elements() for b in fib_t.elements()
                        if row[fib_t.mul(a, b)] != fib_s.mul(row[a], row[b])), None)
        if witness is not None:
            out.hit("act.hom", (m, *witness), "action not multiplicative")
            break

    for x in cat.objects():
        mon = xm.fibers[x]
        drow = xm.boundary[x]
        one = cat.identity[x]
        for a in mon.elements():
            d = drow[a]
            if cat.src[d] != x or cat.tgt[d] != x:
                out.hit("cr1", (x, a), f"boundary of {a} is not an endomorphism of {x}")
                break
        if drow[mon.unit] != one and not out.done("cr1"):
            out.hit("cr1", (x, mon.unit), "boundary of the unit is not the identity")
        if not out.done("cr1"):
            stop = False
            for a in mon.elements():
                for b in mon.elements():
                    lhs = drow[mon.mul(a, b)]
                    rhs = comp[drow[a]][drow[b]]
                    if rhs is None or lhs != rhs:
                        out.hit("cr1", (x, a, b), "boundary not multiplicative")
                        stop = True
                        break
                if stop:
                    break
        if out.done("cr1"):
            break

    for m in cat.morphisms():
        s, t = cat.src[m], cat.tgt[m]
        dmrow_s = xm.boundary[s]
        dmrow_t = xm.boundary[t]
        stop = False
        for a in xm.fibers[t].elements():
            lhs = comp[m][dmrow_s[act[m][a]]]
            rhs = comp[dmrow_t[a]][m]
            if lhs is None or rhs is None or lhs != rhs:
                out.hit("cr2", (m, a), "equivariance fails")
                stop = True
                break
        if stop:
            break

    for x in cat.objects():
        mon = xm.fibers[x]
        drow = xm.boundary[x]
        stop = False
        for a in mon.elements():
            for b in mon.elements():
                row = act[drow[b]]
                if a >= len(row) or row[a] >= mon.size:
                    # d(b) is not an endomorphism of x (see cr1), and a^d(b) is undefined
                    out.hit("cr3", (x, a, b), f"exchange rule undefined: {drow[b]} does not act on fiber {x}")
                    stop = True
                    break
                if mon.mul(a, b) != mon.mul(b, row[a]):
                    lhs, rhs = mon.mul(a, b), mon.mul(b, row[a])
                    out.hit("cr3", (x, a, b), f"exchange rule fails: {lhs} != {rhs}")
                    stop = True
                    break
            if stop:
                break
        if stop:
            break

    return out.report()


@dataclass(frozen=True)
class Classification:
    """Structural flags computed by exhaustive table scans."""

    is_groupoid: bool
    fibers_are_groups: bool
    fibers_cancellative: bool
    action_injective: bool
    witnesses: tuple[tuple[str, tuple], ...] = ()

    @property
    def is_crossed_module(self) -> bool:
        return self.is_groupoid and self.fibers_are_groups

    def failed_module_hypothesis(self) -> tuple[str, tuple] | None:
        """First failing requirement for the constructive-filler operations."""
        order = (
            ("category_is_groupoid", self.is_groupoid),
            ("fibers_are_groups", self.fibers_are_groups),
            ("fibers_cancellative", self.fibers_cancellative),
            ("action_injective", self.action_injective),
        )
        found = dict(self.witnesses)
        for name, ok in order:
            if not ok:
                return name, found.get(name, ())
        return None

    def require_module(self) -> "Classification":
        """Raise NotCrossedModuleError naming the first failed hypothesis and
        its witness; returns ``self`` when the structure is a crossed
        module."""
        failed = self.failed_module_hypothesis()
        if failed is not None:
            raise NotCrossedModuleError(*failed)
        return self


def classify_structure(xm: CrossedMonoid) -> Classification:
    """Flags: groupoid? group fibers? cancellative fibers? injective action?

    Assumes the crossed monoid already validated.  Witnesses are the first
    counterexamples in ascending id order.
    """
    cat = xm.cat
    witnesses: list[tuple[str, tuple]] = []

    is_groupoid = True
    for m, inv in enumerate(cat.morphism_inverse):
        if inv is None:
            is_groupoid = False
            witnesses.append(("category_is_groupoid", (m,)))
            break

    fibers_are_groups = True
    for x, mon in enumerate(xm.fibers):
        bad = next((a for a, i in enumerate(mon.inverse) if i is None), None)
        if bad is not None:
            fibers_are_groups = False
            witnesses.append(("fibers_are_groups", (x, bad)))
            break

    fibers_cancellative = True
    for x, mon in enumerate(xm.fibers):
        t, n = mon.table, mon.size
        columns = tuple(zip(*t))
        c = next((c for c in range(n) if len(set(t[c])) < n or len(set(columns[c])) < n), None)
        if c is not None:
            a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                        if t[c][a] == t[c][b] or t[a][c] == t[b][c])
            fibers_cancellative = False
            witnesses.append(("fibers_cancellative", (x, c, a, b)))
            break

    action_injective = True
    for m in cat.morphisms():
        row = xm.action[m]
        seen: dict[int, int] = {}
        for a, v in enumerate(row):
            if v in seen:
                action_injective = False
                witnesses.append(("action_injective", (m, seen[v], a)))
                break
            seen[v] = a
        if not action_injective:
            break

    return Classification(
        is_groupoid=is_groupoid,
        fibers_are_groups=fibers_are_groups,
        fibers_cancellative=fibers_cancellative,
        action_injective=action_injective,
        witnesses=tuple(witnesses),
    )


def validate_xmorphism(src: CrossedMonoid, dst: CrossedMonoid, m: XMorphism) -> ValidationReport:
    """Check functoriality, fiber homomorphisms and both compatibility laws.

    Out-of-range object/morphism/element maps raise StructureError; genuine
    equation failures come back as violations (mor.functor, mor.hom, mor1,
    mor2).
    """
    scat, dcat = src.cat, dst.cat
    if len(m.obj_map) != scat.num_objects:
        raise StructureError("object map must cover every source object")
    if any(not 0 <= v < dcat.num_objects for v in m.obj_map):
        raise StructureError("object map value out of range")
    if len(m.mor_map) != scat.num_morphisms:
        raise StructureError("morphism map must cover every source morphism")
    if any(not 0 <= v < dcat.num_morphisms for v in m.mor_map):
        raise StructureError("morphism map value out of range")
    if len(m.fiber_maps) != scat.num_objects:
        raise StructureError("need one fiber map per source object")
    for x, row in enumerate(m.fiber_maps):
        if len(row) != src.fibers[x].size:
            raise StructureError(f"fiber map {x} has {len(row)} entries, expected {src.fibers[x].size}")
        limit = dst.fibers[m.obj_map[x]].size
        if any(not 0 <= v < limit for v in row):
            raise StructureError(f"fiber map {x} hits an element outside the target fiber")

    out = _Collector()
    F, f = m.mor_map, m.fiber_maps

    for a in scat.morphisms():
        if dcat.src[F[a]] != m.obj_map[scat.src[a]] or dcat.tgt[F[a]] != m.obj_map[scat.tgt[a]]:
            out.hit("mor.functor", (a,), "functor breaks endpoints")
            break
    for x in scat.objects():
        if F[scat.identity[x]] != dcat.identity[m.obj_map[x]]:
            out.hit("mor.functor", (x,), "functor breaks an identity")
            break
    for a in scat.morphisms():
        if out.done("mor.functor"):
            break
        for b in scat.morphisms():
            v = scat.compose_table[a][b]
            if v is None:
                continue
            if dcat.compose_table[F[a]][F[b]] != F[v]:
                out.hit("mor.functor", (a, b), "functor breaks a composite")
                break

    for x in scat.objects():
        mon_s = src.fibers[x]
        mon_d = dst.fibers[m.obj_map[x]]
        row = f[x]
        if row[mon_s.unit] != mon_d.unit:
            out.hit("mor.hom", (x, mon_s.unit), "fiber map breaks the unit")
        stop = False
        for a in mon_s.elements():
            for b in mon_s.elements():
                if row[mon_s.mul(a, b)] != mon_d.mul(row[a], row[b]):
                    out.hit("mor.hom", (x, a, b), "fiber map not multiplicative")
                    stop = True
                    break
            if stop:
                break
        if stop:
            break

    for a in scat.morphisms():
        s, t = scat.src[a], scat.tgt[a]
        stop = False
        for v in src.fibers[t].elements():
            if f[s][src.act(a, v)] != dst.act(F[a], f[t][v]):
                out.hit("mor1", (a, v), "fiber maps do not commute with the action")
                stop = True
                break
        if stop:
            break

    for x in scat.objects():
        stop = False
        for a in src.fibers[x].elements():
            if F[src.boundary[x][a]] != dst.boundary[m.obj_map[x]][f[x][a]]:
                out.hit("mor2", (x, a), "boundaries do not commute with the map")
                stop = True
                break
        if stop:
            break

    return out.report()
