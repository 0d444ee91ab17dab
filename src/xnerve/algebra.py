"""Finite table-driven algebra: monoids, categories, crossed monoids.

Everything uses dense integer ids (objects 0..o-1, morphisms 0..m-1, fiber
elements 0..k-1 per object) and explicit lookup tables, so iteration order
and reported witnesses are deterministic.  Constructors enforce table shape
(totality, id ranges) and raise StructureError; the equational axioms are
checked by the validator, which returns a report instead of raising.

Composition convention: the product ``a*b`` of morphisms requires
``src(a) == tgt(b)`` and has ``src(a*b) == src(b)``, ``tgt(a*b) == tgt(a)``.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import eq, itemgetter
from typing import Iterable

from .errors import NotComposableError, NotCrossedModuleError, StructureError

Table = tuple[tuple[int, ...], ...]


def _int(v, where: str) -> int:
    """``int(v)``, refused with StructureError when that fails or changes the
    value: 1.0 and True convert, 1.9 and "1" are refused, nothing rounds."""
    try:
        if (i := int(v)) == v:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise StructureError(f"{where} = {v!r} is not an integer")


def _tuple(v, where: str) -> tuple:
    """``v`` as a tuple, refused with StructureError when it is no sequence."""
    try:
        return v if type(v) is tuple else tuple(v)
    except TypeError:
        raise StructureError(f"{where} = {v!r} is not a list") from None


def _row(row, where: str, blank: bool = False) -> tuple:
    """``row`` as a tuple of ints, or of ints and None with ``blank``: kept
    when it holds only those, else entry c converted by ``_int`` as where[c]."""
    row = _tuple(row, where)
    if set(map(type, row)) <= ({int, type(None)} if blank else {int}):
        return row
    return tuple(None if blank and v is None else _int(v, f"{where}[{c}]") for c, v in enumerate(row))


def _table(rows, where: str, blank: bool = False) -> tuple:
    """``rows`` as a tuple of ``_row``s, row r named where[r]."""
    return tuple(_row(row, f"{where}[{r}]", blank) for r, row in enumerate(_tuple(rows, where)))


def gather(idx):
    """``itemgetter(*idx)``, which returns a tuple for 0 or 1 indices as well."""
    return itemgetter(*idx) if len(idx) > 1 else lambda row: tuple([row[i] for i in idx])


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
        pick_c = tuple if len(cs) == len(row_g) else gather(cs)  # a total row needs no gather
        pick_gc = gather([row_g[c] for c in cs])
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
        return next((v for v in self.violations if v.axiom == axiom), None)


@dataclass(frozen=True)
class FiniteMonoid:
    """Monoid on {0..size-1} given by a total multiplication table."""

    size: int
    unit: int
    table: Table

    def __post_init__(self):
        object.__setattr__(self, "size", _int(self.size, "monoid size"))
        object.__setattr__(self, "unit", _int(self.unit, "monoid unit"))
        object.__setattr__(self, "table", _table(self.table, "mul"))
        if self.size <= 0:
            raise StructureError("monoid needs at least one element")
        if not 0 <= self.unit < self.size:
            raise StructureError(f"monoid unit {self.unit} out of range 0..{self.size - 1}")
        if len(self.table) != self.size:
            raise StructureError(f"mul table has {len(self.table)} rows, expected {self.size}")
        for a, row in enumerate(self.table):  # a whole row at once; the entry loop names its first bad entry
            if len(row) != self.size:
                raise StructureError(f"mul row {a} has {len(row)} entries, expected {self.size}")
            for b, v in enumerate(row) if not 0 <= min(row) <= max(row) < self.size else ():
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
        t, e = self.table, self.unit  # the candidates b of a, ascending, are the b with a*b == e
        return tuple(next((b for b in compress(self.elements(), map(eq, t[a], repeat(e))) if t[b][a] == e), None)
                     for a in self.elements())


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
        object.__setattr__(self, "num_objects", _int(self.num_objects, "object count"))
        for name in ("src", "tgt", "identity"):
            object.__setattr__(self, name, _row(getattr(self, name), name))
        object.__setattr__(self, "compose_table", _table(self.compose_table, "compose", True))
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
        into = [[t == x for t in self.tgt] for x in self.objects()]  # b with tgt(b) == x, by x
        for a, row in enumerate(self.compose_table):
            if len(row) != m:
                raise StructureError(f"compose row {a} has {len(row)} entries, expected {m}")
            defined = list(compress(row, into[self.src[a]]))  # the whole row: ids where composable, else None
            good = None not in defined and row.count(None) == m - len(defined) and \
                0 <= min(defined, default=0) and max(defined, default=0) < m
            for b, v in () if good else enumerate(row):
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
        comp, ident = self.compose_table, self.identity  # the b with a*b == 1_t, ascending, end in s
        return tuple(next((b for b in compress(self.morphisms(), map(eq, comp[a], repeat(ident[t])))
                           if self.src[b] == t and comp[b][a] == ident[s]), None)
                     for a, s, t in zip(self.morphisms(), self.src, self.tgt))


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
        object.__setattr__(self, "action", _table(self.action, "action"))
        object.__setattr__(self, "boundary", _table(self.boundary, "boundary"))
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
            for a, v in enumerate(row) if row and not 0 <= min(row) <= max(row) < cod else ():
                if not 0 <= v < cod:
                    raise StructureError(f"action[{m}][{a}] = {v} out of range")
        if len(self.boundary) != cat.num_objects:
            raise StructureError("need exactly one boundary row per object")
        for x, row in enumerate(self.boundary):
            if len(row) != self.fibers[x].size:
                raise StructureError(f"boundary[{x}] has {len(row)} entries, expected {self.fibers[x].size}")
            for a, v in enumerate(row) if row and not 0 <= min(row) <= max(row) < cat.num_morphisms else ():
                if not 0 <= v < cat.num_morphisms:
                    raise StructureError(f"boundary[{x}][{a}] = {v} is not a morphism id")

    @cached_property
    def classification(self) -> "Classification":
        """``classify_structure(self)``, computed once."""
        return classify_structure(self)


def _report(rows: Iterable[tuple[str, tuple[tuple, str] | None]]) -> ValidationReport:
    """The first hit of each rule, in the order the rows find them.

    ``rows`` are ``(rule, hit)`` pairs in report order, where ``hit`` is
    ``next(scan, None)`` of an ascending scan of ``(witness, detail)``
    pairs.  A rule may have several rows (one per fiber, say); its witness
    is the first hit among them.
    """
    found: dict[str, Violation] = {}
    for rule, hit in rows:
        if hit is not None and rule not in found:
            found[rule] = Violation(rule, *hit)
    return ValidationReport(tuple(found.values()))


def validate_crossed_monoid(xm: CrossedMonoid) -> ValidationReport:
    """Decide every axiom; table shapes were enforced at construction.

    Rule ids, in report order: mon.unit and mon.assoc (fiber by fiber),
    cat.id, cat.assoc, cat.endpoints (composites have the right source and
    target), act.id, act.comp, act.hom, cr1 (boundary typing, unit and
    multiplicativity), cr2 (equivariance), cr3 (the exchange rule
    ab = b * a^d(b)).  The witness of a rule is the first failing instance
    in ascending id order, so runs are reproducible.  An instance that runs
    past a table, because a boundary or a composite has the wrong
    endpoints, fails its rule.

    Seven rules are decided on generators where the rules that the closure
    of their passing set needs hold; otherwise, and to locate a witness,
    the ascending scan over every instance runs.  mon.assoc: Light's test;
    cat.assoc: no cat.endpoints hit; act.comp: neither; act.hom: no
    mon.assoc hit.  On fiber x, cr1's multiplicativity: every boundary of x
    an endomorphism of x, no mon.assoc hit on x, no cat.endpoints or
    cat.assoc hit (d(a(bc)) = d(ab)d(c) = d(a)d(b)d(c) = d(a)d(bc)); cr3:
    no mon.assoc or cr1 hit on x, no act.comp hit (a(bc) = b a^d(b) c =
    bc a^(d(b)d(c)) = bc a^d(bc)).  cr2 on the generators of the fiber each
    morphism m acts on: no cat.endpoints, cat.assoc, act.hom or cr1 hit
    (m d((aa')^m) = m d(a^m) d(a'^m) = d(a) m d(a'^m) = d(aa') m).  With
    one object the cat.endpoints scan, which cannot fail, is skipped.
    """
    cat, fibers, act, bd = xm.cat, xm.fibers, xm.action, xm.boundary
    comp, src, tgt, ident = cat.compose_table, cat.src, cat.tgt, cat.identity
    mors = cat.morphisms()
    nonassoc = [first_nonassociative(f.table, f.generators) for f in fibers]
    endpoints = None if cat.num_objects < 2 else next(((a, b) for a in mors for b, v in enumerate(comp[a])
                                                       if v is not None and (src[v] != src[b] or tgt[v] != tgt[a])), None)
    cat_nonassoc = first_nonassociative(comp, cat.generators if endpoints is None else None)
    cat_holds = endpoints is None and cat_nonassoc is None
    # With an associative category and well-typed composites, the b for
    # which act(a*b) == act(b) o act(a) holds for every a are closed under
    # composition, so the category generators decide the rule.
    comp_hit = None if cat_holds and all(
        act[v] == pick(act[b])
        for a, pick in zip(mors, map(gather, act)) for b in cat.generators if (v := comp[a][b]) is not None) else next(
        (((a, b, m), "action not functorial on a composite")
         for a in mors for b, v in enumerate(comp[a]) if v is not None
         for m in fibers[tgt[a]].elements()
         # a composite with wrong endpoints may not act on m at all
         if m >= len(act[v]) or act[v][m] != act[b][act[a][m]]), None)
    # With associative fibers, the b for which f(a*b) == f(a)*f(b) holds for
    # every a are closed under products, so the fiber generators decide it.
    columns = None if any(nonassoc) else [tuple(zip(*f.table)) for f in fibers]

    def act_hom():
        for m in mors:
            ft, fs, row = fibers[tgt[m]], fibers[src[m]], act[m]
            if row[ft.unit] != fs.unit:
                yield (m, ft.unit), "action does not preserve the unit"
            if columns is not None:
                cols_t, cols_s, pick = columns[tgt[m]], columns[src[m]], itemgetter(*row)
                if all(itemgetter(*cols_t[b])(row) == pick(cols_s[row[b]]) for b in ft.generators):
                    continue
            yield from (((m, a, b), "action not multiplicative") for a in ft.elements() for b in ft.elements()
                        if row[ft.table[a][b]] != fs.table[row[a]][row[b]])

    def cr1(x, f):
        d, t, elements = bd[x], f.table, f.elements()
        yield from (((x, a), f"boundary of {a} is not an endomorphism of {x}")
                    for a in elements if src[d[a]] != x or tgt[d[a]] != x)
        if d[f.unit] != ident[x]:
            yield (x, f.unit), "boundary of the unit is not the identity"
        decided = nonassoc[x] is None and cat_holds and all(
            d[t[a][b]] == comp[d[a]][d[b]] for b in f.generators for a in elements)
        yield from (((x, a, b), "boundary not multiplicative") for a in (() if decided else elements)
                    for b in elements if d[t[a][b]] != comp[d[a]][d[b]])

    def cr2():
        for m in mors:
            ds, dt, row, cm, ft = bd[src[m]], bd[tgt[m]], act[m], comp[m], fibers[tgt[m]]
            if not (cr2_gate and all(cm[ds[row[a]]] == comp[dt[a]][m] for a in ft.generators)):
                yield from (((m, a), "equivariance fails") for a in ft.elements()
                            if (lhs := cm[ds[row[a]]]) is None or lhs != comp[dt[a]][m])

    def cr3(x, f):
        t, d, elements = f.table, bd[x], f.elements()
        decided = nonassoc[x] is None and cr1_hits[x] is None and comp_hit is None and all(
            t[a][b] == t[b][act[d[b]][a]] for b in f.generators for a in elements)
        for a in () if decided else elements:
            for b, e in enumerate(d):
                if a >= len(act[e]) or act[e][a] >= f.size:
                    # d(b) is not an endomorphism of x (see cr1), and a^d(b) is undefined
                    yield (x, a, b), f"exchange rule undefined: {e} does not act on fiber {x}"
                elif t[a][b] != t[b][act[e][a]]:
                    yield (x, a, b), f"exchange rule fails: {t[a][b]} != {t[b][act[e][a]]}"

    act_hom_hit = next(act_hom(), None)
    cr1_hits = [next(cr1(x, f), None) for x, f in enumerate(fibers)]
    cr2_gate = cat_holds and act_hom_hit is None and not any(cr1_hits)
    return _report([
        *[row for x, f in enumerate(fibers) for row in (
            ("mon.unit", next((((x, a), f"unit not neutral on {a} in fiber {x}") for a in f.elements()
                               if f.table[f.unit][a] != a or f.table[a][f.unit] != a), None)),
            ("mon.assoc", nonassoc[x] and ((x, *nonassoc[x]), "fiber multiplication not associative")),
        )],
        ("cat.id", next((((a,), "identity morphism not neutral") for a in mors
                         if comp[ident[tgt[a]]][a] != a or comp[a][ident[src[a]]] != a), None)),
        ("cat.assoc", cat_nonassoc and (cat_nonassoc, "composition not associative")),
        ("cat.endpoints", endpoints and (endpoints, "composite has wrong endpoints")),
        ("act.id", next((((x, a), "identity morphism must act trivially") for x in cat.objects()
                         for a in fibers[x].elements() if act[ident[x]][a] != a), None)),
        ("act.comp", comp_hit),
        ("act.hom", act_hom_hit),
        *[("cr1", hit) for hit in cr1_hits],
        ("cr2", next(cr2(), None)),
        *[("cr3", next(cr3(x, f), None)) for x, f in enumerate(fibers)],
    ])


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

    Assumes the crossed monoid already validated.  A flag holds when its
    scan finds no counterexample; the witness of a failed flag is the first
    counterexample in ascending id order.
    """
    fibers = xm.fibers
    witnesses = {
        "category_is_groupoid": next(((m,) for m, inv in enumerate(xm.cat.morphism_inverse) if inv is None), None),
        "fibers_are_groups": next(((x, a) for x, f in enumerate(fibers)
                                   for a, inv in enumerate(f.inverse) if inv is None), None),
        # c is cancellable on both sides unless its row or its column repeats
        "fibers_cancellative": next(
            ((x, c, a, b) for x, f in enumerate(fibers)
             for c, (row, col) in enumerate(zip(f.table, zip(*f.table)))
             if len(set(row)) < f.size or len(set(col)) < f.size
             for a in f.elements() for b in range(a + 1, f.size) if row[a] == row[b] or col[a] == col[b]), None),
        "action_injective": next(((m, row.index(v), a) for m, row in enumerate(xm.action)
                                  if len(set(row)) < len(row) for a, v in enumerate(row) if row.index(v) < a),
                                 None),
    }
    return Classification(  # the four flags, in field order
        *(w is None for w in witnesses.values()),
        witnesses=tuple((name, w) for name, w in witnesses.items() if w is not None),
    )
