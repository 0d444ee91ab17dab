import importlib.util
import itertools
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import XMorphism, identity_xmorphism
from xnerve import fixtures
from xnerve.algebra import (
    Classification,
    CrossedMonoid,
    FiniteCategory,
    FiniteMonoid,
    ValidationReport,
    Violation,
    classify_structure,
    generating_set,
    validate_crossed_monoid,
)
from xnerve.errors import NotComposableError, StructureError, XNerveError
from xnerve.groups import GroupPresentation

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_monoid_shape_errors():
    with pytest.raises(StructureError):
        FiniteMonoid(2, 0, ((0,), (1, 0)))  # ragged row
    with pytest.raises(StructureError):
        FiniteMonoid(2, 2, ((0, 1), (1, 0)))  # unit out of range
    with pytest.raises(StructureError):
        FiniteMonoid(2, 0, ((0, 1), (1, 9)))  # entry out of range


def test_category_rejects_partiality_mismatch():
    # compose defined although the endpoints differ
    with pytest.raises(StructureError):
        FiniteCategory(2, (0, 1), (0, 1), (0, 1), ((0, 0), (None, 1)))
    # compose missing although the endpoints match
    with pytest.raises(StructureError):
        FiniteCategory(1, (0,), (0,), (0,), ((None,),))


def test_rows_that_are_not_int_tuples_convert_through_int():
    # the whole-row checks keep int tuples as they are and convert every
    # other row entry by entry, bools and floats included, as before
    row = (0, 1)
    z2 = FiniteMonoid(2, 0, [row, [1.0, False]])
    assert z2.table == ((0, 1), (1, 0)) and z2.table[0] is row
    assert [type(v) for r in z2.table for v in r] == [int] * 4
    cat = FiniteCategory(1, [0.0], (False,), [0], [[0.0]])
    assert (cat.src, cat.tgt, cat.identity, cat.compose_table) == ((0,), (0,), (0,), ((0,),))
    assert {type(v) for t in (cat.src, cat.tgt, cat.compose_table[0]) for v in t} == {int}
    xm = CrossedMonoid(cat, (z2,), [[False, True]], [[0.0, 0]])
    assert (xm.action, xm.boundary) == (((0, 1),), ((0, 0),))
    assert {type(v) for t in (xm.action[0], xm.boundary[0]) for v in t} == {int}
    assert validate_crossed_monoid(xm).passed


def test_integral_sizes_and_units_convert_through_int():
    z2 = FiniteMonoid(2.0, False, ((0, 1), (1, 0)))
    assert (z2.size, z2.unit, z2.elements()) == (2, 0, range(2)) and type(z2.size) is int
    cat = FiniteCategory(1.0, (0,), (0,), (0,), ((0,),))
    assert cat.num_objects == 1 and cat.objects() == range(1)


@pytest.mark.parametrize("build, message", [
    (lambda: FiniteMonoid(2, 0, ((0, 1), (1,))), "mul row 1 has 1 entries, expected 2"),
    (lambda: FiniteMonoid(2, 0, ((0, 1), (5, 7))), "mul[1][0] = 5 out of range"),
    (lambda: FiniteMonoid(2, 0, ((0, 1), (1, -1))), "mul[1][1] = -1 out of range"),
    (lambda: FiniteMonoid(2, 0, [[0, 1], [True, 2.0]]), "mul[1][1] = 2 out of range"),
    # a value that int() fails on or changes is refused, not rounded
    (lambda: FiniteMonoid(2, 0, [[0, 1.9], [1, 0]]), "mul[0][1] = 1.9 is not an integer"),
    (lambda: FiniteMonoid(2, 0, [[0, "1"], [1, 0]]), "mul[0][1] = '1' is not an integer"),
    (lambda: FiniteMonoid(2, 0, [[0, 1], [1, float("nan")]]), "mul[1][1] = nan is not an integer"),
    (lambda: FiniteMonoid(2, 0.5, ((0, 1), (1, 0))), "monoid unit = 0.5 is not an integer"),
    (lambda: FiniteMonoid(2.5, 0, ((0, 1), (1, 0))), "monoid size = 2.5 is not an integer"),
    (lambda: FiniteCategory(1.5, (0,), (0,), (0,), ((0,),)), "object count = 1.5 is not an integer"),
    (lambda: FiniteCategory(1, ("0",), (0,), (0,), ((0,),)), "src[0] = '0' is not an integer"),
    (lambda: FiniteCategory(1, (0,), (0,), (0,), ((0.5,),)), "compose[0][0] = 0.5 is not an integer"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           ((0, 1, 2), (0, 2, 1.5)), ((0, 0, 0),)), "action[1][2] = 1.5 is not an integer"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           ((0, 1, 2), (0, 2, 1)), ((0, None, 0),)), "boundary[0][1] = None is not an integer"),
    # two objects, morphisms 0 and 1 their identities
    (lambda: FiniteCategory(2, (0, 1), (0, 1), (0, 1), ((0, None), (None,))),
     "compose row 1 has 1 entries, expected 2"),
    (lambda: FiniteCategory(2, (0, 1), (0, 1), (0, 1), ((0, None), (1, None))),
     "compose(1,0) defined although endpoints differ"),
    (lambda: FiniteCategory(2, (0, 1), (0, 1), (0, 1), ((None, 0), (None, 1))),
     "compose(0,0) missing although endpoints match"),
    (lambda: FiniteCategory(2, (0, 1), (0, 1), (0, 1), ((0, None), (None, 2))), "compose(1,1) = 2 out of range"),
    (lambda: FiniteCategory(1, (0,), (0,), (0,), ((None,),)), "compose(0,0) missing although endpoints match"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           ((0, 1, 2), (0, 3, 1)), ((0, 0, 0),)), "action[1][1] = 3 out of range"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           ((0, 1, 2), (0, 2, 1)), ((0, -1, 2),)), "boundary[0][1] = -1 is not a morphism id"),
    # a table, row or src/tgt that is no sequence is refused, not a TypeError
    (lambda: FiniteMonoid(2, 0, [5, 6]), "mul[0] = 5 is not a list"),
    (lambda: FiniteMonoid(2, 0, None), "mul = None is not a list"),
    (lambda: FiniteCategory(1, 0, (0,), (0,), ((0,),)), "src = 0 is not a list"),
    (lambda: FiniteCategory(1, (0,), (0,), (0,), None), "compose = None is not a list"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           None, ((0, 0, 0),)), "action = None is not a list"),
    (lambda: CrossedMonoid(fixtures.one_object_category(fixtures.cyclic_monoid(2)), (fixtures.cyclic_monoid(3),),
                           ((0, 1, 2), (0, 2, 1)), (5,)), "boundary[0] = 5 is not a list"),
])
def test_a_bad_row_names_its_first_bad_entry(build, message):
    with pytest.raises(StructureError) as err:
        build()
    assert str(err.value) == message


def test_validate_passes_on_good_fixtures(xm_z2_z3, xm_trivial, xm_z2_z3_twisted, xm_idempotent):
    for xm in (xm_z2_z3, xm_trivial, xm_z2_z3_twisted, xm_idempotent):
        report = validate_crossed_monoid(xm)
        assert report.passed, report.violations


def test_validate_is_deterministic(xm_z2_z3):
    a = validate_crossed_monoid(xm_z2_z3)
    b = validate_crossed_monoid(xm_z2_z3)
    assert a == b


def test_broken_exchange_fails_cr3_only():
    report = validate_crossed_monoid(fixtures.broken_exchange())
    assert not report.passed
    assert report.axioms() == ("cr3",)
    v = report.find("cr3")
    # first witness in (object, a, b) scan order: a=1, b=1 (1+1=2 but 1+(-1)=0)
    assert v.witness == (0, 1, 1)


def _sym3_monoid():
    """S3 as a composition table under 'apply right, then left'."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(a[b[i]] for i in range(3))] for b in perms)
        for a in perms
    )
    return FiniteMonoid(6, 0, table)


def test_noncentral_boundary_fails_cr2_only():
    # boundary lands in the 3-cycles of S3, action is trivial, so
    # equivariance demands a central image and fails; nothing else does.
    xm = fixtures.one_object_crossed_monoid(
        _sym3_monoid(),
        fixtures.cyclic_monoid(3),
        boundary=(0, 1, 2),
    )
    report = validate_crossed_monoid(xm)
    assert report.axioms() == ("cr2",)


def test_boundary_endpoint_mismatch_is_cr1():
    base = fixtures.pair_groupoid_z3()
    xm = CrossedMonoid(
        cat=base.cat,
        fibers=base.fibers,
        action=base.action,
        boundary=((0, 0, 1), base.boundary[1]),  # morphism 1 is not an endo of object 0
    )
    report = validate_crossed_monoid(xm)
    assert report.find("cr1") is not None
    assert report.find("cr1").witness == (0, 2)


def test_nonassociative_mul_is_axiom_violation_not_structural():
    weird = FiniteMonoid(3, 0, ((0, 1, 2), (1, 2, 2), (2, 2, 1)))
    xm = fixtures.one_object_crossed_monoid(fixtures.trivial_monoid(), weird)
    report = validate_crossed_monoid(xm)
    assert not report.passed
    assert "mon.assoc" in report.axioms()


def test_classify_crossed_module_fixtures(xm_z2_z3, xm_trivial):
    cls = classify_structure(xm_z2_z3)
    assert cls.is_crossed_module
    assert cls.fibers_cancellative
    assert cls.action_injective
    trivial = classify_structure(xm_trivial)
    assert trivial.is_crossed_module and trivial.fibers_cancellative and trivial.action_injective


def test_classify_idempotent_fiber(xm_idempotent):
    cls = classify_structure(xm_idempotent)
    assert not cls.is_crossed_module
    assert not cls.fibers_are_groups
    assert not cls.fibers_cancellative
    witnesses = dict(cls.witnesses)
    # a*e == a*a with e != a, scanned in (object, c, a, b) order
    assert witnesses["fibers_cancellative"] == (0, 1, 0, 1)
    assert cls.failed_module_hypothesis()[0] == "fibers_are_groups"


def test_classify_all_module_fixtures():
    for build in (fixtures.group_z2, fixtures.z3_fiber_only, fixtures.z2_with_z3_fiber,
                  fixtures.z2_with_z3_fiber_twisted, fixtures.pair_groupoid_z3):
        assert classify_structure(build()).is_crossed_module, build.__name__


def test_compose_convention(xm_z2, xm_z2_z3):
    cat = xm_z2.cat
    assert cat.compose(1, 1) == 0  # g*g = 1
    assert cat.compose(1, 0) == 1  # g*1 = g
    # boundary of any element is the identity in the untwisted fixture
    xm = xm_z2_z3
    d2 = xm.boundary[0][2]
    assert xm.cat.compose(d2, 1) == 1


def test_compose_rejects_mismatched_endpoints():
    cat = fixtures.pair_groupoid_z3().cat
    with pytest.raises(NotComposableError):
        cat.compose(2, 2)  # 0->1 after 0->1 does not compose


def test_identity_xmorphism_validates(xm_z2_z3):
    m = identity_xmorphism(xm_z2_z3)
    report = ref_validate_xmorphism(xm_z2_z3, xm_z2_z3, m)
    assert report.passed


def test_inclusion_morphism_validates(xm_z3_fiber, xm_z2_z3):
    # trivial category includes into Z/2, identity on the Z/3 fiber
    m = XMorphism(obj_map=(0,), mor_map=(0,), fiber_maps=((0, 1, 2),))
    assert ref_validate_xmorphism(xm_z3_fiber, xm_z2_z3, m).passed


def test_broken_fiber_map_reports_witness(xm_z3_fiber, xm_z2_z3):
    m = XMorphism(obj_map=(0,), mor_map=(0,), fiber_maps=((0, 2, 2),))
    report = ref_validate_xmorphism(xm_z3_fiber, xm_z2_z3, m)
    assert not report.passed
    assert "mor.hom" in report.axioms()


def test_xmorphism_out_of_range_is_structural(xm_z3_fiber, xm_z2_z3):
    with pytest.raises(StructureError):
        ref_validate_xmorphism(xm_z3_fiber, xm_z2_z3, XMorphism((5,), (0,), ((0, 1, 2),)))
    with pytest.raises(StructureError):
        ref_validate_xmorphism(xm_z3_fiber, xm_z2_z3, XMorphism((0,), (9,), ((0, 1, 2),)))


def test_cr3_restated_for_every_module_fixture():
    for build in (fixtures.group_z2, fixtures.z2_with_z3_fiber, fixtures.z2_with_z3_fiber_twisted,
                  fixtures.z3_identity_boundary, fixtures.pair_groupoid_z3):
        xm = build()
        for x in xm.cat.objects():
            mon = xm.fibers[x]
            for a in mon.elements():
                for b in mon.elements():
                    assert mon.mul(a, b) == mon.mul(b, xm.action[xm.boundary[x][b]][a])


def test_crossed_monoid_shape_errors():
    cat = fixtures.one_object_category(fixtures.cyclic_monoid(2))
    z3 = fixtures.cyclic_monoid(3)
    with pytest.raises(StructureError):
        CrossedMonoid(cat=cat, fibers=(z3,), action=((0, 1, 2),), boundary=((0, 0, 0),))  # one action row missing
    with pytest.raises(StructureError):
        CrossedMonoid(cat=cat, fibers=(z3,), action=((0, 1, 2), (0, 1)), boundary=((0, 0, 0),))  # action row short
    with pytest.raises(StructureError):
        CrossedMonoid(cat=cat, fibers=(z3,), action=((0, 1, 2), (0, 1, 2)), boundary=((0, 0, 7),))  # dangling morphism
    # a field of the wrong kind is named, not left to fail on first use
    good = dict(cat=cat, fibers=(z3,), action=((0, 1, 2), (0, 1, 2)), boundary=((0, 0, 0),))
    for field, value, message in (("fibers", None, "fibers = None is not a list"),
                                  ("fibers", (5,), "fibers[0] = 5 is not a FiniteMonoid"),
                                  ("cat", None, "cat = None is not a FiniteCategory")):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            CrossedMonoid(**{**good, field: value})
    assert CrossedMonoid(**{**good, "fibers": [z3]}).fibers == (z3,)


# -- full-scan references ---------------------------------------------------
# The validator, the classifier and GroupPresentation.verify as they were
# before the generator-reduced scans: every instance of every rule, in
# ascending order.  The fast versions must agree with them exactly.


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


def ref_validate(xm: CrossedMonoid):
    cat = xm.cat
    out = _Collector()

    for x, mon in enumerate(xm.fibers):
        t = mon.table
        for a in mon.elements():
            if t[mon.unit][a] != a or t[a][mon.unit] != a:
                out.hit("mon.unit", (x, a), f"unit not neutral on {a} in fiber {x}")
                break
        if not out.done("mon.assoc"):
            for a in mon.elements():
                for b in mon.elements():
                    for c in mon.elements():
                        if t[t[a][b]][c] != t[a][t[b][c]]:
                            out.hit("mon.assoc", (x, a, b, c), "fiber multiplication not associative")
                            break
                    if out.done("mon.assoc"):
                        break
                if out.done("mon.assoc"):
                    break

    comp = cat.compose_table
    for a in cat.morphisms():
        ta, sa = cat.identity[cat.tgt[a]], cat.identity[cat.src[a]]
        if comp[ta][a] != a or comp[a][sa] != a:
            out.hit("cat.id", (a,), "identity morphism not neutral")
            break
    for a in cat.morphisms():
        if out.done("cat.assoc"):
            break
        for b in cat.morphisms():
            if comp[a][b] is None:
                continue
            if out.done("cat.assoc"):
                break
            for c in cat.morphisms():
                if comp[b][c] is None:
                    continue
                if comp[comp[a][b]][c] != comp[a][comp[b][c]]:
                    out.hit("cat.assoc", (a, b, c), "composition not associative")
                    break
    for a in cat.morphisms():
        ab = comp[a]
        for b in cat.morphisms():
            v = ab[b]
            if v is None:
                continue
            if cat.src[v] != cat.src[b] or cat.tgt[v] != cat.tgt[a]:
                out.hit("cat.endpoints", (a, b), "composite has wrong endpoints")
                break
        if out.done("cat.endpoints"):
            break

    act = xm.action
    for x in cat.objects():
        e = cat.identity[x]
        for a in xm.fibers[x].elements():
            if act[e][a] != a:
                out.hit("act.id", (x, a), "identity morphism must act trivially")
                break
        if out.done("act.id"):
            break
    for a in cat.morphisms():
        if out.done("act.comp"):
            break
        for b in cat.morphisms():
            v = comp[a][b]
            if v is None:
                continue
            rows_match = True
            for m in xm.fibers[cat.tgt[a]].elements():
                if act[v][m] != act[b][act[a][m]]:
                    out.hit("act.comp", (a, b, m), "action not functorial on a composite")
                    rows_match = False
                    break
            if not rows_match:
                break
    for m in cat.morphisms():
        fib_t = xm.fibers[cat.tgt[m]]
        fib_s = xm.fibers[cat.src[m]]
        row = act[m]
        if row[fib_t.unit] != fib_s.unit:
            out.hit("act.hom", (m, fib_t.unit), "action does not preserve the unit")
        if out.done("act.hom"):
            break
        stop = False
        for a in fib_t.elements():
            for b in fib_t.elements():
                if row[fib_t.mul(a, b)] != fib_s.mul(row[a], row[b]):
                    out.hit("act.hom", (m, a, b), "action not multiplicative")
                    stop = True
                    break
            if stop:
                break
        if stop:
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
                if mon.mul(a, b) != mon.mul(b, act[drow[b]][a]):
                    lhs, rhs = mon.mul(a, b), mon.mul(b, act[drow[b]][a])
                    out.hit("cr3", (x, a, b), f"exchange rule fails: {lhs} != {rhs}")
                    stop = True
                    break
            if stop:
                break
        if stop:
            break

    return out.report()


def ref_classify(xm: CrossedMonoid) -> Classification:
    cat = xm.cat
    witnesses = []

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
        t = mon.table
        found = None
        for c in mon.elements():
            for a in mon.elements():
                for b in mon.elements():
                    if a < b and (t[c][a] == t[c][b] or t[a][c] == t[b][c]):
                        found = (x, c, a, b)
                        break
                if found:
                    break
            if found:
                break
        if found:
            fibers_cancellative = False
            witnesses.append(("fibers_cancellative", found))
            break

    action_injective = True
    for m in cat.morphisms():
        row = xm.action[m]
        seen = {}
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


def ref_group_verify(g: GroupPresentation) -> None:
    n = g.order
    if len(g.table) != n or any(len(r) != n for r in g.table):
        raise XNerveError("group table is not square")
    if any(not 0 <= v < n for r in g.table for v in r):
        raise XNerveError("group table entry out of range")
    t = g.table
    for a in range(n):
        if t[g.unit][a] != a or t[a][g.unit] != a:
            raise XNerveError(f"unit not neutral on {a}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise XNerveError(f"not associative at ({a},{b},{c})")
    for a in range(n):
        if all(t[a][b] != g.unit or t[b][a] != g.unit for b in range(n)):
            raise XNerveError(f"element {a} has no inverse")


# -- structures beyond the fixtures -------------------------------------------


def _bench_workloads():
    """``bench/workloads.py``, loaded by path as the tracer test loads the
    tracer: its ``permutation_module`` (N -> S_n with the conjugation action
    and the inclusion as boundary, N being S_n or A_n) builds the
    benchmark's inputs and these tests' alike."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclass() looks the module up
    spec.loader.exec_module(module)
    return module


permutation_module = _bench_workloads().permutation_module


def null_monoid_with_unit(n: int) -> FiniteMonoid:
    """Unit 0, zero 1 and elements 2..n-1, where every product of two
    non-units is the zero: every generating set needs the unit and 2..n-1,
    and the greedy one also takes the zero, which precedes them."""
    return FiniteMonoid(n, 0, tuple(tuple(b if a == 0 else a if b == 0 else 1 for b in range(n))
                                    for a in range(n)))


STRUCTURES = {
    **{build.__name__: build for build in (
        fixtures.trivial_point, fixtures.group_z2, fixtures.z3_fiber_only, fixtures.z2_with_z3_fiber,
        fixtures.z2_with_z3_fiber_twisted, fixtures.idempotent_fiber, fixtures.broken_exchange,
        fixtures.z3_identity_boundary, fixtures.idempotent_endo_category, fixtures.pair_groupoid_z3,
        fixtures.empty_crossed_monoid,
    )},
    "s3_s3": lambda: permutation_module(3, even_fiber=False),
    "s4_s4": lambda: permutation_module(4, even_fiber=False),
    "a4_s4": lambda: permutation_module(4, even_fiber=True),
    "null_with_unit": lambda: fixtures.one_object_crossed_monoid(
        fixtures.idempotent_pair_monoid(), null_monoid_with_unit(7)),
    "union_f6_idempotent": lambda: fixtures.disjoint_union(
        fixtures.z2_with_z3_fiber_twisted(), fixtures.idempotent_fiber()),
}
BUILT = {name: build() for name, build in STRUCTURES.items()}


def _group_verdict(g: GroupPresentation, verify) -> str | None:
    try:
        verify(g)
    except XNerveError as exc:
        return str(exc)
    return None


def assert_matches_reference(xm: CrossedMonoid) -> None:
    try:
        expected = ref_validate(xm)
    except IndexError:
        # The full scans evaluate a^d(b) and act(a*b) even where a boundary or
        # a composite has the wrong endpoints, and crash when that runs past
        # a table.  The validator must report such an input instead.
        axioms = validate_crossed_monoid(xm).axioms()
        assert "cr1" in axioms or "cat.endpoints" in axioms, axioms
        assert "cr3" in axioms or "act.comp" in axioms, axioms
    else:
        assert validate_crossed_monoid(xm) == expected
    assert classify_structure(xm) == ref_classify(xm)
    for mon in xm.fibers:
        g = GroupPresentation(tuple(map(str, mon.elements())), mon.unit, mon.table)
        assert _group_verdict(g, GroupPresentation.verify) == _group_verdict(g, ref_group_verify)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_fast_scans_match_reference_on_every_structure(name):
    assert_matches_reference(BUILT[name])


def _closure(table, gens):
    reached, todo = set(), list(gens)
    while todo:
        z = todo.pop()
        if z is not None and z not in reached:
            reached.add(z)
            todo.extend(table[z][g] for g in gens)
    return reached


@pytest.mark.parametrize("name", ["s4_s4", "a4_s4", "pair_groupoid_z3", "null_with_unit", "idempotent_endo_category"])
def test_generating_sets_generate(name):
    xm = BUILT[name]
    for table, gens in [(f.table, f.generators) for f in xm.fibers] + [(xm.cat.compose_table, xm.cat.generators)]:
        assert gens == generating_set(table) and list(gens) == sorted(gens)
        assert _closure(table, gens) == set(range(len(table)))
        # greedy: no generator is reached from the ones before it
        assert all(g not in _closure(table, gens[:i]) for i, g in enumerate(gens))


def test_worst_case_needs_every_element_as_a_generator():
    assert null_monoid_with_unit(7).generators == tuple(range(7))
    assert validate_crossed_monoid(BUILT["null_with_unit"]).passed


def _replace(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


def _corruption_sites(xm: CrossedMonoid) -> dict:
    """Per table kind, every entry that has at least one other allowed value,
    with those values.  Composites are only moved within their hom-set."""
    cat = xm.cat
    sites = {
        "mul": [(x, a, b, [v for v in f.elements() if v != f.table[a][b]])
                for x, f in enumerate(xm.fibers) for a in f.elements() for b in f.elements()],
        "compose": [(a, b, [v for v in cat.hom(cat.src[b], cat.tgt[a]) if v != c])
                    for a in cat.morphisms() for b, c in enumerate(cat.compose_table[a]) if c is not None],
        "action": [(m, a, [v for v in xm.fibers[cat.src[m]].elements() if v != xm.action[m][a]])
                   for m in cat.morphisms() for a in range(len(xm.action[m]))],
        "boundary": [(x, a, [v for v in cat.morphisms() if v != xm.boundary[x][a]])
                     for x in cat.objects() for a in xm.fibers[x].elements()],
    }
    return {kind: [s for s in entries if s[-1]] for kind, entries in sites.items() if any(s[-1] for s in entries)}


def _corrupt(xm: CrossedMonoid, kind: str, site: tuple, value: int) -> CrossedMonoid:
    cat, fibers, action, boundary = xm.cat, xm.fibers, xm.action, xm.boundary
    if kind == "mul":
        x, a, b = site
        f = fibers[x]
        fibers = fibers[:x] + (FiniteMonoid(f.size, f.unit, _replace(f.table, a, b, value)),) + fibers[x + 1:]
    elif kind == "compose":
        a, b = site
        cat = FiniteCategory(cat.num_objects, cat.src, cat.tgt, cat.identity,
                             _replace(cat.compose_table, a, b, value))
    elif kind == "action":
        action = _replace(action, *site, value)
    else:
        boundary = _replace(boundary, *site, value)
    return CrossedMonoid(cat, fibers, action, boundary)


SITES = {name: _corruption_sites(xm) for name, xm in BUILT.items()}


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.data())
def test_fast_scans_match_reference_on_single_entry_corruptions(data):
    name = data.draw(st.sampled_from(sorted(n for n in SITES if SITES[n])), label="structure")
    kind = data.draw(st.sampled_from(sorted(SITES[name])), label="kind")
    *site, values = data.draw(st.sampled_from(SITES[name][kind]), label="site")
    value = data.draw(st.sampled_from(values), label="value")
    assert_matches_reference(_corrupt(BUILT[name], kind, tuple(site), value))


@pytest.mark.parametrize("kind", ["mul", "compose", "boundary", "action"])
def test_every_single_entry_corruption_of_s3_matches_reference(kind):
    # exhaustive on S3 -> S3: most mul and compose corruptions break
    # mon.assoc or cat.assoc, so act.hom and act.comp take their full-scan
    # fallbacks; a boundary corruption leaves cr1's gate open and fails its
    # generator check, and closes the gates of cr2 and cr3
    s3 = BUILT["s3_s3"]
    seen = set()
    for *site, values in SITES["s3_s3"][kind]:
        for value in values:
            xm = _corrupt(s3, kind, tuple(site), value)
            assert_matches_reference(xm)
            seen.update(validate_crossed_monoid(xm).axioms())
    assert {"mul": {"mon.assoc"}, "compose": {"cat.assoc"}, "boundary": {"cr1", "cr2", "cr3"},
            "action": {"act.hom", "cr2", "cr3"}}[kind] <= seen


def test_every_endomorphism_of_s3_as_boundary_matches_reference():
    # cr1 holds for each, so the gates of cr2 and cr3 are open and their
    # generator checks decide; where they fail, the full scans find the witness
    s3 = BUILT["s3_s3"]
    table = s3.fibers[0].table
    homs = [d for d in itertools.product(range(6), repeat=6)
            if all(d[table[a][b]] == s3.cat.compose_table[d[a]][d[b]] for a in range(6) for b in range(6))]
    assert len(homs) == 10
    seen = set()
    for d in homs:
        xm = CrossedMonoid(s3.cat, s3.fibers, s3.action, (d,))
        assert_matches_reference(xm)
        report = validate_crossed_monoid(xm)
        assert "cr1" not in report.axioms()
        seen.update(report.axioms())
    assert seen == {"cr2", "cr3"}


@pytest.mark.parametrize("name", ["pair_groupoid_z3", "union_f6_idempotent"])
def test_every_composite_moved_across_hom_sets_matches_reference(name):
    # cat.endpoints fails, so cat.assoc and act.comp take their full scans
    xm0 = BUILT[name]
    cat = xm0.cat
    seen = set()
    for a, b in itertools.product(cat.morphisms(), repeat=2):
        c = cat.compose_table[a][b]
        for value in () if c is None else set(cat.morphisms()) - {c}:
            xm = _corrupt(xm0, "compose", (a, b), value)
            assert_matches_reference(xm)
            seen.update(validate_crossed_monoid(xm).axioms())
    assert {"cat.endpoints", "cat.assoc"} <= seen


def test_ill_typed_boundary_or_composite_is_reported_not_raised():
    union = BUILT["union_f6_idempotent"]  # fibers of sizes 3 and 2
    boundary = _corrupt(union, "boundary", (0, 0), 2)  # d(0) is the other object's identity
    assert ref_validate_raises(boundary)
    report = validate_crossed_monoid(boundary)
    assert report.find("cr1").witness == (0, 0)
    assert report.find("cr3") == Violation("cr3", (0, 2, 0), "exchange rule undefined: 2 does not act on fiber 0")
    composite = _corrupt(union, "compose", (1, 1), 2)  # g*g lands on the other object
    assert ref_validate_raises(composite)
    report = validate_crossed_monoid(composite)
    assert report.find("cat.endpoints").witness == (1, 1)
    assert report.find("act.comp").witness == (1, 1, 2)


def ref_validate_raises(xm: CrossedMonoid) -> bool:
    try:
        ref_validate(xm)
    except IndexError:
        return True
    return False



@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_fast_scans_match_reference_on_multi_entry_corruptions(data):
    # two or three entries of one structure: faults in several rules, and in
    # several fibers of the union, must come back in the reference's order
    name = data.draw(st.sampled_from(sorted(n for n in SITES if SITES[n])), label="structure")
    xm = BUILT[name]
    for _ in range(data.draw(st.integers(2, 3), label="entries")):
        kind = data.draw(st.sampled_from(sorted(SITES[name])), label="kind")
        *site, values = data.draw(st.sampled_from(SITES[name][kind]), label="site")
        xm = _corrupt(xm, kind, tuple(site), data.draw(st.sampled_from(values), label="value"))
    assert_matches_reference(xm)


def test_faults_in_two_fibers_are_reported_fiber_by_fiber():
    union = BUILT["union_f6_idempotent"]  # fibers Z/3 and the idempotent pair
    xm = _corrupt(union, "mul", (0, 1, 1), 0)  # fiber 0: 1*1 = 0, not associative
    xm = _corrupt(xm, "mul", (1, 0, 1), 0)  # fiber 1: the unit times 1 is 0
    report = validate_crossed_monoid(xm)
    assert report == ref_validate(xm)
    assert report.axioms()[:2] == ("mon.assoc", "mon.unit")
    assert report.find("mon.assoc").witness[0] == 0
    assert report.find("mon.unit") == Violation("mon.unit", (1, 1), "unit not neutral on 1 in fiber 1")


# -- the crossed-monoid morphism check ----------------------------------------


def ref_validate_xmorphism(src: CrossedMonoid, dst: CrossedMonoid, m: XMorphism):
    """Check functoriality, fiber homomorphisms and both compatibility laws
    by scanning every instance.

    Out-of-range maps raise StructureError; equation failures come back as
    violations, in report order: mor.functor (endpoints, then identities,
    then composites), mor.hom (per object, the unit first), mor1 (the maps
    commute with the action) and mor2 (with the boundaries).  A map whose
    functor breaks endpoints may run past the target's action table and
    raise IndexError.
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
            if f[s][src.action[a][v]] != dst.action[F[a]][f[t][v]]:
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
