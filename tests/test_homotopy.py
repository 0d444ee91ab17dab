import dataclasses

import pytest

from xnerve import fixtures
from xnerve.cli import run
from xnerve.errors import NotCrossedModuleError, StructureError, XNerveError
from xnerve.groups import GroupPresentation, find_isomorphism
from xnerve.homotopy import higher_vanishing, pi0, pi1, pi2, pi_compare
from xnerve.io import from_crossed_monoid, serialize
from xnerve.nerve import Nerve


def test_pi0_examples(xm_z2_z3):
    assert pi0(xm_z2_z3) == ((0,),)
    union = fixtures.disjoint_union(fixtures.group_z2(), fixtures.z3_fiber_only())
    assert pi0(union) == ((0,), (1,))
    assert pi0(fixtures.empty_crossed_monoid()) == ()
    assert pi0(fixtures.pair_groupoid_z3()) == ((0, 1),)


def test_pi1_examples(xm_z2, xm_z2_z3):
    assert pi1(xm_z2_z3, 0).order == 2
    assert pi1(xm_z2, 0).order == 2
    assert pi1(fixtures.z3_identity_boundary(), 0).order == 1


def test_pi1_product_law(xm_z2):
    g = pi1(xm_z2, 0)
    assert g.table == ((0, 1), (1, 0))
    assert g.labels[g.unit] == "[0]"


def test_pi2_examples(xm_z2_z3, xm_z2_z3_twisted):
    assert pi2(xm_z2_z3, 0).order == 3
    assert pi2(xm_z2_z3_twisted, 0).order == 3
    assert pi2(fixtures.z3_identity_boundary(), 0).order == 1
    assert pi2(xm_z2_z3, 0).is_abelian


def test_pi_refuses_non_modules(xm_idempotent):
    with pytest.raises(NotCrossedModuleError) as err:
        pi1(xm_idempotent, 0)
    assert err.value.hypothesis == "fibers_are_groups"
    with pytest.raises(NotCrossedModuleError):
        pi2(xm_idempotent, 0)
    with pytest.raises(NotCrossedModuleError):
        pi_compare(Nerve(xm_idempotent), 1, 0)
    with pytest.raises(NotCrossedModuleError):
        higher_vanishing(Nerve(xm_idempotent), 0)


def test_pi_compare_fixtures(xm_z2, xm_z3_fiber, xm_z2_z3, xm_z2_z3_twisted, xm_trivial):
    expectations = [
        (xm_z2, 2, 1),
        (xm_z3_fiber, 1, 3),
        (xm_z2_z3, 2, 3),
        (xm_z2_z3_twisted, 2, 3),
        (xm_trivial, 1, 1),
    ]
    for xm, o1, o2 in expectations:
        for n, expected in ((1, o1), (2, o2)):
            c = pi_compare(Nerve(xm), n, 0)
            assert c.isomorphic, (n, c)
            assert c.algebraic.order == expected
            assert c.bruteforce.order == expected


def test_pi_compare_multi_object():
    nv = Nerve(fixtures.pair_groupoid_z3())
    for t in (0, 1):
        c = pi_compare(nv, 2, t)
        assert c.isomorphic and c.algebraic.order == 3


def test_higher_vanishing(xm_z2, xm_z2_z3, xm_trivial):
    for xm in (xm_z2, xm_z2_z3, xm_trivial):
        report = higher_vanishing(Nerve(xm), 0)
        assert report.trivial, report


def test_find_isomorphism_positive_and_negative():
    z4 = GroupPresentation(("0", "1", "2", "3"), 0, tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4)))
    klein = GroupPresentation(
        ("e", "a", "b", "c"),
        0,
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    )
    z4.verify()
    klein.verify()
    assert find_isomorphism(z4, klein) is None
    perm = (2, 3, 0, 1)  # relabel Z/4 by swapping 0<->2 and 1<->3
    relabeled = GroupPresentation(
        ("w", "x", "y", "z"),
        perm[0],
        tuple(tuple(perm[(perm[a] + perm[b]) % 4] for b in range(4)) for a in range(4)),
    )
    relabeled.verify()
    iso = find_isomorphism(z4, relabeled)
    assert iso is not None
    for a in range(4):
        for b in range(4):
            assert relabeled.table[iso[a]][iso[b]] == iso[z4.table[a][b]]


def test_pi1_and_pi2_refuse_a_boundary_that_misses_the_identity(tmp_path, capsys):
    # cr1 fails: the unit goes to the loop 1, so the boundary image {1} is
    # no subgroup of C(0,0) and the kernel is empty; classify still finds a
    # crossed module
    xm = dataclasses.replace(fixtures.group_z2(), boundary=((1,),))
    assert xm.classification.is_crossed_module
    with pytest.raises(XNerveError, match=r"^boundary image not a subgroup of C\(0,0\): 1 \* 1 escapes$"):
        pi1(xm, 0)
    with pytest.raises(XNerveError, match="^boundary kernel at object 0 is not a subgroup") as err:
        pi2(xm, 0)
    assert not isinstance(err.value, StructureError)
    path = tmp_path / "z2.json"
    path.write_text(serialize(from_crossed_monoid(xm)))
    for pi in ("1", "2"):
        assert run(["homotopy", str(path), "--pi", pi]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("FAIL axioms: cr1 witness (0, 0)") and err.startswith("ERROR (error): boundary ")
