import dataclasses
import itertools
import random

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


def _group(elements, mul) -> GroupPresentation:
    """The group on ``elements``, the unit first, under ``mul``; ids in list order."""
    index = {e: i for i, e in enumerate(elements)}
    g = GroupPresentation(tuple(map(str, elements)), 0,
                          tuple(tuple(index[mul(a, b)] for b in elements) for a in elements))
    g.verify()
    return g


def _cyclic(n: int) -> GroupPresentation:
    return _group(list(range(n)), lambda a, b: (a + b) % n)


def _symmetric(n: int, even: bool = False) -> GroupPresentation:
    def parity(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2
    return _group([p for p in itertools.permutations(range(n)) if not (even and parity(p))],
                  lambda p, q: tuple(p[i] for i in q))


def _z2_power(k: int) -> GroupPresentation:
    return _group(list(itertools.product(range(2), repeat=k)), lambda a, b: tuple(x ^ y for x, y in zip(a, b)))


def _relabel(g: GroupPresentation, seed: int) -> GroupPresentation:
    """An isomorphic copy of ``g`` under a random permutation of its ids."""
    new = list(range(g.order))
    random.Random(seed).shuffle(new)
    old = sorted(range(g.order), key=new.__getitem__)
    return GroupPresentation(tuple(g.labels[a] for a in old), new[g.unit],
                             tuple(tuple(new[g.table[a][b]] for b in old) for a in old))


def _preserves_table(f, g: GroupPresentation, h: GroupPresentation) -> bool:
    return all(h.table[f[a]][f[b]] == f[g.table[a][b]] for a in range(g.order) for b in range(g.order))


def _first_isomorphism(g: GroupPresentation, h: GroupPresentation):
    """Reference: the first table-preserving bijection in lexicographic
    order, over every permutation, or None."""
    if g.order != h.order:
        return None
    return next((f for f in itertools.permutations(range(g.order)) if _preserves_table(f, g, h)), None)


def test_find_isomorphism_is_the_first_in_lexicographic_order():
    small = [_cyclic(n) for n in range(1, 7)] + [_z2_power(2), _symmetric(3)]
    copies = [_relabel(g, seed) for g in small for seed in range(3)]
    isomorphic = 0
    for g, h in itertools.product(copies, repeat=2):
        expected = _first_isomorphism(g, h)
        assert find_isomorphism(g, h) == expected
        isomorphic += expected is not None
    assert isomorphic == len(small) * 3 * 3  # the pairs of copies of one group, and no other


def test_find_isomorphism_refuses_groups_with_one_order_profile():
    # Z4 x Z4 and Z4 x| Z4, the second factor acting by inversion: both have
    # one unit, three involutions and twelve elements of order 4
    direct = _group(list(itertools.product(range(4), repeat=2)), lambda a, b: ((a[0] + b[0]) % 4, (a[1] + b[1]) % 4))
    semi = _group(list(itertools.product(range(4), repeat=2)),
                  lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % 4, (a[1] + b[1]) % 4))
    assert direct.order_profile == semi.order_profile == (1, 2, 2, 2) + (4,) * 12
    assert direct.is_abelian and not semi.is_abelian
    for g, h in ((direct, semi), (semi, direct), (_relabel(direct, 1), _relabel(semi, 2))):
        assert find_isomorphism(g, h) is None


@pytest.mark.parametrize("build", [lambda: _symmetric(5), lambda: _symmetric(5, even=True), lambda: _z2_power(6)],
                         ids=["S5", "A5", "Z2^6"])
def test_find_isomorphism_between_relabelled_copies_of_larger_groups(build):
    g = build()
    a, b = _relabel(g, 1), _relabel(g, 2)
    f = find_isomorphism(a, b)
    assert f is not None and sorted(f) == list(range(g.order)) and _preserves_table(f, a, b)


def test_a_failed_pi_comparison_is_reported_and_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("xnerve.homotopy.find_isomorphism", lambda g, h: None)
    path = tmp_path / "z2.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.group_z2())))
    assert run(["homotopy", str(path), "--pi", "1"]) == 2
    assert "FAIL pi1[basepoint 0]: algebraic order 2 but brute force gives 2" in capsys.readouterr().out.splitlines()


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
