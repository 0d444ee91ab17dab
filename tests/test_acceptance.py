"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything here is exact (integer table algebra, no tolerances).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random

import pytest

from conftest import MatrixNerve, boundary, corner_triples, horn_of_cell, image_b3
from xnerve import fixtures
from xnerve.errors import NotCrossedModuleError
from xnerve.fillers import HornFiller
from xnerve.homotopy import higher_vanishing, pi_compare
from xnerve.nerve import Nerve
from xnerve.simplicial import (
    audit_simplicial,
    check_coskeletal,
    check_kan,
    horns,
    simplicial_kernel,
)

F1 = fixtures.trivial_point
F2 = fixtures.group_z2
F3 = fixtures.z3_fiber_only
F4 = fixtures.z2_with_z3_fiber
F5 = fixtures.idempotent_fiber
F6 = fixtures.z2_with_z3_fiber_twisted


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_simplicial_identity_suite():
    violations = []
    for build in (F1, F2, F3, F4, F5, F6):
        nv = Nerve(build())
        if build is F4:
            assert nv.count_cells(4) == 11664
        rep = audit_simplicial(nv, 4)
        violations.extend((build.__name__, v) for v in rep.violations)
    report(1, not violations,
           f"face/degeneracy identities exhaustive to dimension 4 on six structures, {len(violations)} violations")


def test_criterion_02_corner_bijection_roundtrips():
    checked = 0
    exact = True
    for build in (F2, F4, F6):
        nv = MatrixNerve(build())
        for n in (2, 3, 4):
            ranks = range(nv.count_cells(n))
            faces = nv.faces_of(n, ranks)
            firsts, lasts = faces[0], faces[n]
            exact = exact and nv.assemble_ids(n, firsts, lasts, nv.corners(n, ranks)) == list(ranks)
            for cell in nv.cells(n):
                exact = exact and nv.corner_assemble(nv.face(cell, 0), nv.face(cell, n), cell.corner) == cell
                checked += 1
            triples = list(corner_triples(nv, n))
            made = nv.assemble_ids(n, *zip(*triples))
            faces = nv.faces_of(n, made)
            firsts, lasts = faces[0], faces[n]
            exact = exact and list(zip(firsts, lasts, nv.corners(n, made))) == triples
            exact = exact and len(triples) == nv.count_cells(n)
            checked += len(triples)
    report(2, exact, f"corner split/assemble round trips exact on {checked} instances across dimensions 2..4")


def test_criterion_03_corner_face_closed_formulas():
    checked = 0
    exact = True
    for build in (F4, F6):
        nv = MatrixNerve(build())
        table = nv.level(3)
        faces = nv.faces_of(3, range(nv.count_cells(3)))
        for r in range(len(faces[0])):
            cell = nv.cell_at(3, r)
            for j in (1, 2):
                exact = exact and table[j][r] == faces[j][r] == nv.rank_of(nv.face(cell, j))
                checked += 1
    report(3, exact, f"closed corner-face formulas equal the composed path on {checked} instances")


def test_criterion_04_four_coskeletal():
    (r2,) = check_coskeletal(Nerve(F2()), 4, 5)
    r5, r6 = check_coskeletal(Nerve(F5()), 4, 6)
    ok = (r2.bijective and r5.bijective and r6.bijective and r2.cell_count == 32 and r5.cell_count == 1024
          and r6.cell_count == 32768)
    report(4, ok,
           f"boundary map bijective in dimension 5: {r2.cell_count} and {r5.cell_count} cells against "
           f"kernels of {r2.kernel_size} and {r5.kernel_size}; in dimension 6: {r6.cell_count} cells against "
           f"a kernel of {r6.kernel_size}")


def test_criterion_05_three_coskeletal():
    (r4,) = check_coskeletal(Nerve(F4()), 3, 4)
    (r6,) = check_coskeletal(Nerve(F6()), 3, 4)
    ok = r4.bijective and r6.bijective and r4.cell_count == 11664 and r6.cell_count == 11664
    report(5, ok, "boundary map bijective in dimension 4 on both 11664-cell nerves")


def test_criterion_06_boundary_image_rule():
    exact = True
    checked = 0
    for build in (F2, F4, F6):
        xm = build()
        nv = MatrixNerve(xm)
        image = {boundary(nv, cell) for cell in nv.cells(3)}
        for t in simplicial_kernel(nv, 3):
            exact = exact and image_b3(xm, t) == (t in image)
            checked += 1
    xm5 = F5()
    nv5 = MatrixNerve(xm5)
    for cell in nv5.cells(3):
        exact = exact and image_b3(xm5, boundary(nv5, cell))
        checked += 1
    report(6, exact, f"image rule equals brute-force membership on {checked} boundary tuples "
                     "(necessity confirmed on the non-module)")


def test_criterion_07_constructive_fillers():
    filled = 0
    for build in (F4, F6):
        xm = build()
        hf = HornFiller(Nerve(xm))
        nv = hf.nerve
        for n in (2, 3):
            for l in range(n + 1):
                for h in horns(nv, n, l):
                    hf.fill(h)
                    filled += 1
    hf2 = HornFiller(Nerve(F2()))
    for l in range(5):
        for h in horns(hf2.nerve, 4, l):
            hf2.fill(h)
            filled += 1
    hf4 = HornFiller(MatrixNerve(F4()))
    nv4 = hf4.nerve
    total = nv4.count_cells(4)
    rng = random.Random(20240405)
    for l in range(5):
        for _ in range(1000):
            h = horn_of_cell(nv4, nv4.cell_at(4, rng.randrange(total)), l)
            hf4.fill(h)
            filled += 1
    for l in range(6):
        for h in horns(hf2.nerve, 5, l):
            hf2.fill(h)
            filled += 1
    report(7, True, f"{filled} horns filled with every face verified (exhaustive dims 2-3 and small dims 4-5, "
                    "1000 sampled dimension-4 horns per position)")


def test_criterion_08_kan_converse_witness():
    nv = Nerve(F5())
    kan = check_kan(nv, upto=3)
    rec = next(r for r in kan.records if (r.dim, r.omitted) == (3, 1))
    witness_ok = (
        not kan.is_kan
        and rec.witness is not None
        and tuple(c.rows[0][1] for c in rec.witness.faces) == (0, 0, 1)
    )
    refused = None
    try:
        HornFiller(Nerve(F5()))
    except NotCrossedModuleError as exc:
        refused = exc.hypothesis
    ok = witness_ok and refused == "fibers_are_groups"
    report(8, ok, f"unfillable dimension-3 horn found with corners (e, _, e, a); "
                  f"fillers refuse naming hypothesis {refused!r}")


def test_criterion_09_homotopy_groups():
    expected = {F2: (2, 1), F4: (2, 3), F6: (2, 3)}
    ok = True
    details = []
    for build, (o1, o2) in expected.items():
        nv = Nerve(build())
        c1 = pi_compare(nv, 1, 0)
        c2 = pi_compare(nv, 2, 0)
        ok = ok and c1.isomorphic and c1.algebraic.order == o1
        ok = ok and c2.isomorphic and c2.algebraic.order == o2 and c2.algebraic.is_abelian
        details.append(f"{build.__name__}: pi1={c1.algebraic.order} pi2={c2.algebraic.order}")
    vanish = higher_vanishing(Nerve(F2()), 0)
    ok = ok and vanish.trivial
    report(9, ok, "; ".join(details) + f"; pi3 trivial={vanish.trivial}")


def test_criterion_10_cross_diagonal_oracle():
    # full identity bundle lives in tests/test_fillers.py::test_w_matrix_oracle;
    # this criterion re-runs the membership consequence at acceptance scale
    from test_fillers import _shared_notation, _w_closed_forms, _w_entries
    from xnerve.simplicial import beta

    checked = 0
    exact = True
    for build in (F4, F6):
        xm = build()
        nv = MatrixNerve(xm)
        total = nv.count_cells(4)
        for l in range(5):
            rng = random.Random(1000 + l)
            for _ in range(200):
                h = horn_of_cell(nv, nv.cell_at(4, rng.randrange(total)), l)
                by_slot = {s: c for s, c in zip(h.slots(), h.faces)}
                w = _w_entries(nv, h)
                m22, m23, m33 = _shared_notation(by_slot)
                closed, exp2233 = _w_closed_forms(xm, by_slot, m22, m23, m33)
                exact = exact and set(closed) == set(w)
                exact = exact and all(w[k] == v for k, v in closed.items())
                exact = exact and all(
                    w[(s, t)] == w[(t, s)]
                    for s in range(5)
                    for t in range(5)
                    if s != t and l not in (s, t)
                )
                mul = xm.fibers[0].mul
                inv = xm.fibers[0].inverse
                act = xm.action
                if l in (0, 1):
                    lhs = mul(w[(l, 2)], inv[w[(l, 1 - l)]])
                    rhs = act[m33][mul(inv[w[(l, 4)]], w[(l, 3)])]
                elif l == 2:
                    lhs = mul(w[(2, 1)], inv[w[(2, 0)]])
                    rhs = act[exp2233][mul(inv[w[(2, 4)]], w[(2, 3)])]
                else:
                    lhs = mul(w[(l, 1)], inv[w[(l, 0)]])
                    rhs = act[m22][mul(inv[w[(l, 4 if l == 3 else 3)]], w[(l, 2)])]
                exact = exact and lhs == rhs
                exact = exact and image_b3(xm, beta(nv, h))
                checked += 1
    report(10, exact, f"cross-diagonal identities and collapsed-boundary membership exact on {checked} "
                      "sampled dimension-4 horns")
