"""Seeded inputs and command sequences for the benchmark workloads.

Every input is built from public constructors (``FiniteMonoid``,
``FiniteCategory``, ``CrossedMonoid``) or from ``xnerve.fixtures``, then put
through a random relabelling of object, morphism and fiber-element ids drawn
from the seed.  The relabelled structure is isomorphic to the original, so
cell counts and every verdict stay the same while enumeration order, hash
keys and sampled cells change with the seed.  Each document is checked with
``validate_crossed_monoid`` and ``classify_structure`` before it is written;
the program under test only ever sees the written JSON files.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from xnerve import CrossedMonoid, FiniteCategory, FiniteMonoid, classify_structure, fixtures, io
from xnerve import validate_crossed_monoid


@dataclass(frozen=True)
class Command:
    """One ``xnerve`` invocation on document ``doc``: the command kind it is
    timed under, its arguments (``args[0]`` is the subcommand), and the
    dimensions whose cells it enumerates in full (for ``cells_per_s``)."""

    kind: str
    doc: str
    args: tuple[str, ...]
    enumerates: tuple[int, ...]

    @property
    def label(self) -> str:
        return " ".join((self.args[0], self.doc) + self.args[1:])

    def argv(self, paths: dict[str, str]) -> list[str]:
        return [self.args[0], paths[self.doc], *self.args[1:]]


@dataclass(frozen=True)
class Workload:
    docs: dict
    commands: tuple[Command, ...]


def relabel(xm: CrossedMonoid, rng: random.Random) -> CrossedMonoid:
    """An isomorphic copy of ``xm`` under random permutations of all ids."""
    cat = xm.cat
    objs = list(range(cat.num_objects))
    rng.shuffle(objs)
    mors = list(range(cat.num_morphisms))
    rng.shuffle(mors)
    elems = []
    for f in xm.fibers:
        perm = list(range(f.size))
        rng.shuffle(perm)
        elems.append(perm)

    def inverse(perm):
        out = [0] * len(perm)
        for old, new in enumerate(perm):
            out[new] = old
        return out

    obj_old, mor_old = inverse(objs), inverse(mors)
    elem_old = [inverse(p) for p in elems]

    new_cat = FiniteCategory(
        num_objects=cat.num_objects,
        src=tuple(objs[cat.src[mor_old[m]]] for m in range(cat.num_morphisms)),
        tgt=tuple(objs[cat.tgt[mor_old[m]]] for m in range(cat.num_morphisms)),
        identity=tuple(mors[cat.identity[obj_old[x]]] for x in range(cat.num_objects)),
        compose_table=tuple(
            tuple(
                None if cat.compose_table[mor_old[a]][mor_old[b]] is None
                else mors[cat.compose_table[mor_old[a]][mor_old[b]]]
                for b in range(cat.num_morphisms)
            )
            for a in range(cat.num_morphisms)
        ),
    )
    fibers = []
    for x in range(cat.num_objects):
        f, fwd, back = xm.fibers[obj_old[x]], elems[obj_old[x]], elem_old[obj_old[x]]
        fibers.append(FiniteMonoid(
            f.size,
            fwd[f.unit],
            tuple(tuple(fwd[f.table[back[a]][back[b]]] for b in range(f.size)) for a in range(f.size)),
        ))
    action = []
    for m in range(cat.num_morphisms):
        old = mor_old[m]
        src_fwd = elems[cat.src[old]]
        tgt_back = elem_old[cat.tgt[old]]
        action.append(tuple(src_fwd[xm.action[old][tgt_back[a]]] for a in range(len(tgt_back))))
    boundary = []
    for x in range(cat.num_objects):
        old = obj_old[x]
        back = elem_old[old]
        boundary.append(tuple(mors[xm.boundary[old][back[a]]] for a in range(len(back))))
    return CrossedMonoid(new_cat, tuple(fibers), tuple(action), tuple(boundary))


def _compose(p, q):
    return tuple(p[i] for i in q)


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _is_even(p) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def permutation_module(n: int, even_fiber: bool) -> CrossedMonoid:
    """One-object crossed module N -> S_n with the conjugation action
    ``a^g = g^-1 a g`` and the inclusion as boundary; N is S_n itself (the
    identity crossed module) or the alternating group A_n."""
    group = list(itertools.permutations(range(n)))
    g_index = {p: i for i, p in enumerate(group)}
    normal = [p for p in group if _is_even(p)] if even_fiber else group
    n_index = {p: i for i, p in enumerate(normal)}
    unit = tuple(range(n))
    cat = FiniteCategory(
        num_objects=1,
        src=(0,) * len(group),
        tgt=(0,) * len(group),
        identity=(g_index[unit],),
        compose_table=tuple(tuple(g_index[_compose(a, b)] for b in group) for a in group),
    )
    fiber = FiniteMonoid(
        len(normal),
        n_index[unit],
        tuple(tuple(n_index[_compose(a, b)] for b in normal) for a in normal),
    )
    action = tuple(tuple(n_index[_compose(_compose(_inverse(g), a), g)] for a in normal) for g in group)
    boundary = (tuple(g_index[a] for a in normal),)
    return CrossedMonoid(cat, (fiber,), action, boundary)


def _cmd(kind, doc, *args, enumerates=()):
    return Command(kind, doc, tuple(args), tuple(enumerates))


def workloads(seed: int) -> dict[str, Workload]:
    """The workload table; ``docs`` maps a document name to a function that
    constructs it."""
    s = str(seed)
    return {
        "joins_deep": Workload(
            {"f6": fixtures.z2_with_z3_fiber_twisted, "pair": fixtures.pair_groupoid_z3},
            (
                _cmd("kan", "f6", "kan", "--dims", "1..4", enumerates=range(5)),
                _cmd("homotopy", "f6", "homotopy", "--pi", "0,1,2,3", enumerates=range(5)),
                _cmd("fill", "f6", "fill", "--dims", "2..5", "--max-cells", "10000", "--seed", s,
                     enumerates=(1, 2)),
                _cmd("coskeletal", "pair", "coskeletal", "--dims", "4..4", enumerates=(3, 4)),
            ),
        ),
        "wide_tables": Workload(
            {
                "s5": lambda: permutation_module(5, even_fiber=False),
                "a5s5": lambda: permutation_module(5, even_fiber=True),
                "s4": lambda: permutation_module(4, even_fiber=False),
            },
            (
                _cmd("validate", "s5", "validate"),
                _cmd("validate", "s5", "classify"),
                _cmd("validate", "a5s5", "validate"),
                _cmd("validate", "a5s5", "classify"),
                _cmd("homotopy", "a5s5", "homotopy", "--pi", "0"),
                _cmd("audit", "s4", "audit", "--dims", "0..2", enumerates=range(3)),
                _cmd("coskeletal", "s4", "coskeletal", "--dims", "2..2", enumerates=(1, 2)),
                _cmd("kan", "s4", "kan", "--dims", "1..2", enumerates=range(3)),
                _cmd("fill", "s4", "fill", "--dims", "2..3", "--max-cells", "10000", "--seed", s),
            ),
        ),
    }


class InputError(Exception):
    """A generated document failed its own axiom or module checks."""


def write_inputs(workload: Workload, seed: int, directory: str) -> dict[str, str]:
    """Relabel, check and serialize every document; returns name -> path."""
    rng = random.Random(seed)
    paths = {}
    for name in sorted(workload.docs):
        xm = relabel(workload.docs[name](), rng)
        report = validate_crossed_monoid(xm)
        if not report.passed:
            raise InputError(f"{name}: generated document fails {report.axioms()}")
        if not classify_structure(xm).is_crossed_module:
            raise InputError(f"{name}: generated document is not a crossed module")
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(io.serialize(io.from_crossed_monoid(xm)))
        paths[name] = path
    return paths
