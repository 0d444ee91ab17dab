"""Call tracer applied to the ``xnerve`` package from outside.

``Tracer.install()`` replaces each traced function at every module binding
of that function object (``cli``, ``homotopy`` and ``fillers`` import names
directly, and the package re-exports them), and replaces traced methods on
their class.  ``uninstall()`` puts the originals back.

Two kinds of call are recorded:

* coarse calls get a span: name, start and end (ns), the id of the span
  that caused it, and a command id shared by every span opened under one
  ``cli.run`` call.  Spans stay in memory until the benchmark writes them;
* hot leaf calls (face, degeneracy, each ``next()`` of ``Nerve.cells``,
  cell_at, fill, beta, ...) are only aggregated into their enclosing span
  as a call count and total and self nanoseconds, so memory stays bounded.

Every call, span or leaf, knows how much of its duration its traced
children covered, so self time is duration minus that coverage, and the
self times of all calls under a root span add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from xnerve import cli, fillers, groups, homotopy, nerve, simplicial
from xnerve import algebra, io as xio

# (module, attribute, metric name, extra): spans, with an optional function
# of (args, result) whose value is summed into the span's ``count``.
SPANS = (
    (cli, "run", "cli.run", None),
    (xio, "parse_input", "io.parse_input", lambda args, result: len(args[0])),
    (xio, "to_crossed_monoid", "io.to_crossed_monoid", None),
    (algebra, "validate_crossed_monoid", "algebra.validate_crossed_monoid", None),
    (algebra, "classify_structure", "algebra.classify_structure", None),
    (simplicial, "simplicial_kernel", "simplicial.simplicial_kernel", lambda args, result: len(result)),
    (simplicial, "horns", "simplicial.horns", lambda args, result: len(result)),
    (simplicial, "check_coskeletal", "simplicial.check_coskeletal", None),
    (simplicial, "check_kan", "simplicial.check_kan", None),
    (simplicial, "audit_simplicial", "simplicial.audit_simplicial", None),
    (simplicial, "pi_bruteforce", "simplicial.pi_bruteforce", None),
    (homotopy, "pi_compare", "homotopy.pi_compare", None),
    (homotopy, "higher_vanishing", "homotopy.higher_vanishing", None),
    (groups, "find_isomorphism", "groups.find_isomorphism", None),
)

# Aggregated leaf calls: (owner, attribute, metric name, split by dimension).
# The dimension is that of the first argument after ``self`` (cell or horn).
LEAVES = (
    (nerve.Nerve, "face", "nerve.face", True),
    (nerve.Nerve, "degeneracy", "nerve.degeneracy", True),
    (nerve.Nerve, "count_cells", "nerve.count_cells", False),
    (nerve.Nerve, "cell_at", "nerve.cell_at", False),
    (nerve.Nerve, "corner_assemble", "nerve.corner_assemble", False),
    (fillers.HornFiller, "fill", "fillers.fill", True),
    (simplicial, "beta", "simplicial.beta", False),
    (simplicial, "is_compatible_horn", "simplicial.is_compatible_horn", False),
)


class Span:
    __slots__ = ("id", "name", "parent", "cmd", "start", "end", "self_ns", "count", "leaves")

    def __init__(self, id_, name, parent, cmd):
        self.id = id_
        self.name = name
        self.parent = parent
        self.cmd = cmd
        self.start = self.end = self.self_ns = 0
        self.count = 0
        # leaf name -> [calls, total ns, self ns]
        self.leaves: dict[str, list[int]] = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "cmd": self.cmd,
            "start_ns": self.start, "end_ns": self.end, "self_ns": self.self_ns,
            "count": self.count, "leaves": self.leaves,
        }


class Tracer:
    def __init__(self):
        # Span 0 collects leaf calls made outside any traced span.
        self.spans: list[Span] = [Span(0, "outside", None, None)]
        # Open calls, innermost last; each holds the ns its children covered.
        self._covered: list[list[int]] = [[0]]
        self._open_spans: list[Span] = [self.spans[0]]
        self._cmd = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, count in SPANS:
            self._replace_everywhere(getattr(module, attr), self._span_wrapper(getattr(module, attr), name, count))
        for owner, attr, name, by_dim in LEAVES:
            original = owner.__dict__[attr]
            wrapper = self._leaf_wrapper(original, name, by_dim)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        original = nerve.Nerve.__dict__["cells"]
        self._restore.append((nerve.Nerve, "cells", original))
        nerve.Nerve.cells = self._generator_wrapper(original, "nerve.cells")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "xnerve" or modname.startswith("xnerve.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, count):
        covered, open_spans, spans, now = self._covered, self._open_spans, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            if name == "cli.run":
                self._cmd += 1
            span = Span(len(spans), name, open_spans[-1].id, self._cmd)
            spans.append(span)
            mine = [0]
            covered.append(mine)
            open_spans.append(span)
            span.start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                covered.pop()
                open_spans.pop()
                duration = span.end - span.start
                span.self_ns = duration - mine[0]
                covered[-1][0] += duration
            if count is not None:
                span.count += count(args, result)
            return result

        return traced

    def _leaf_wrapper(self, fn, name, by_dim):
        covered, open_spans, now = self._covered, self._open_spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            mine = [0]
            covered.append(mine)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                _account(covered, open_spans[-1], f"{name}.d{args[1].dim}" if by_dim else name, start, mine)

        return traced

    def _generator_wrapper(self, fn, name):
        """Times each ``next()`` of the generator; ``<name>.yielded`` counts
        the items handed out."""
        covered, open_spans, now = self._covered, self._open_spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                mine = [0]
                covered.append(mine)
                start = now()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    _account(covered, open_spans[-1], name, start, mine)
                leaves = open_spans[-1].leaves
                leaves.setdefault(name + ".yielded", [0, 0, 0])[0] += 1
                yield item

        return traced

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per traced name (leaves merged over dims)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_ns / 1e9
            for key, (calls, total, own) in span.leaves.items():
                if not key.endswith(".yielded"):
                    out[_base(key)] += own / 1e9
        return dict(out)

    def totals(self) -> dict[str, list[int]]:
        """Per leaf key over all spans: [calls, total ns, self ns]."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for span in self.spans:
            for key, values in span.leaves.items():
                slot = out[key]
                for i, v in enumerate(values):
                    slot[i] += v
        return dict(out)

    def subtree_leaf_calls(self, root_name: str, leaf: str) -> int:
        """Calls of ``leaf`` (all dimensions) under every span named
        ``root_name``, its descendant spans included."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        total = 0
        todo = [s for s in self.spans if s.name == root_name]
        while todo:
            span = todo.pop()
            total += sum(v[0] for k, v in span.leaves.items() if _base(k) == leaf)
            todo.extend(children[span.id])
        return total


def _account(covered, span, key, start, mine) -> None:
    """Close a leaf call: pass its duration to the enclosing call's coverage
    and add it to ``span``'s aggregate for ``key``."""
    duration = time.perf_counter_ns() - start
    covered.pop()
    covered[-1][0] += duration
    slot = span.leaves.get(key)
    if slot is None:
        slot = span.leaves[key] = [0, 0, 0]
    slot[0] += 1
    slot[1] += duration
    slot[2] += duration - mine[0]


def _base(key: str) -> str:
    """``nerve.face.d3`` -> ``nerve.face``."""
    head, _, tail = key.rpartition(".")
    return head if tail[:1] == "d" and tail[1:].isdigit() else key
