"""The JSON input format and its canonical serialization.

A document lists everything explicitly, and no key of an object twice:
objects, morphisms with endpoints, identity morphisms, the full composition
table as triples, one monoid per object, one action table per morphism and
one boundary table per object. ``parse_input`` builds the crossed monoid
and raises every shape error: the JSON-path checks first, then a pair of
``$.compose`` listed twice, then the constructors' table shapes (a partial
compose table, table sizes); the mathematics stays with the validator.

Schema::

    {
      "objects":   [0, 1, ...],
      "morphisms": [{"id": 0, "src": 0, "tgt": 0}, ...],
      "identity":  {"0": 0, ...},                 # object -> morphism
      "compose":   [[a, b, ab], ...],             # src(a) == tgt(b), all pairs
      "monoids":   {"0": {"elements": [0, ...], "unit": 0, "mul": [[...]]}},
      "action":    {"0": [ ... ]},                # morphism -> element map
      "boundary":  {"0": [ ... ]},                # object -> element -> morphism
      "metadata":  { ... }                        # optional
    }
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass
from itertools import chain

from .algebra import CrossedMonoid, FiniteCategory, FiniteMonoid
from .errors import StructureError

_REQUIRED_KEYS = ("objects", "morphisms", "identity", "compose", "monoids", "action", "boundary")


@dataclass(frozen=True)
class InputDocument:
    xm: CrossedMonoid
    metadata: dict | None = None


def _fail(path: str, message: str):
    raise StructureError(f"{path}: {message}")


def _expect_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, found {type(v).__name__}")
    return v


def _expect_list(v, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, f"expected an array, found {type(v).__name__}")
    return v


def _expect_dict(v, path: str, keys: tuple[str, ...] = ()) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, found {type(v).__name__}")
    for k in keys:
        if k not in v:
            _fail(path, f"missing key {k!r}")
    return v


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key listed twice raises ValueError (``json.loads`` keeps the last)."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set = set()
        raise ValueError(f"key {next(k for k, _ in pairs if k in seen or seen.add(k))!r} listed twice")
    return out


def _all_ints(values) -> bool:
    """Every value is a JSON integer; ``type(v) is int`` also rejects bools."""
    return set(map(type, values)) <= {int}


def _int_row(row, prefix: str, r: int) -> tuple[int, ...]:
    """The array at ``prefix[r]`` as a tuple of integers, checked whole; the
    per-entry check, with JSON paths, runs only to name the first bad entry."""
    if type(row) is list and _all_ints(row):
        return tuple(row)
    path = f"{prefix}[{r}]"
    return tuple(_expect_int(v, f"{path}[{c}]") for c, v in enumerate(_expect_list(row, path)))


def _compose_triples(entries: list, num_morphisms: int) -> list:
    """``$.compose`` as it is, once checked to list triples of morphism ids.

    The whole list is checked at once; only when that fails does the
    per-triple check run, which raises with the path of the first bad one.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        flat = list(chain.from_iterable(entries))
        if _all_ints(flat) and (not flat or 0 <= min(flat) and max(flat) < num_morphisms):
            return entries
    for i, entry in enumerate(entries):
        path = f"$.compose[{i}]"
        if len(_expect_list(entry, path)) != 3:
            _fail(path, f"expected a triple, found {len(entry)} entries")
        for v in [_expect_int(v, f"{path}[{k}]") for k, v in enumerate(entry)]:
            if not 0 <= v < num_morphisms:
                _fail(path, f"morphism {v} does not exist")
    return entries


def _compose_table(triples, num_morphisms: int) -> tuple[tuple[int | None, ...], ...]:
    """The table of checked triples, made in one pass; a pair listed twice raises."""
    table: list[list[int | None]] = [[None] * num_morphisms for _ in range(num_morphisms)]
    for a, b, c in triples:
        row = table[a]
        if row[b] is not None:
            raise StructureError(f"compose({a},{b}) listed twice")
        row[b] = c
    return tuple(map(tuple, table))


def _dense_keyed(d: dict, count: int, path: str) -> list:
    """Values of a string-keyed map that must cover exactly 0..count-1, each
    key written as ``str`` writes its id (no padding, ``+`` or other digits)."""
    out = [None] * count
    for key, value in d.items():
        try:
            k = int(key)
        except ValueError:
            k = None
        if k is None or str(k) != key:
            _fail(path, f"key {key!r} is not an integer id")
        if not 0 <= k < count:
            _fail(path, f"key {key} out of range 0..{count - 1}")
        out[k] = value
    for k, value in enumerate(out):
        if value is None:
            _fail(path, f"missing entry for id {k}")
    return out


def parse_input(data: bytes | str) -> InputDocument:
    """Parse one document into its crossed monoid; raises StructureError on
    the first shape problem: every JSON-path check first, then a pair of
    ``$.compose`` listed twice, then the constructors' table shapes."""
    try:
        raw = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # not JSON, not UTF-8, a key listed twice, or an int of more digits than Python converts
        raise StructureError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise StructureError("not valid JSON: nested too deeply") from None
    root = _expect_dict(raw, "$")
    for key in _REQUIRED_KEYS:
        if key not in root:
            _fail("$", f"missing required key {key!r}")
    for key in root:
        if key not in _REQUIRED_KEYS and key != "metadata":
            _fail("$", f"unknown key {key!r}")

    objects = [_expect_int(v, f"$.objects[{i}]") for i, v in enumerate(_expect_list(root["objects"], "$.objects"))]
    if objects != list(range(len(objects))):
        _fail("$.objects", "object ids must be exactly 0..n-1 in order")
    num_objects = len(objects)

    ends: dict[int, tuple[int, int]] = {}  # morphism id -> (src, tgt)
    for i, entry in enumerate(_expect_list(root["morphisms"], "$.morphisms")):
        path = f"$.morphisms[{i}]"
        e = _expect_dict(entry, path, ("id", "src", "tgt"))
        mid = _expect_int(e["id"], path + ".id")
        if mid in ends:
            _fail(path + ".id", f"duplicate morphism id {mid}")
        src = _expect_int(e["src"], path + ".src")
        tgt = _expect_int(e["tgt"], path + ".tgt")
        if not 0 <= src < num_objects:
            _fail(path + ".src", f"object {src} does not exist")
        if not 0 <= tgt < num_objects:
            _fail(path + ".tgt", f"object {tgt} does not exist")
        ends[mid] = src, tgt
    num_morphisms = len(ends)
    if set(ends) != set(range(num_morphisms)):
        _fail("$.morphisms", "morphism ids must be exactly 0..m-1")

    identity_raw = _dense_keyed(_expect_dict(root["identity"], "$.identity"), num_objects, "$.identity")
    identity = tuple(_expect_int(v, f"$.identity[{x}]") for x, v in enumerate(identity_raw))
    for x, m in enumerate(identity):
        if not 0 <= m < num_morphisms:
            _fail(f"$.identity[{x}]", f"morphism {m} does not exist")

    compose = _compose_triples(_expect_list(root["compose"], "$.compose"), num_morphisms)

    monoid_raw = _dense_keyed(_expect_dict(root["monoids"], "$.monoids"), num_objects, "$.monoids")
    monoids = []  # (size, unit, mul) of each fiber
    for x, entry in enumerate(monoid_raw):
        path = f"$.monoids[{x}]"
        e = _expect_dict(entry, path, ("elements", "unit", "mul"))
        elements = [_expect_int(v, f"{path}.elements[{i}]") for i, v in enumerate(_expect_list(e["elements"], path + ".elements"))]
        if elements != list(range(len(elements))):
            _fail(path + ".elements", "element ids must be exactly 0..k-1 in order")
        unit = _expect_int(e["unit"], path + ".unit")
        mul = tuple(_int_row(row, path + ".mul", r) for r, row in enumerate(_expect_list(e["mul"], path + ".mul")))
        monoids.append((len(elements), unit, mul))

    action_raw = _dense_keyed(_expect_dict(root["action"], "$.action"), num_morphisms, "$.action")
    action = tuple(_int_row(row, "$.action", m) for m, row in enumerate(action_raw))

    boundary_raw = _dense_keyed(_expect_dict(root["boundary"], "$.boundary"), num_objects, "$.boundary")
    boundary = tuple(_int_row(row, "$.boundary", x) for x, row in enumerate(boundary_raw))

    metadata = root.get("metadata")
    if metadata is not None:
        _expect_dict(metadata, "$.metadata")

    # the table after every path check, and the constructors after the table
    table = _compose_table(compose, num_morphisms)
    srcs = [ends[m][0] for m in range(num_morphisms)]
    tgts = [ends[m][1] for m in range(num_morphisms)]
    cat = FiniteCategory(num_objects, srcs, tgts, identity, table)
    fibers = tuple(FiniteMonoid(*m) for m in monoids)
    return InputDocument(CrossedMonoid(cat=cat, fibers=fibers, action=action, boundary=boundary), metadata)


def to_crossed_monoid(doc: InputDocument) -> CrossedMonoid:
    return doc.xm


def from_crossed_monoid(xm: CrossedMonoid, metadata: dict | None = None) -> InputDocument:
    return InputDocument(xm, metadata)


def serialize(doc: InputDocument) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline,
    composites listed by (a, b) ascending.

    parse -> serialize is byte-stable, which the golden tests rely on.
    """
    xm = doc.xm
    cat = xm.cat
    payload: dict = {
        "objects": list(cat.objects()),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, (s, t) in enumerate(zip(cat.src, cat.tgt))],
        "identity": {str(x): m for x, m in enumerate(cat.identity)},
        "compose": [[a, b, c] for a, row in enumerate(cat.compose_table) for b, c in enumerate(row) if c is not None],
        "monoids": {
            str(x): {"elements": list(f.elements()), "unit": f.unit, "mul": [list(r) for r in f.table]}
            for x, f in enumerate(xm.fibers)
        },
        "action": {str(m): list(row) for m, row in enumerate(xm.action)},
        "boundary": {str(x): list(row) for x, row in enumerate(xm.boundary)},
    }
    if doc.metadata is not None:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_path(path) -> CrossedMonoid:
    """The document at ``path``; OSError for a path ``open`` refuses, also with ValueError (a NUL byte)."""
    try:
        fh = open(path, "rb")
    except ValueError as exc:
        raise OSError(errno.EINVAL, str(exc)) from None
    with fh:
        return to_crossed_monoid(parse_input(fh.read()))
