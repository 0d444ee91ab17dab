"""The JSON input format and its canonical serialization.

A document lists everything explicitly: objects, morphisms with endpoints,
identity morphisms, the full composition table as triples, one monoid per
object, one action table per morphism and one boundary table per object.
Nothing is generated implicitly, so the parser only owns shape errors
(reported with a JSON path); the mathematics stays with the validator.

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
class MorphismEntry:
    id: int
    src: int
    tgt: int


@dataclass(frozen=True)
class MonoidEntry:
    elements: tuple[int, ...]
    unit: int
    mul: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InputDocument:
    objects: tuple[int, ...]
    morphisms: tuple[MorphismEntry, ...]
    identity: tuple[int, ...]
    compose: tuple[tuple[int, int, int], ...]
    monoids: tuple[MonoidEntry, ...]
    action: tuple[tuple[int, ...], ...]
    boundary: tuple[tuple[int, ...], ...]
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


def _expect_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, found {type(v).__name__}")
    return v


def _all_ints(values) -> bool:
    """Every value is a JSON integer; ``type(v) is int`` also rejects bools."""
    return set(map(type, values)) <= {int}


def _int_row(row, prefix: str, r: int) -> tuple[int, ...]:
    """The array at ``prefix[r]`` as a tuple of integers.

    The whole row is checked at once; JSON paths are formatted only when it
    fails, by the per-entry check that names the first bad entry.
    """
    if type(row) is list and _all_ints(row):
        return tuple(row)
    path = f"{prefix}[{r}]"
    return tuple(_expect_int(v, f"{path}[{c}]") for c, v in enumerate(_expect_list(row, path)))


def _compose_triples(entries: list, num_morphisms: int) -> list[tuple[int, int, int]]:
    """``$.compose`` as checked triples of morphism ids.

    The whole list is checked at once; only when that fails does the
    per-triple check run, which raises with the path of the first bad one.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        flat = list(chain.from_iterable(entries))
        if _all_ints(flat) and (not flat or 0 <= min(flat) and max(flat) < num_morphisms):
            return list(map(tuple, entries))
    compose = []
    for i, entry in enumerate(entries):
        path = f"$.compose[{i}]"
        trip = _expect_list(entry, path)
        if len(trip) != 3:
            _fail(path, f"expected a triple, found {len(trip)} entries")
        a, b, c = (_expect_int(v, f"{path}[{k}]") for k, v in enumerate(trip))
        for v in (a, b, c):
            if not 0 <= v < num_morphisms:
                _fail(path, f"morphism {v} does not exist")
        compose.append((a, b, c))
    return compose


def _dense_keyed(d: dict, count: int, path: str) -> list:
    """Values of a string-keyed map that must cover exactly 0..count-1."""
    out = [None] * count
    for key, value in d.items():
        try:
            k = int(key)
        except ValueError:
            _fail(path, f"key {key!r} is not an integer id")
        if not 0 <= k < count:
            _fail(path, f"key {key} out of range 0..{count - 1}")
        if out[k] is not None:
            _fail(path, f"duplicate key {key}")
        out[k] = value
    for k, value in enumerate(out):
        if value is None:
            _fail(path, f"missing entry for id {k}")
    return out


def parse_input(data: bytes | str) -> InputDocument:
    """Parse and shape-check one document; raises StructureError with a
    JSON path on the first problem."""
    try:
        raw = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:  # not JSON, not UTF-8, or an int of more digits than Python converts
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

    objects_raw = _expect_list(root["objects"], "$.objects")
    objects = tuple(_expect_int(v, f"$.objects[{i}]") for i, v in enumerate(objects_raw))
    if list(objects) != list(range(len(objects))):
        _fail("$.objects", "object ids must be exactly 0..n-1 in order")
    num_objects = len(objects)

    morphisms_raw = _expect_list(root["morphisms"], "$.morphisms")
    seen_ids: set[int] = set()
    morphisms: list[MorphismEntry] = []
    for i, entry in enumerate(morphisms_raw):
        path = f"$.morphisms[{i}]"
        e = _expect_dict(entry, path)
        for k in ("id", "src", "tgt"):
            if k not in e:
                _fail(path, f"missing key {k!r}")
        mid = _expect_int(e["id"], path + ".id")
        if mid in seen_ids:
            _fail(path + ".id", f"duplicate morphism id {mid}")
        seen_ids.add(mid)
        src = _expect_int(e["src"], path + ".src")
        tgt = _expect_int(e["tgt"], path + ".tgt")
        if not 0 <= src < num_objects:
            _fail(path + ".src", f"object {src} does not exist")
        if not 0 <= tgt < num_objects:
            _fail(path + ".tgt", f"object {tgt} does not exist")
        morphisms.append(MorphismEntry(mid, src, tgt))
    num_morphisms = len(morphisms)
    if seen_ids != set(range(num_morphisms)):
        _fail("$.morphisms", "morphism ids must be exactly 0..m-1")
    morphisms.sort(key=lambda m: m.id)

    identity_raw = _dense_keyed(_expect_dict(root["identity"], "$.identity"), num_objects, "$.identity")
    identity = tuple(_expect_int(v, f"$.identity[{x}]") for x, v in enumerate(identity_raw))
    for x, m in enumerate(identity):
        if not 0 <= m < num_morphisms:
            _fail(f"$.identity[{x}]", f"morphism {m} does not exist")

    compose = _compose_triples(_expect_list(root["compose"], "$.compose"), num_morphisms)

    monoid_raw = _dense_keyed(_expect_dict(root["monoids"], "$.monoids"), num_objects, "$.monoids")
    monoids: list[MonoidEntry] = []
    for x, entry in enumerate(monoid_raw):
        path = f"$.monoids[{x}]"
        e = _expect_dict(entry, path)
        for k in ("elements", "unit", "mul"):
            if k not in e:
                _fail(path, f"missing key {k!r}")
        elements = tuple(_expect_int(v, f"{path}.elements[{i}]") for i, v in enumerate(_expect_list(e["elements"], path + ".elements")))
        if list(elements) != list(range(len(elements))):
            _fail(path + ".elements", "element ids must be exactly 0..k-1 in order")
        unit = _expect_int(e["unit"], path + ".unit")
        mul_rows = _expect_list(e["mul"], path + ".mul")
        mul = tuple(_int_row(row, path + ".mul", r) for r, row in enumerate(mul_rows))
        monoids.append(MonoidEntry(elements, unit, mul))

    action_raw = _dense_keyed(_expect_dict(root["action"], "$.action"), num_morphisms, "$.action")
    action = tuple(_int_row(row, "$.action", m) for m, row in enumerate(action_raw))

    boundary_raw = _dense_keyed(_expect_dict(root["boundary"], "$.boundary"), num_objects, "$.boundary")
    boundary = tuple(_int_row(row, "$.boundary", x) for x, row in enumerate(boundary_raw))

    metadata = root.get("metadata")
    if metadata is not None:
        _expect_dict(metadata, "$.metadata")

    return InputDocument(
        objects=objects,
        morphisms=tuple(morphisms),
        identity=identity,
        compose=tuple(compose),
        monoids=tuple(monoids),
        action=action,
        boundary=boundary,
        metadata=metadata,
    )


def to_crossed_monoid(doc: InputDocument) -> CrossedMonoid:
    """Build the algebra; remaining shape problems (partiality of the compose
    list, table sizes) surface here as StructureError."""
    num_m = len(doc.morphisms)
    src = tuple(m.src for m in doc.morphisms)
    tgt = tuple(m.tgt for m in doc.morphisms)
    table: list[list[int | None]] = [[None] * num_m for _ in range(num_m)]
    for a, b, c in doc.compose:
        if table[a][b] is not None:
            raise StructureError(f"compose({a},{b}) listed twice")
        table[a][b] = c
    cat = FiniteCategory(
        num_objects=len(doc.objects),
        src=src,
        tgt=tgt,
        identity=doc.identity,
        compose_table=tuple(tuple(row) for row in table),
    )
    fibers = tuple(FiniteMonoid(len(m.elements), m.unit, m.mul) for m in doc.monoids)
    return CrossedMonoid(cat=cat, fibers=fibers, action=doc.action, boundary=doc.boundary)


def from_crossed_monoid(xm: CrossedMonoid, metadata: dict | None = None) -> InputDocument:
    cat = xm.cat
    compose = tuple(
        (a, b, cat.compose_table[a][b])
        for a in cat.morphisms()
        for b in cat.morphisms()
        if cat.compose_table[a][b] is not None
    )
    return InputDocument(
        objects=tuple(cat.objects()),
        morphisms=tuple(MorphismEntry(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms()),
        identity=cat.identity,
        compose=compose,
        monoids=tuple(MonoidEntry(tuple(f.elements()), f.unit, f.table) for f in xm.fibers),
        action=xm.action,
        boundary=xm.boundary,
        metadata=metadata,
    )


def serialize(doc: InputDocument) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline.

    parse -> serialize is byte-stable, which the golden tests rely on.
    """
    payload: dict = {
        "objects": list(doc.objects),
        "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt} for m in doc.morphisms],
        "identity": {str(x): m for x, m in enumerate(doc.identity)},
        "compose": [list(t) for t in doc.compose],
        "monoids": {
            str(x): {"elements": list(m.elements), "unit": m.unit, "mul": [list(r) for r in m.mul]}
            for x, m in enumerate(doc.monoids)
        },
        "action": {str(m): list(row) for m, row in enumerate(doc.action)},
        "boundary": {str(x): list(row) for x, row in enumerate(doc.boundary)},
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
