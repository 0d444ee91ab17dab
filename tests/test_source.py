import ast
import pathlib
import re
import sys

import xnerve
from report_corpus import cases, run_case

SOURCES = sorted(pathlib.Path(xnerve.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips assert, so correctness checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _functions_taking(name):
    """``module.py:Class.function`` of every function or lambda in the
    package with a parameter called ``name``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if name in {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}:
                    cls = owner[node]
                    prefix = f"{cls.name}." if isinstance(cls, ast.ClassDef) else ""
                    found.append(f"{path.name}:{prefix}{getattr(node, 'name', '<lambda>')}")
    return found


def test_only_a_nerve_takes_a_cell_budget():
    # The cell budget belongs to the nerve, ``Nerve(xm, cap)``; a function
    # with a ``cap`` parameter would thread it by hand again.  CapacityError
    # only records the budget it was refused under.
    assert _functions_taking("cap") == ["errors.py:CapacityError.__init__", "nerve.py:Nerve.__init__"]


def test_no_function_takes_a_memo():
    # The face rows of levels not built belong to the nerve, as its budget
    # does (``Nerve.faces_of`` keeps them); a ``memo`` parameter would pass
    # them by hand again.
    assert _functions_taking("memo") == []


def test_only_nerve_py_reads_the_privates_of_a_nerve():
    # The rank calculus is one module: no other module reads an underscore
    # attribute that ``class Nerve`` defines, as a method or on ``self``.
    by_name = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    nerve = next(node for node in by_name["nerve.py"].body if isinstance(node, ast.ClassDef) and node.name == "Nerve")
    private = {node.name for node in nerve.body if isinstance(node, ast.FunctionDef)}
    private |= {node.attr for node in ast.walk(nerve) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and node.value.id == "self"}
    private = {name for name in private if name.startswith("_") and not name.startswith("__")}
    assert {"_dim", "_starts", "_block_of", "_plan_of", "_block_faces", "_check_ranks"} <= private
    found = [f"{name}:{node.lineno}" for name, tree in by_name.items() if name != "nerve.py"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def test_sources_stay_within_the_line_budget():
    # ROADMAP's line budget: a change that adds lines to ``src/`` pays for
    # them elsewhere, so the budget is checked here and not only reported
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SOURCES)
    assert lines <= 3500, f"src/xnerve/*.py has {lines} lines, over the budget of 3,500"


def test_only_cli_run_pauses_the_cyclic_collector():
    # ``cli.run`` pauses the collector for one command and restores the
    # state it found; a library call that switched it would leave the
    # caller's process changed
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in {"disable", "enable", "freeze"} \
                    and isinstance(node.value, ast.Name) and node.value.id == "gc":
                scope = owner[node]
                while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    scope = owner[scope]
                calls.append(f"{path.name}:{getattr(scope, 'name', '<module>')}:gc.{node.attr}")
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "gc" for node in ast.walk(tree)), path.name
    assert sorted(calls) == ["cli.py:run:gc.disable", "cli.py:run:gc.enable"]


def test_fillers_assemble_cells_only_where_they_are_checked():
    # ``HornFiller._cell_with_boundary`` compares every cell it assembles
    # with the face row it was built from; a filler path that called
    # ``assemble_ids`` anywhere else could return a cell nobody checked
    path = next(path for path in SOURCES if path.name == "fillers.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "assemble_ids":
            scope, names = node, []
            while scope in owner:
                scope = owner[scope]
                if isinstance(scope, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    names.insert(0, getattr(scope, "name", "<lambda>"))
            sites.append(".".join(names))
    assert sites and set(sites) == {"HornFiller._cell_with_boundary"}


def test_only_the_nerves_constructors_make_cells():
    # Ranks in, cells only out: every map of the nerve works on ranks, and a
    # cell is made only where an object id, entries or a rank become one
    sites = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) in {"NerveCell", "_cell"}:
                scope = owner[node]
                while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    scope = owner[scope]
                sites.add(f"{path.name}:{getattr(scope, 'name', '<module>')}")
    assert sites == {"nerve.py:point", "nerve.py:cell", "nerve.py:cells", "nerve.py:cell_at"}


def test_only_cli_run_picks_an_exit_code():
    # A command returns its checks and ``run`` applies one rule to them; a
    # command that named an exit code would work the rule out again
    path = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    scopes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in {"EXIT_OK", "EXIT_STRUCTURAL", "EXIT_PROPERTY"}:
            scope = owner[node]
            while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)):
                scope = owner[scope]
            scopes.add("<module>" if scope is tree else getattr(scope, "name", "<lambda>"))
    assert scopes == {"<module>", "run"}


def test_only_the_readers_of_a_document_raise_a_structural_error():
    # The ``structural`` kind (exit 1) is for a document that cannot be used:
    # ``io`` and the ``algebra`` constructors raise StructureError on its
    # shape, and the nerve raises CellError on a cell's.  A fault that the
    # axioms report, met later by a command, is an ``error`` (exit 2).
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in {"StructureError", "CellError"}:
                    found.add((path.name, exc.id))
    assert found == {("algebra.py", "StructureError"), ("io.py", "StructureError"), ("nerve.py", "CellError")}


def test_no_module_catches_key_error():
    # A face outside its level is refused where the nerve is built, so no
    # KeyError is a signal to catch: a handler for one would hide a fault
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                found += [f"{path.name}:{node.lineno}" for t in types if isinstance(t, ast.Name) and t.id == "KeyError"]
    assert SOURCES and found == []


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _run_readme_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_python_blocks_run():
    _run_readme_blocks()


def _definitions():
    """``module.py:Qualified.name`` of every ``def`` in the package, by
    (file, first line of its code object: its first decorator's or its own)."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), line] = f"{path.name}:{prefix}{child.name}"
                visit(path, child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(path, child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in SOURCES:
        visit(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


_TRACED = "bench/tracer.py patches it, or a function it patches calls it"
_BENCH = "bench/ calls it"
_API = "library API that only the tests call"
# The definitions that no corpus command and no README block calls, each
# with the one reason it stays; a module name covers every def in it.
UNCALLED = {
    "fixtures.py": "bench/workloads.py, tests/report_corpus.py and README build their inputs from it",
    "cli.py:main": "the console script",
    "fillers.py:HornFiller.fill": _TRACED,
    "nerve.py:Nerve.corner_assemble": _TRACED,
    "simplicial.py:beta": _TRACED,
    "simplicial.py:is_compatible_horn": _TRACED,
    "simplicial.py:HornTuple.slots": _TRACED,
    "io.py:serialize": _BENCH,
    "io.py:from_crossed_monoid": _BENCH,
    "algebra.py:ValidationReport.axioms": _BENCH,
    "algebra.py:ValidationReport.find": _API,
    "simplicial.py:KanReport.is_kan": _API,
    "nerve.py:NerveCell.corner": _API,
    "simplicial.py:BoundaryTuple.dim": _API,
    "simplicial.py:CellTuples.__getitem__": _API,
    "simplicial.py:CellTuples.__iter__": _API,
    "nerve.py:Nerve.cell": _API,
    "errors.py:NotKanError.__init__": "no corpus input fails a Kan check under pi",
}


def test_every_definition_is_reached_by_the_corpus_or_the_readme():
    # Code that nothing needs is deleted: every ``def`` of the package runs
    # under some report-corpus command or README block, or ``UNCALLED``
    # says why it stays.  A call-only trace hook records the code objects.
    definitions, called = _definitions(), set()

    def hook(frame, event, arg):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in cases():
            run_case(argv)
        _run_readme_blocks()
    finally:
        sys.settrace(previous)
    named = set(definitions.values())
    reached = {definitions[key] for key in called if key in definitions}
    assert {name for name in UNCALLED if ":" in name} <= named
    assert reached.isdisjoint(UNCALLED), "reached now: drop them from UNCALLED"
    assert sorted(n for n in named - reached if n not in UNCALLED and n.split(":")[0] not in UNCALLED) == []
