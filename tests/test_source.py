import ast
import pathlib

import xnerve

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
