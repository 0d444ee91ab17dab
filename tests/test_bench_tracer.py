"""The benchmark's tracer patches functions by name from outside the
package, so deleting a traced name breaks ``bench/run.py --trace 1``.  This
guard installs and uninstalls it in-process."""

import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _bindings():
    """Every attribute of every loaded ``xnerve`` module and of the classes
    they define, by (module, attribute) or (module, class, attribute)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "xnerve" or name.startswith("xnerve.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out


def test_tracer_patches_live_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(owner.__module__, owner.__name__, attr) if isinstance(owner, type) else (owner.__name__, attr)
              for owner, attr, *_ in (*tracer.SPANS, *tracer.LEAVES)}
    before = _bindings()
    t = tracer.Tracer()
    t.install()  # raises if a traced name is gone
    try:
        during = _bindings()
    finally:
        t.uninstall()
    patched = {key for key, value in before.items() if during[key] is not value}
    assert traced | {("xnerve.nerve", "Nerve", "cells")} <= patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
