"""The benchmark's traced boundaries still exist in the library.

`bench/tracing.py` wraps library functions found by name; deleting or
renaming one breaks `bench/run.py --trace 1`. The benchmark's own tests
live under `bench/`, outside the default test paths, so this check runs
with the library's tests.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    tracing = load_tracing()
    modules = tracing._modules()
    unresolved = []
    for module_name, path in tracing.TRACED:
        try:
            original, sites = tracing.binding_sites(modules, module_name, path)
        except (AttributeError, KeyError):
            unresolved.append(f"{module_name}.{path}")
            continue
        if not callable(original) or not sites:
            unresolved.append(f"{module_name}.{path}")
    assert unresolved == []
