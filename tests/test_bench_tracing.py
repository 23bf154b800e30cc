"""The benchmark tracer must find every provlab name it wraps.

``bench/tracing.py`` patches functions and methods by name.  Installing it
here makes a rename of a traced name fail this suite, not only a traced
benchmark run, and checks that uninstalling restores every binding.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracing):
    """Every provlab module the tracer patches, and the classes they define."""
    for mod in tracing.MODULES:
        yield mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    before = {ns: dict(vars(ns)) for ns in _namespaces(tracing)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert len(patches) >= sum(map(len, tracing.SPANS.values()))
    for ns, names in before.items():
        after = vars(ns)
        assert after.keys() == names.keys(), ns
        assert all(after[name] is value for name, value in names.items()), ns
