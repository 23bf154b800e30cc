"""Every function, class and method in ``src/provlab`` has a caller in ``src/``.

A definition counts as called when its name appears anywhere in ``src/`` as a
``Name`` or as an ``Attribute``.  The check is by name, not by binding, so it
misses a dead method that shares its name with a live one; it catches a
definition that nothing in the package mentions at all.  Dunder methods are
called by the interpreter and are skipped.  A scenario body decorated with
``@_scenario(...)`` counts as called: ``run_scenario`` calls it through the
``SCENARIOS`` table the decorator files it in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "provlab"

# definitions that nothing in src/ calls, each with the outside user that keeps it
OUTSIDE_USERS = {
    "parse_jsonl": "bench/tracing.py SPANS wraps it; bench/test_bench.py calls it",
    "fingerprint": "the attack-chain bench workload digests the registry with it",
    "decode_lengths": "the acceptance gates in tests/test_acceptance.py decode with it",
    "parse_payload": "the codec round-trip reference in tests/test_dpl.py",
    "to_jsonl": "the capture writer of docs/wire-format.md, which the goldens hash",
}


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_scenario" for d in node.decorator_list)


def _scan(sources=None):
    if sources is None:
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(SRC.glob("*.py"))}
    defined, referenced = {}, set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _registered(node):
                    referenced.add(node.name)
                elif not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_the_scan_counts_only_a_registered_scenario_as_called():
    source = (
        "from functools import cache\n"
        "def _scenario(name):\n    return lambda body: body\n"
        "@_scenario('x')\ndef registered(report, world):\n    pass\n"
        "def plain():\n    pass\n"
        "@cache\ndef cached():\n    pass\n"
        "class Box:\n"
        "    @property\n    def prop(self):\n        pass\n"
        "    @staticmethod\n    def static():\n        pass\n"
        "Box()\n"
    )
    defined, referenced = _scan({"snippet.py": source})
    assert sorted(set(defined) - referenced) == ["cached", "plain", "prop", "static"]


def test_every_definition_has_a_caller_in_src():
    defined, referenced = _scan()
    uncalled = {name: where for name, where in defined.items()
                if name not in referenced and name not in OUTSIDE_USERS}
    assert uncalled == {}, "only tests call these; delete them or call them from src/"


def test_each_allowed_name_is_defined_and_uncalled_in_src():
    defined, referenced = _scan()
    assert len(OUTSIDE_USERS) == 5
    for name in OUTSIDE_USERS:
        assert name in defined, f"{name} is gone from src/; drop it from OUTSIDE_USERS"
        assert name not in referenced, f"src/ calls {name}; drop it from OUTSIDE_USERS"
