"""Every function, class and method in ``src/provlab`` has a caller in ``src/``.

A definition counts as called when its name appears anywhere in ``src/`` as a
``Name`` or as an ``Attribute``.  The check is by name, not by binding, so it
misses a dead method that shares its name with a live one; it catches a
definition that nothing in the package mentions at all.  Dunder methods are
called by the interpreter and are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "provlab"

# definitions that nothing in src/ calls, each with the outside user that keeps it
OUTSIDE_USERS = {
    "broadcast": "bench/tracing.py SPANS wraps it; bench/test_bench.py calls it",
    "parse_jsonl": "bench/tracing.py SPANS wraps it; bench/test_bench.py calls it",
    "fingerprint": "the attack-chain bench workload digests the registry with it",
    "decode_lengths": "the acceptance gates in tests/test_acceptance.py decode with it",
    "parse_payload": "the codec round-trip reference in tests/test_dpl.py",
    "to_jsonl": "the capture writer of docs/wire-format.md, which the goldens hash",
}


def _scan():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_has_a_caller_in_src():
    defined, referenced = _scan()
    uncalled = {name: where for name, where in defined.items()
                if name not in referenced and name not in OUTSIDE_USERS}
    assert uncalled == {}, "only tests call these; delete them or call them from src/"


def test_each_allowed_name_is_defined_and_uncalled_in_src():
    defined, referenced = _scan()
    assert len(OUTSIDE_USERS) == 6
    for name in OUTSIDE_USERS:
        assert name in defined, f"{name} is gone from src/; drop it from OUTSIDE_USERS"
        assert name not in referenced, f"src/ calls {name}; drop it from OUTSIDE_USERS"
