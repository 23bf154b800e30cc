"""Every name that ``src/provlab`` or ``tests`` imports is read in its module.

An import binds a name: ``import a.b`` binds ``a``, ``import a as b`` and
``from a import c as b`` bind ``b``.  The name counts as read when it appears
anywhere in the same module as a ``Name``.  ``from __future__`` imports change
how the module compiles and bind nothing that is read, so they are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/provlab/*.py"), *ROOT.glob("tests/*.py")])


def _unused(source: str) -> list[str]:
    imported, read = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(name for name in imported if name not in read)


def test_the_scan_flags_only_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nimport re\n"
        "from a import b, c as d\n"
        "def f():\n    return os.sep, d\n"
    )
    assert _unused(source) == ["b", "j", "re"]


def test_every_imported_name_is_read():
    unused = {path.relative_to(ROOT).as_posix(): names for path in MODULES
              if (names := _unused(path.read_text(encoding="utf-8")))}
    assert unused == {}, "delete these imports"
