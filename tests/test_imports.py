"""Every name that ``src/provlab`` or ``tests`` imports is read in its module.

An import binds a name: ``import a.b`` binds ``a``, ``import a as b`` and
``from a import c as b`` bind ``b``.  The name counts as read when it appears
anywhere in the same module as a ``Name``.  ``from __future__`` imports change
how the module compiles and bind nothing that is read, so they are skipped.

provlab is single-threaded by contract, so no ``src/provlab`` module imports
a threading or concurrency module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/provlab/*.py"))
MODULES = sorted([*SRC, *ROOT.glob("tests/*.py")])
CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing", "asyncio"}


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


def _concurrency(source: str) -> list[str]:
    """The top-level packages of the absolute imports that are in ``CONCURRENCY``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.partition(".")[0])
    return sorted(name for name in found if name in CONCURRENCY)


def test_the_concurrency_scan_flags_each_form_of_import():
    source = (
        "import threading\nimport os, _thread as t\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from multiprocessing import Pool\n"
        "def f():\n    import asyncio\n"
        "from .threading import x\nimport json\nfrom queue import Queue\n"
    )
    assert _concurrency(source) == ["_thread", "asyncio", "concurrent", "multiprocessing",
                                    "threading"]


def test_no_src_module_imports_a_concurrency_module():
    found = {path.relative_to(ROOT).as_posix(): names for path in SRC
             if (names := _concurrency(path.read_text(encoding="utf-8")))}
    assert found == {}, "provlab is single-threaded"
