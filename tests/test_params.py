"""Every parameter of a ``src/provlab`` function is read in its body.

A parameter that the body never reads is named with a leading ``_``, so that
a caller can tell that its value is ignored.  A read inside a nested function
or lambda counts, and a lambda's own parameters are checked too.  ``self``
and ``cls`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/provlab/*.py"))


def _unread(source: str) -> list[str]:
    """``function.parameter`` for each parameter that is never read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args, body = node.args, node.body if isinstance(node.body, list) else [node.body]
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{getattr(node, 'name', '<lambda>')}.{p}" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return sorted(out)


def test_the_scan_flags_only_parameters_never_read():
    source = (
        "class C:\n"
        "    def m(self, a, _b, c=1, *args, d, **kw):\n"
        "        def inner(e):\n            return a\n"
        "        c = 2\n        return kw, inner\n"
        "    @classmethod\n    def k(cls, x):\n        return lambda y, _z: x\n"
        "async def f(p, /, q):\n    del q\n"
    )
    assert _unread(source) == ["<lambda>.y", "f.p", "f.q", "inner.e", "m.args", "m.c", "m.d"]


def test_every_parameter_is_read():
    unread = {path.relative_to(ROOT).as_posix(): names for path in MODULES
              if (names := _unread(path.read_text(encoding="utf-8")))}
    assert unread == {}, "read these parameters or name them with a leading _"
