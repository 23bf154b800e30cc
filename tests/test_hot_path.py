"""The device's decode path looks up no Enum member.

``EnumType`` defines ``__getattr__``, so ``Phase.COMPLETE`` goes through a
slow attribute hook on every lookup.  The device's run handler and the bank
entry it calls, which run once per heard run, and the decoder's frame loop
compare against module constants bound once instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOT = {
    "src/provlab/dpl.py": ["DecoderState.feed_many", "DecoderBank.feed"],
    "src/provlab/device.py": ["IoTDevice._on_run"],
}
ENUMS = {"Phase", "DevicePhase", "dpl.Phase"}


def _enum_lookups(source: str, qualnames: list[str]) -> dict[str, list[str]]:
    """``qualname -> ["Enum.MEMBER", ...]`` for each named method of a
    top-level class; a method that is not there maps to ``["missing"]``."""
    methods = {f"{cls.name}.{fn.name}": fn
               for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    out = {}
    for name in qualnames:
        fn = methods.get(name)
        found = ["missing"] if fn is None else sorted(
            f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ENUMS)
        if found:
            out[name] = found
    return out


def test_the_scan_flags_enum_member_lookups():
    source = (
        "class A:\n"
        "    def hot(self, s):\n"
        "        if s.phase is dpl.Phase.COMPLETE or self.phase is DevicePhase.X:\n"
        "            return Phase.FAILED\n"
        "        return s.phase is COMPLETE and self.Phase.X\n"
        "    def cold(self):\n        return Phase.HUNTING\n"
    )
    assert _enum_lookups(source, ["A.hot", "A.cold", "A.gone", "B.hot"]) == {
        "A.hot": ["DevicePhase.X", "Phase.FAILED", "dpl.Phase.COMPLETE"],
        "A.cold": ["Phase.HUNTING"],
        "A.gone": ["missing"],
        "B.hot": ["missing"],
    }
    assert _enum_lookups(source, []) == {}


def test_the_per_frame_path_looks_up_no_enum_member():
    found = {path: lookups for path, names in HOT.items()
             if (lookups := _enum_lookups((ROOT / path).read_text(encoding="utf-8"), names))}
    assert found == {}, "compare against module constants bound once"
