"""No frozen dataclass of the package holds mutable state.

A `@dataclass(frozen=True)` value is read as fixed once built. A field with
`field(default_factory=...)` gives each instance a fresh mutable object (a
list, a dict) that methods can fill behind the frozen fields, a cache whose
key the value does not show. The test scans src/romctl/*.py with ast and
lists every such field; a quantity derived from the frozen fields alone
belongs in a `functools.cached_property` instead.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "romctl"


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = dec.func.id if isinstance(dec.func, ast.Name) else getattr(dec.func, "attr", None)
        if name == "dataclass" and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in dec.keywords
        ):
            return True
    return False


def mutable_fields(source: str, label: str):
    """(frozen class names, `label:line Class.attr` of each default_factory
    field among them) of one module's source."""
    frozen, found = [], []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)):
            continue
        frozen.append(node.name)
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call)):
                continue
            if any(kw.arg == "default_factory" for kw in item.value.keywords):
                target = item.target.id if isinstance(item.target, ast.Name) else "?"
                found.append(f"{label}:{item.lineno} {node.name}.{target}")
    return frozen, found


def test_the_scan_sees_a_mutable_field_behind_a_frozen_value():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Held:\n"
        "    x: int\n"
        "    _cache: list = field(default_factory=list, init=False)\n"
        "@dataclass\n"
        "class Open:\n"
        "    items: list = field(default_factory=list)\n"
    )
    assert mutable_fields(source, "sample") == (["Held"], ["sample:5 Held._cache"])


def test_no_frozen_dataclass_declares_a_default_factory_field():
    frozen, found = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        classes, fields = mutable_fields(path.read_text(), path.name)
        frozen += classes
        found += fields
    assert "SpodRomOperators" in frozen  # the scan reads the package's frozen values
    assert found == []
