"""Every definition in the package has a reader outside the tests.

Collects each top-level function and class of src/romctl/*.py, with each
class's non-dunder methods and annotated fields, and looks for a reference to
its name (a Name, an Attribute, an import alias or a keyword argument) in the
code under src/, scripts/ and perfbench/. A definition that only tests read
belongs in the tests. The match is by name alone, so a dead definition whose
name something else shares goes unseen.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "romctl"
READERS = ("src", "scripts", "perfbench")

# definitions that may stay without a reader, each with its reason
ALLOWED = {
    "certify_smallness": "the paper's existence certificate; ROADMAP item 6 gives it a caller "
                         "through the cert_zeta column",
    "SmallnessCertificate.satisfied": "the verdict of that certificate, read with it",
}


def definitions():
    """(qualified name, name) of every definition the package makes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def referenced_names():
    names = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
    return names


def test_every_definition_has_a_reader_outside_the_tests():
    names = referenced_names()
    unread = {qual for qual, name in definitions() if name not in names}
    assert sorted(unread - set(ALLOWED)) == []
    # an allowed definition that gained a reader, or went, leaves the list
    assert sorted(set(ALLOWED) - unread) == []
