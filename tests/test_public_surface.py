"""Every definition in the package has a reader outside the tests.

Collects each top-level function and class of src/romctl/*.py, with each
class's non-dunder methods and annotated fields, and looks for a reference to
its name in the code under src/, scripts/ and perfbench/: a Name, an
Attribute, an import alias or a keyword argument for a top-level definition,
and an Attribute or a keyword argument for a class member, which no bare Name
reads. A definition that only tests read belongs in the tests. The match is
by name alone, so a dead definition whose name something else shares in the
same role goes unseen.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "romctl"
READERS = ("src", "scripts", "perfbench")

# definitions that may stay without a reader, each with its reason
ALLOWED = {
    "certify_smallness": "the paper's existence certificate; ROADMAP item 9 gives it a caller "
                         "through the cert_zeta column",
    "SmallnessCertificate.satisfied": "the verdict of that certificate, read with it",
    "SmallnessCertificate.zeta": "the slack of that certificate, the cert_zeta column itself",
}


def definitions():
    """(qualified name, name, whether a class member) of every definition the
    package makes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name, False
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, True
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, True


def referenced_names():
    """The names the readers refer to, and the subset that can name a class
    member: attribute reads and keyword arguments."""
    names, members = set(), set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    members.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.keyword) and node.arg:
                    members.add(node.arg)
    return names | members, members


def test_every_definition_has_a_reader_outside_the_tests():
    names, members = referenced_names()
    unread = {qual for qual, name, member in definitions()
              if name not in (members if member else names)}
    assert sorted(unread - set(ALLOWED)) == []
    # an allowed definition that gained a reader, or went, leaves the list
    assert sorted(set(ALLOWED) - unread) == []
