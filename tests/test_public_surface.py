"""Every definition in the package has a reader outside the tests, and every
parameter with a default has a caller that passes it.

The first test collects each top-level function and class of
src/romctl/*.py, with each class's non-dunder methods and annotated fields,
and looks for a reference to its name in the code under src/, scripts/ and
perfbench/: a Name, an Attribute, an import alias or a keyword argument for a
top-level definition, and an Attribute or a keyword argument for a class
member, which no bare Name reads. A definition that only tests read belongs
in the tests. The match is by name alone, so a dead definition whose name
something else shares in the same role goes unseen.

The second test collects each top-level function and method of
src/romctl/*.py, and for each parameter with a default looks for a call under
src/, scripts/ or perfbench/ that passes it: by keyword, or by a positional
count above its index (after self). A callee matches by name, with import
aliases resolved across the reader files, and `__init__` by its class name. A
call with *args or **kwargs counts as passing everything. A default that no
caller outside the tests moves is a constant, and belongs in the module as
one; a parameter that only tests pass is listed in TEST_HOOKS with its reason.

The third test reads the imports of src/romctl/*.py: no module imports a
`_`-prefixed name of another, nor reads one from a module it imported. What
a module keeps private only it reads; a decision two modules share is public
in the one that makes it.

The fourth test reads the numerical modules and the optimizer: none imports
a file-format or path module or calls a file writer or `open`. Every artifact file is written
by experiments, which names, places and formats it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "romctl"
READERS = ("src", "scripts", "perfbench")

# definitions that may stay without a reader, each with its reason
ALLOWED: dict[str, str] = {}

# defaulted parameters that only tests pass, each with its reason
TEST_HOOKS = {
    "fd_gradient_check(n_directions)": "fewer directions keep the per-model gradient tests "
                                       "fast; the CLI checks the default ten",
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


def defaulted_parameters():
    """(callee name, qualified name, parameter, positional index or None for
    keyword-only) of every parameter with a default in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaulted(node, node.name, node.name, method=False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        callee = node.name if item.name == "__init__" else item.name
                        yield from _defaulted(item, callee, f"{node.name}.{item.name}",
                                              method=True)


def _defaulted(fn, callee, qual, method):
    positional = fn.args.posonlyargs + fn.args.args
    offset = 1 if method else 0  # self or cls is not passed
    for k in range(len(positional) - len(fn.args.defaults), len(positional)):
        yield callee, qual, positional[k].arg, k - offset
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield callee, qual, arg.arg, None


def calls():
    """(callee name, positional count, keyword names, whether it splats) of
    every call in the readers, with import aliases resolved."""
    trees = [ast.parse(path.read_text())
             for top in READERS for path in sorted((ROOT / top).rglob("*.py"))]
    aliases = {node.asname: node.name.rpartition(".")[2]
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.alias) and node.asname}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            keywords = {kw.arg for kw in node.keywords}
            splat = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            yield name, len(node.args), keywords, splat


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    by_callee = {}
    for name, n_args, keywords, splat in calls():
        by_callee.setdefault(name, []).append((n_args, keywords, splat))
    unpassed = [
        f"{qual}({param})"
        for callee, qual, param, position in defaulted_parameters()
        if not any(splat or param in keywords or (position is not None and n_args > position)
                   for n_args, keywords, splat in by_callee.get(callee, ()))
    ]
    assert sorted(set(unpassed) - set(TEST_HOOKS)) == []
    # a hook that gained a caller outside the tests, or went, leaves the list
    assert sorted(set(TEST_HOOKS) - set(unpassed)) == []


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()  # the package's modules this one imports by name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "romctl"):
                for alias in node.names:
                    if alias.name in modules and node.module in (None, "romctl"):
                        imported.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.append(f"{path.name}:{node.lineno} {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in imported):
                reads.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert reads == []


NUMERICAL = ("discretization", "control", "transform", "basis", "fom", "rom_pod", "rom_spod",
             "models", "optimizer")
FILE_MODULES = {"csv", "struct", "json", "pathlib"}
FILE_CALLS = {"open", "savetxt", "tofile", "write_text", "write_bytes"}


def test_numerical_modules_do_no_file_io():
    found = []
    for name in NUMERICAL:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                mods = []
            found += [f"{path.name}:{node.lineno} import {m}" for m in mods
                      if m.partition(".")[0] in FILE_MODULES]
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                if called in FILE_CALLS:
                    found.append(f"{path.name}:{node.lineno} {called}()")
    assert found == []
