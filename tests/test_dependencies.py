"""The engine imports nothing beyond the standard library and NumPy, the
package calls every name it exports, every function, method and class it
defines has a reference in it, and the README lists the engine's names."""

import ast
import re
import sys
from pathlib import Path

import pytest

import fgn.tensor

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fgn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> list[str]:
    """Top-level module of every absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_package_has_modules():
    assert len(list(PACKAGE.glob("*.py"))) > 5


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    outside = sorted(set(absolute_imports(path)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports (``__future__`` aside) but never references;
    a name listed in ``__all__`` counts as referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports {unused} but never uses them"


def engine_calls(path: Path) -> set[str]:
    """Engine names ``path`` calls: ``T.<name>(...)``, or ``<name>(...)``
    after ``from .tensor import <name>``. Importing or reading a name is no
    call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "tensor" for a in node.names}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "T":
            names.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in imported:
            names.add(f.id)
    return names


def test_every_public_engine_op_is_used_by_the_package():
    called = set().union(*(engine_calls(p) for p in PACKAGE.glob("*.py")
                           if p.name != "tensor.py"))
    uncalled = sorted(set(fgn.tensor.__all__) - called)
    assert not uncalled, (f"fgn.tensor exports {uncalled} but no other module of fgn "
                          f"calls them")


README = PACKAGE.parents[1] / "README.md"


def readme_engine_names() -> list[str]:
    """The names the README's ``fgn.tensor`` row lists: the backticked name
    that opens each ``<br>``-separated entry."""
    row = next(line for line in README.read_text(encoding="utf-8").splitlines()
               if line.startswith("| `fgn.tensor` |"))
    return re.findall(r"<br>`(\w+)`", row)


def test_readme_lists_exactly_the_public_engine_names():
    listed = readme_engine_names()
    assert sorted(listed) == sorted(set(listed)), f"the README lists {listed} with repeats"
    assert set(listed) == set(fgn.tensor.__all__), (
        f"README's fgn.tensor row lists {sorted(listed)}; fgn.tensor.__all__ is "
        f"{sorted(fgn.tensor.__all__)}")


def references_record(path: Path) -> bool:
    """Whether ``path`` references the engine's private ``_record``:
    ``T._record``, or ``_record`` imported from ``.tensor``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "_record"
                and isinstance(node.value, ast.Name) and node.value.id == "T"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor"
                and any(a.name == "_record" for a in node.names)):
            return True
    return False


def test_only_the_engine_records_tape_entries():
    recorders = sorted(p.name for p in PACKAGE.glob("*.py")
                       if p.name != "tensor.py" and references_record(p))
    assert not recorders, (f"{recorders} put entries on the tape through T._record; "
                           f"only fgn.tensor may")


def uncalled_definitions() -> list[str]:
    """Functions, methods and classes defined in the package, dunders aside,
    whose name nothing else in it references: no name or attribute read of
    it in any module, and no ``__all__`` entry.

    The walk goes by name alone, so it cannot tell owners apart: a method
    that nothing calls passes when another class defines a method of the
    same name that is called (``to_dict``, say), or when any attribute of
    that name is read. A name only a test reads counts as uncalled."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined.extend(definitions(tree, f"{path.stem}."))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                referenced.update(ast.literal_eval(node.value))
    return sorted(qualname for qualname, name in defined
                  if name not in referenced and not (name.startswith("__") and name.endswith("__")))


def definitions(node: ast.AST, prefix: str) -> list[tuple[str, str]]:
    """(qualified name, name) of every function and class defined under
    ``node``, nested ones included."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((prefix + child.name, child.name))
            found.extend(definitions(child, f"{prefix}{child.name}."))
        else:
            found.extend(definitions(child, prefix))
    return found


def test_every_definition_has_a_caller_in_the_package():
    uncalled = uncalled_definitions()
    assert not uncalled, f"nothing in src/fgn references {uncalled}"
