"""Source hygiene a linter would check: no module of the package imports a
name it never uses, and every private name the package defines is used in
it.  `__init__.py` is left out of the import check, as its imports are the
package's exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ctforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_modules_found():
    assert len(MODULES) == 10


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from .laurent import FactoredForm, LaurentPoly\n"
                           "x = FactoredForm\n") == ["line 1: LaurentPoly"]


def _uncalled_private(sources: dict[str, str]) -> list[str]:
    """Private functions, classes and methods (a leading underscore, not a
    dunder) of sources {file name: text} that nothing references outside
    their own definition.  A method counts as referenced by an attribute
    of its name (`x._name`), anything else by a plain name or an import."""
    defs, refs = [], []
    for fname, text in sources.items():
        tree = ast.parse(text)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                n = node.name
                if n.startswith("_") and not (n[:2] == n[-2:] == "__"):
                    defs.append((fname, node, id(node) in methods))
            elif isinstance(node, ast.Name):
                refs.append((fname, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((fname, node.lineno, node.attr, True))
            elif isinstance(node, ast.ImportFrom):
                refs += [(fname, node.lineno, a.name, False)
                         for a in node.names]
    return [f"{fname}: {node.name}" for fname, node, method in defs
            if not any(name == node.name and attr == method
                       and not (f == fname
                                and node.lineno <= line <= node.end_lineno)
                       for f, line, name, attr in refs)]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _uncalled_private(sources) == []


def test_the_check_sees_an_uncalled_private_name():
    source = ("def _power(x):\n    return _power(x - 1)\n\n"
              "class Q:\n    def _power(self):\n        return 1\n\n"
              "    def _used(self):\n        return self._used\n\n"
              "def _called():\n    return Q()._used()\n\n"
              "_called()\n")
    assert _uncalled_private({"m.py": source}) == ["m.py: _power",
                                                   "m.py: _power"]
    assert _uncalled_private({"m.py": source, "n.py": "_power(Q)\n"}) \
        == ["m.py: _power"]
