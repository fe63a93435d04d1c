"""Source hygiene a linter would check: no module of the package imports a
name it never uses, every private name the package defines is used in it,
and every private name the docs put in backticks is one it defines.
`__init__.py` is left out of the import check, as its imports are the
package's exports."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctforge"
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


def _stale_private_names(texts: dict[str, str],
                         sources: dict[str, str]) -> list[str]:
    """The backticked private names (`_name` or `mod._name`, not a dunder)
    of texts {label: text} that sources {file name: text} do not define as
    a function, class or assigned name.  `mod._name` must be defined in
    mod.py when that is one of sources, and anywhere in them otherwise."""
    defined = {}
    for fname, text in sources.items():
        names = defined[fname] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    anywhere = set().union(*defined.values())
    stale = []
    for label, text in texts.items():
        for m in re.finditer(r"`(?:(\w+)\.)?(_\w+)`", text):
            mod, name = m.groups()
            if name[:2] == name[-2:] == "__":
                continue
            names = defined.get(f"{mod}.py", anywhere)
            if name not in names:
                stale.append(f"{label}: {m.group()}")
    return stale


def test_backticked_private_names_are_defined():
    # ROADMAP.md and CHANGES.md are history, and may name what is gone
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    texts = {"README.md": (ROOT / "README.md").read_text(), **sources}
    assert _stale_private_names(texts, sources) == []


def test_the_check_sees_a_stale_private_name():
    sources = {"m.py": "_LIMIT = 1\n\ndef _live():\n    return _LIMIT\n",
               "n.py": "class Q:\n    def _other(self):\n        pass\n"}
    text = ("`_live`, `m._live`, `_LIMIT`, `Q._other`, `__init__`, "
            "`_gone`, `m._gone`, `m._other`")
    assert _stale_private_names({"doc": text}, sources) == [
        "doc: `_gone`", "doc: `m._gone`", "doc: `m._other`"]
