"""No module of the package imports a name it never uses, keeps state
between calls, or defines a private function or class nothing loads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "courantkit"
MODULES = sorted(PACKAGE.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# functools decorators that keep results between calls
CACHES = {"cache", "lru_cache", "cached_property"}
# the kernel's pairing and back-solve paths, which the oracles check and so
# must not call; tilde_split_basis stays allowed, since the insertion oracle
# checks the derivation extension, not α̃
KERNEL_PAIRINGS = {"pair_sections", "pair_basis", "pair_prefixed", "contract",
                   "tilde_split", "split_table", "split_value", "_insert",
                   "_wedge_map", "solve_wedge_values"}


def _annotation_names(node: ast.AST) -> set[str]:
    """Names used inside an annotation, string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in the order imported.

    A name counts as used when it is read anywhere, named in ``__all__``, or
    appears in an annotation, also a string one.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def kerforms_imports(source: str) -> set[str]:
    """Names a module imports from courantkit.kerforms; "*" when it imports
    the whole module or everything in it, which reaches every name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "courantkit.kerforms":
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "courantkit":
            found |= {"*" for a in node.names if a.name in ("kerforms", "*")}
        elif isinstance(node, ast.Import):
            found |= {"*" for a in node.names if a.name == "courantkit.kerforms"}
    return found


def hidden_state(source: str) -> list[str]:
    """``global`` statements and caching decorators in a module: state that
    outlives the call that made it.

    A decorator counts when it names one of CACHES as an attribute
    (``functools.cache``) or through a name imported from functools, also
    under an alias, and whether or not it is called (``lru_cache(None)``).
    """
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for a in node.names if a.name in CACHES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append("global " + ", ".join(node.names))
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            if ((isinstance(target, ast.Attribute) and target.attr in CACHES)
                    or (isinstance(target, ast.Name) and target.id in aliases)):
                found.append(f"@{ast.unparse(deco)} on {node.name}")
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"exact.py", "structure.py", "kerforms.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from typing import Any as A, Sequence\nx: 'A'\n", ["Sequence"]),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from m import K\n"
     "def f(k: 'K | None') -> None: ...\n", []),
    ("from m import a, b\n__all__ = ['a']\n", ["b"]),
    ("from __future__ import annotations\nfrom m import T\n"
     "def f() -> list[T]: ...\n", []),
])
def test_detector(source, unused):
    assert unused_imports(source) == unused


def test_oracles_import_no_kernel_pairing():
    assert kerforms_imports(ORACLES.read_text(encoding="utf-8")) & (
        KERNEL_PAIRINGS | {"*"}) == set()


@pytest.mark.parametrize("source, found", [
    ("from courantkit.kerforms import KerForm, pair_sections\n",
     {"KerForm", "pair_sections"}),
    ("from courantkit import kerforms\n", {"*"}),
    ("from courantkit.kerforms import *\n", {"*"}),
    ("import courantkit.kerforms as kf\n", {"*"}),
    ("from courantkit.structure import pairing\n", set()),
])
def test_kerforms_import_detector(source, found):
    assert kerforms_imports(source) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_state_between_calls(path):
    # the data model is frozen: nothing is cached on a module or a function
    assert hidden_state(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("T = {}\ndef f():\n    global T\n    T = {}\n", ["global T"]),
    ("import functools\n@functools.cache\ndef f(): ...\n",
     ["@functools.cache on f"]),
    ("from functools import lru_cache as memo\n@memo(maxsize=None)\n"
     "def f(): ...\n", ["@memo(maxsize=None) on f"]),
    ("import functools as ft\nclass C:\n    @ft.cached_property\n"
     "    def p(self): ...\n", ["@ft.cached_property on p"]),
    ("from functools import partial, wraps\n@wraps(print)\ndef f(): ...\n"
     "def g():\n    t = {}\n    def h():\n        nonlocal t\n", []),
])
def test_hidden_state_detector(source, found):
    assert hidden_state(source) == found


def unloaded_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (``_name``, not dunder)
    that no module loads outside their own definition, as ``module.name``.

    A load is a read of the bare name or an attribute of that name
    (``kerforms._sort_wedge``); a recursive call inside the definition
    does not count.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined[node.name] = (module, {id(sub) for sub in ast.walk(node)})
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name in defined and id(node) not in defined[name][1]:
                loaded.add(name)
    return sorted(f"{module}.{name}" for name, (module, _) in defined.items()
                  if name not in loaded)


def test_every_private_definition_is_loaded():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unloaded_privates(sources) == []


def test_unloaded_private_detector():
    kerforms = (PACKAGE / "kerforms.py").read_text(encoding="utf-8")
    leftover = ("\n\ndef _pair_prefixed_lowered(table, prefix, rest):\n"
                "    return _pair_prefixed_lowered(table, prefix, rest[1:])\n")
    assert unloaded_privates({"kerforms": kerforms + leftover}) == [
        "kerforms._pair_prefixed_lowered"]
    sources = {"a": "from b import _used\n_used()\ndef _dead(): ...\n"
                    "class _Dead:\n    def _method(self): ...\n"
                    "def __getattr__(name): ...\n",
               "b": "import a\ndef _used(): ...\ndef _attr(): ...\n"
                    "a._attr\n"}
    assert unloaded_privates(sources) == ["a._Dead", "a._dead"]


# the structure fields only AlgebroidSpec.__init__ may assign
SPEC_FIELDS = {"twist", "kind"}
ROOT = PACKAGE.parent.parent


def spec_field_assignments(source: str) -> list[str]:
    """Assignments of ``.twist`` or ``.kind`` outside
    ``AlgebroidSpec.__init__``: an attribute target (also augmented or
    deleted), or a ``setattr``, ``object.__setattr__`` or
    ``monkeypatch.setattr`` call naming the field, as ``line: source`` in
    source order."""
    tree = ast.parse(source)
    allowed = {id(sub) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "AlgebroidSpec"
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
               for sub in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute):
            hit = not isinstance(node.ctx, ast.Load) and node.attr in SPEC_FIELDS
        elif isinstance(node, ast.Call):
            func = node.func
            hit = (((isinstance(func, ast.Name) and func.id == "setattr")
                    or (isinstance(func, ast.Attribute)
                        and func.attr in ("setattr", "__setattr__")))
                   and len(node.args) >= 2
                   and isinstance(node.args[1], ast.Constant)
                   and node.args[1].value in SPEC_FIELDS)
        else:
            hit = False
        if hit:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{line}: {text}" for line, _, text in sorted(found)]


def test_no_spec_field_assigned_after_construction():
    paths = sorted(p for folder in ("src", "tests", "demos")
                   for p in (ROOT / folder).rglob("*.py"))
    assert len(paths) > len(MODULES)
    found = [f"{p.relative_to(ROOT)}:{hit}" for p in paths
             for hit in spec_field_assignments(p.read_text(encoding="utf-8"))]
    assert found == []


def test_spec_methods_write_only_the_back_solve():
    # outside __init__, the one attribute AlgebroidSpec's methods assign is
    # the back-solve of the Gram system, built on first use
    tree = ast.parse((PACKAGE / "structure.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "AlgebroidSpec")
    written = {node.attr for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)}
    assert written == {"_solve"}


@pytest.mark.parametrize("source, found", [
    ("spec.twist = h\n", ["1: spec.twist"]),
    ("a.kind, b = k, 1\nout.twist += h\ndel out.twist\n",
     ["1: a.kind", "2: out.twist", "3: out.twist"]),
    ("setattr(spec, 'twist', h)\nobject.__setattr__(spec, 'kind', k)\n"
     "monkeypatch.setattr(spec, 'twist', None)\n",
     ["1: setattr(spec, 'twist', h)", "2: object.__setattr__(spec, 'kind', k)",
      "3: monkeypatch.setattr(spec, 'twist', None)"]),
    ("class AlgebroidSpec:\n    def __init__(self, twist):\n"
     "        self.twist = twist\n    def retwist(self, twist):\n"
     "        self.kind = twist\n", ["5: self.kind"]),
    ("h = spec.twist\nsetattr(spec, 'gram', g)\nspec.twisted = True\n", []),
])
def test_spec_field_assignment_detector(source, found):
    assert spec_field_assignments(source) == found
