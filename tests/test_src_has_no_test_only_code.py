"""src/simtree holds only code that the library itself, its public API or the
benchmark uses: every top-level function, class and method must be referenced
somewhere in src/simtree other than in its own definition. Helpers that only
tests call belong in tests/.

Exempt are the names in simtree.__all__, the functions perfbench/tracing.py's
LAYERS table wraps, names perfbench/*.py refers to, dunder methods, methods
that override a base class method, and fixtures.py, the bundled test corpus.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "simtree"
PERFBENCH = ROOT / "perfbench"


def _references(tree) -> Counter:
    """Every ast.Name id and ast.Attribute attr under the node, counted."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _literal(path: Path, name: str):
    """The literal value assigned to a top-level name, read without running the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no literal {name}")


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _overrides(package: str, module: str, qualname: str) -> bool:
    """Does the method override a method of one of its class's bases?"""
    cls_name, _, method = qualname.partition(".")
    if not method:
        return False
    cls = getattr(importlib.import_module(f"{package}.{module}"), cls_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def unreferenced_definitions(src: Path = SRC, perfbench: Path = PERFBENCH) -> list:
    """'module.qualname' of every definition in src that nothing but its own
    definition refers to and no exemption covers."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    exempt = set(_literal(src / "__init__.py", "__all__"))
    for path in perfbench.glob("*.py"):
        exempt |= set(_references(ast.parse(path.read_text())))
    pinned = {(module, attr) for module, attr, *_ in _literal(perfbench / "tracing.py", "LAYERS")}
    found = []
    for module, tree in trees.items():
        if module == "fixtures":
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name in exempt or (module, qualname) in pinned \
                    or (name.startswith("__") and name.endswith("__")):
                continue
            if refs[name] - _references(node)[name] > 0:
                continue
            if not _overrides(src.name, module, qualname):
                found.append(f"{module}.{qualname}")
    return found


def test_src_has_no_test_only_code():
    found = unreferenced_definitions()
    assert not found, "only tests use these; move them to tests/: " + ", ".join(found)


def test_the_scan_sees_a_test_only_helper(tmp_path, monkeypatch):
    # the scan itself: an unreferenced helper and a self-recursive one are
    # named; a used helper, an override, a dunder and a name that only
    # perfbench uses are not
    src = tmp_path / "scanned_package"
    src.mkdir()
    (src / "__init__.py").write_text("__all__ = ['api']\n")
    (src / "mod.py").write_text(
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): raise SystemExit(message)\n"
        "def api(): return Parser, used()\n"
        "def used(): return 1\n"
        "def benched(): return 1\n"
        "def only_tests(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def unused(self): return 3\n")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "tracing.py").write_text("LAYERS = ()\n")
    (bench / "workloads.py").write_text("from scanned_package import mod\nmod.benched()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    found = unreferenced_definitions(src, bench)
    assert found == ["mod.only_tests", "mod.recursive", "mod.Box", "mod.Box.unused"]
