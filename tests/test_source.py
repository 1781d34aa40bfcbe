"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import a1embed


def test_package_has_no_assert_statement():
    # invariants raise typed errors: `python -O` strips assert statements
    found = []
    for path in sorted(Path(a1embed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _numpy_imports(node, scope):
    # the qualified name of the scope of every import of numpy under node,
    # `import numpy`, `from numpy import ...` and the string "numpy" alike
    for child in ast.iter_child_nodes(node):
        names = []
        if isinstance(child, ast.Import):
            names = [a.name for a in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        elif isinstance(child, ast.Constant):
            names = [child.value]
        if any(isinstance(n, str) and n.split(".")[0] == "numpy" for n in names):
            yield ".".join(scope)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _numpy_imports(child, scope + (child.name,))
        else:
            yield from _numpy_imports(child, scope)


def test_numpy_is_imported_only_by_the_lazy_binding():
    # bellman's `np` imports numpy on its first attribute read, and the array
    # code of every module reads it from there: an import anywhere else, at
    # the top of a module or inside a function, decides the load on its own
    found = []
    for path in sorted(Path(a1embed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{scope}" for scope in _numpy_imports(tree, ())]
    assert found == ["bellman.py:_Numpy.__getattr__"]


# Runs in its own interpreter, so no other test's import of numpy shows.
# `-I` ignores PYTHONPATH and the user's site, so the script puts the
# package's parent directory (argv[1]) on sys.path itself.
IMPORT_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import a1embed, a1embed.cli
seen = [(None, "numpy" in sys.modules)]
for argv in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        rc = a1embed.cli.main(argv.split())
    seen.append((rc, "numpy" in sys.modules))
print(seen)
"""


def test_numpy_is_loaded_only_by_array_commands():
    # eval, extremize and oracle never compute on an array: importing numpy
    # there cost about half of a subprocess run of `eval`
    no_arrays = ["eval --Q 10 --d 2 --x 0.3 --y 2",
                 "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 8 --exact",
                 "oracle --Q 2 --d 1 --depth 2 --format json",
                 "verify --Q 10 --d 2 --suite weak-type"]
    src = str(Path(a1embed.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, src, *no_arrays,
         "table --Q 10 --d 2"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == repr([(None, False)] + [(0, False)] * len(no_arrays)
                       + [(0, True)]) + "\n"


def _top_level_names(tree):
    # (name, first line, last line) of each top-level def, class and
    # assigned name, dunders excepted
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    # (name, line) of every name, attribute and identifier string (as in
    # monkeypatch.setattr(module, "name", ...)); imports do not count
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_top_level_name_has_a_use():
    # a function, class or constant of the package that nothing in src/,
    # tests/ or a1bench/ names outside its own definition is dead code
    root = Path(__file__).resolve().parents[1]
    files = sorted(p for d in ("src", "tests", "a1bench")
                   for p in (root / d).rglob("*.py"))
    refs = {}       # name -> {(file, line)}
    for path in files:
        for name, line in _references(ast.parse(path.read_text())):
            refs.setdefault(name, set()).add((path, line))
    dead = []
    for path in sorted((root / "src" / "a1embed").glob("*.py")):
        for name, first, last in _top_level_names(ast.parse(path.read_text())):
            if all(f == path and first <= line <= last
                   for f, line in refs.get(name, ())):
                dead.append(f"{path.name}:{first} {name}")
    assert dead == []
