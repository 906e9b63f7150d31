"""Every name a module imports is used in it (package re-exports aside), and
every top-level definition of the package is reached from the CLI or the
benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.glob("src/linecayley/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by import statements that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom x import a, b as c\nprint(a, osp)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def names_read(tree):
    """Every name a tree reads, as a Name, an Attribute or an imported alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def unreached_definitions(modules, entry, reader):
    """Top-level functions and classes of modules (stem -> source) that no
    chain of references reaches from the definitions of module entry or
    from the names the reader source reads.  Names resolve by name alone,
    which is exact while no two modules define the same one."""
    defs = {}
    for stem, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name not in defs, f"{node.name} is defined twice"
                defs[node.name] = (stem, node)
    todo = [name for name, (stem, _) in defs.items() if stem == entry]
    todo += names_read(ast.parse(reader))
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += names_read(defs[name][1])
    return sorted(f"{stem}.{name}" for name, (stem, _) in defs.items() if name not in reached)


def test_unreached_definitions_are_found():
    modules = {
        "lib": "def used():\n    return helper\ndef helper(): pass\n"
        "class Kept:\n    def m(self): return deep()\ndef deep(): pass\ndef dead(): return used()\n",
        "cli": "def main():\n    return used()\n",
    }
    reader = "from lib import Kept\n"
    assert unreached_definitions(modules, "cli", reader) == ["lib.dead"]


def test_library_keeps_only_what_the_cli_or_the_benchmark_reaches():
    modules = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/linecayley/*.py"))}
    reader = (ROOT / "bench" / "run.py").read_text()
    unreached = unreached_definitions(modules, "cli", reader)
    assert not unreached, f"reached by neither the CLI nor the benchmark: {unreached}"


def cached_definitions(source):
    """The functions a module decorates with lru_cache, and how many times
    it names lru_cache outside its imports."""
    tree = ast.parse(source)
    uses = sum(
        isinstance(node, ast.Name) and node.id == "lru_cache"
        or isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        for node in ast.walk(tree)
    )
    cached = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) == "lru_cache":
                    cached.append(node.name)
    return cached, uses


def test_cached_definitions_are_found():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=4)\ndef a(q): pass\n@functools.lru_cache\ndef b(q): pass\n"
        "c = lru_cache(maxsize=2)(len)\n"
    )
    assert cached_definitions(source) == (["a", "b"], 3)


def test_one_cache_holds_each_sizes_tables():
    # every table built once per (q, n) lives in the size's one
    # cayley._Space.  The two other caches stay in geometry and permgroup,
    # which do not import cayley: callers with no graph at hand, the
    # benchmark among them, read them by (q, n)
    cached, uses = set(), 0
    for path in sorted(ROOT.glob("src/linecayley/*.py")):
        names, count = cached_definitions(path.read_text())
        cached.update(f"{path.stem}.{name}" for name in names)
        uses += count
    assert cached == {"cayley._space", "permgroup.scalar_affine_group", "geometry.all_projective_points"}
    assert uses == len(cached)


def id_layout_reads(source):
    """The names of encode and decode a module imports, and the functions
    that hold a power (a ** b), by name, "" for one outside any function."""
    tree = ast.parse(source)
    imported = sorted(
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in ("encode", "decode")
    )
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner.setdefault(inner, node.name)
    powers = {
        owner.get(node, "") for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    }
    return imported, powers


def test_id_layout_reads_are_found():
    source = (
        "from .field import decode, rref\nN = 2 ** 3\n"
        "def f(q):\n    def g():\n        return q ** 2\n    return {**{}}\n"
    )
    assert id_layout_reads(source) == (["decode"], {"", "f"})


def test_only_cayley_lays_out_ids():
    # how a vertex id is laid out in base-q digits is known to field, which
    # encodes and decodes, and to cayley, whose _Space holds every table of
    # the layout; autgroup computes no power of q but K's order
    for path in sorted(ROOT.glob("src/linecayley/*.py")):
        imported, powers = id_layout_reads(path.read_text())
        if path.stem not in ("field", "cayley", "__init__"):
            assert not imported, f"{path.name} imports {imported}"
        if path.stem == "autgroup":
            assert powers <= {"group_equals_scalar_affine"}, powers
