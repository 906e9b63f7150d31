"""Every name a module imports is used in it (package re-exports aside),
every top-level definition of the package is reached from the CLI or the
benchmark, the package root re-exports only the names its readers
import from it, and README names nothing private to the package, every
option of the CLI, and only constants that exist."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linecayley.cli import build_parser

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
    # the layout; autgroup computes no power of q at all, as K's order is
    # read from permgroup.scalar_affine_group
    for path in sorted(ROOT.glob("src/linecayley/*.py")):
        imported, powers = id_layout_reads(path.read_text())
        if path.stem not in ("field", "cayley", "__init__"):
            assert not imported, f"{path.name} imports {imported}"
        if path.stem == "autgroup":
            assert not powers, powers


def library_example():
    """The python block under README's "## Library example"."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S)[1]


def root_imports(source):
    """The names a source imports from the package root."""
    return {
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "linecayley"
        for alias in node.names
    }


def test_root_imports_are_found():
    source = "import linecayley\nfrom linecayley import a, b as c\nfrom linecayley.x import d\n"
    assert root_imports(source) == {"a", "b"}


def test_root_exports_only_what_its_readers_import():
    # one import path per name: the root re-exports the pipeline the
    # benchmark and README's example import from it, and every other name
    # is imported from its module.  A reader may import more from modules
    # without an edit here
    tree = ast.parse((ROOT / "src" / "linecayley" / "__init__.py").read_text())
    exported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = root_imports((ROOT / "bench" / "run.py").read_text()) | root_imports(library_example())
    assert exported <= read, sorted(exported - read)


def test_import_leaves_out_the_bounds_and_the_cli():
    # the root imports the pipeline alone: bounds (with decimal and
    # fractions) and the CLI load only when asked for
    code = "import sys, linecayley; print(*sorted(m for m in sys.modules if m.startswith('linecayley')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "linecayley.autgroup" in loaded
    assert not loaded & {"linecayley.bounds", "linecayley.cli"}, sorted(loaded)


def test_library_example_prints_what_readme_says(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["5", "500", "i", "6"]


def private_names(text, sources):
    """The single-underscore names that the sources define or read and that
    text names, as words; a dunder is not one."""
    defined = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            for name in (getattr(node, key, None) for key in ("id", "attr", "name", "arg")):
                if isinstance(name, str) and re.fullmatch(r"_[A-Za-z]\w*", name):
                    defined.add(name)
    return sorted(defined.intersection(re.findall(r"(?<!\w)_[A-Za-z]\w*", text)))


def test_private_names_are_found():
    sources = ["class _Space:\n    def _f(self, _a):\n        return self._x\n__version__ = '1'\n"]
    text = "`cayley._Space`, `_f.g`, _x and `__version__`, but not x_y or _other"
    assert private_names(text, sources) == ["_Space", "_f", "_x"]


def test_readme_names_nothing_private():
    # README is the user's document: how the code works lives in the
    # docstrings, so README names only what a user imports or runs
    sources = [p.read_text() for p in sorted(ROOT.glob("src/linecayley/*.py"))]
    assert private_names((ROOT / "README.md").read_text(), sources) == []


def module_constants(source):
    """The names a source assigns at module level; an imported name is not
    one."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def unknown_constants(text, modules):
    """The upper-case constants that text names in backticks and that the
    modules (key -> source) do not assign: a `module.NAME` must be assigned
    in the module of that key, and a bare `NAME` in any of them."""
    assigned = {key: module_constants(source) for key, source in modules.items()}
    anywhere = set().union(*assigned.values())
    unknown = {
        f"{module}.{name}" if module else name
        for module, name in re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]+)`", text)
        if name not in (assigned.get(module, set()) if module else anywhere)
    }
    return sorted(unknown)


def test_unknown_constants_are_found():
    modules = {"lib": "from .other import CAP\nLIMIT = 1\nN: int = 2\ndef f():\n    LOCAL = 3\n",
               "tests.t": "PINS = []\n"}
    text = "`lib.LIMIT`, `lib.N`, `PINS`, `lib.CAP`, `other.LIMIT`, `LOCAL`, `--in FILE`, `lib.f`"
    assert unknown_constants(text, modules) == ["LOCAL", "lib.CAP", "other.LIMIT"]


def test_readme_names_only_constants_that_exist():
    # a constant that moves or goes leaves no stale name in README: the
    # listing's size cap lives in distinguishing, and its old names fail.
    # Package modules are keyed by name, test modules by path
    sources = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/linecayley/*.py"))}
    sources.update({f"tests/{p.name}": p.read_text() for p in sorted(ROOT.glob("tests/*.py"))})
    assert unknown_constants((ROOT / "README.md").read_text(), sources) == []
    stale = "`bounds.SWEEP_MAX_VERTICES`, `ENUM_LIMIT`, `distinguishing.SWEEP_MAX_VERTICES`"
    assert unknown_constants(stale, sources) == ["ENUM_LIMIT", "bounds.SWEEP_MAX_VERTICES"]


def test_readme_names_every_cli_option_and_no_other():
    # each long option the parser declares is documented, and README names
    # none it lacks; argparse's own --help and pip's flag are not the CLI's
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        option
        for sub in (parser, *subs.choices.values())
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", (ROOT / "README.md").read_text()))
    assert (declared - named, named - declared - {"--no-build-isolation"}) == (set(), set())
