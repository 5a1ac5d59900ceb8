"""Every name a threadwatch module or test module imports is referenced
in that module, no threadwatch module imports a private name of another,
every public name a threadwatch module defines, every
record field and every class attribute is used by the program or its
benchmark, not only by tests,
every generator setting is set by some caller, every third-party
module the program imports is a declared dependency, only the
corpus module's two writers open a file to write, only the labeler's
match rule reads a blacklist index's keys, and every module parses at
the oldest Python version the project declares."""

import ast
import pathlib
import re
import sys
from collections import Counter

import pytest

import threadwatch

SOURCES = sorted(pathlib.Path(threadwatch.__file__).parent.glob("*.py"))
PERFBENCH = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

# public names that only tests call, each kept as a reference the tests
# compare a faster path against
TEST_ORACLES = {
    "extract_urls",  # the per-occurrence URL scan behind TestCollectMatchesReference
}

# record fields that only tests read
UNREAD_FIELDS = {
    "per_class",  # Metrics: the per-class breakdown behind the weighted F1
}

# source modules by file name, test modules as tests/<file name>
MODULES = ([pytest.param(p, id=p.name) for p in SOURCES]
           + [pytest.param(p, id=f"tests/{p.name}") for p in
              sorted(pathlib.Path(__file__).parent.glob("*.py"))])

# the one function that reads a blacklist index's keys: the join's match rule
MATCH_RULE = "_matches"


def unused_imports(source: str) -> list[str]:
    """Imported names (``__future__`` features aside) that no name in the
    module refers to; ``import a.b`` binds and is referenced as ``a``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "x = np.zeros(os.sep)\n@dataclass\nclass A:\n    y: int\n")
    assert unused_imports(source) == ["field", "math"]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names the module imports from a threadwatch module, by
    a relative or an absolute ``from`` import."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "threadwatch")
                  for a in node.names if a.name.startswith("_"))


def test_scan_finds_private_imports():
    source = ("from __future__ import annotations\nfrom ._x import _a, b\n"
              "from . import _c, d\nfrom threadwatch.corpus import _e\n"
              "from os import _exit\nimport threadwatch._f\n")
    assert private_imports(source) == ["_a", "_c", "_e"]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in SOURCES])
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def file_writes(source: str) -> list[int]:
    """The lines of the calls that open a file to write: ``csv.writer``,
    and the builtin ``open`` with a mode that is not a literal read mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                lines.append(node.lineno)
        elif (isinstance(func, ast.Attribute) and func.attr == "writer"
              and isinstance(func.value, ast.Name) and func.value.id == "csv"):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_file_writes():
    source = ("import csv, os\nopen(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\n"
              "open(p, \"w\")\nopen(p, mode='a', newline='')\nopen(p, m)\n"
              "os.open(p, os.O_WRONLY)\nw = csv.writer(fh)\ncsv.reader(fh)\n")
    assert file_writes(source) == [5, 6, 7, 9]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in SOURCES
                                  if p.name != "corpus.py"])
def test_only_the_corpus_writers_open_files_to_write(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


def index_reads(source: str) -> list[int]:
    """The lines that read a ``domains`` or ``urls`` attribute outside a
    function named MATCH_RULE."""
    tree = ast.parse(source)
    rule = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == MATCH_RULE for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in ("domains", "urls")
                  and isinstance(n.ctx, ast.Load) and id(n) not in rule)


def test_scan_finds_index_reads():
    source = ("class Blacklist:\n    def __init__(self, domains, urls):\n"
              "        self.domains = domains\n        self.urls = urls\n"
              f"def {MATCH_RULE}(index, url, domain):\n"
              "    return index.domains.get(domain), index.urls.get(url)\n"
              "def join(index, domain):\n    return domain in index.domains\n"
              "def keys(index):\n    return list(index.urls)\n")
    assert index_reads(source) == [8, 10]


def test_only_the_match_rule_reads_the_index():
    assert {p.name: index_reads(p.read_text(encoding="utf-8"))
            for p in SOURCES} == {p.name: [] for p in SOURCES}
    labeler = next(p for p in SOURCES if p.name == "labeler.py").read_text(encoding="utf-8")
    assert f"def {MATCH_RULE}(" in labeler


def _names(node: ast.AST) -> Counter:
    """How often each name is referred to under node, as a bare name or
    as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources: list[str], others: list[str]) -> list[str]:
    """Public top-level functions and classes, and public methods of
    top-level classes, defined in sources that no code outside their own
    definition refers to by name, in sources or in others."""
    trees = [ast.parse(text) for text in [*sources, *others]]
    used = sum((_names(tree) for tree in trees), Counter())
    definitions = []
    for tree in trees[:len(sources)]:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += [node, *(n for n in node.body if isinstance(n, ast.FunctionDef))]
            elif isinstance(node, ast.FunctionDef):
                definitions.append(node)
    return sorted({d.name for d in definitions if not d.name.startswith("_")
                   and used[d.name] == _names(d)[d.name]})


def test_scan_finds_test_only_definitions():
    source = ("def main():\n    return Model().fit() + helper()\n"
              "def helper():\n    return 1\n"
              "def recurse(n):\n    return recurse(n - 1)\n"
              "def _private():\n    pass\n"
              "class Model:\n"
              "    def fit(self):\n        return self.score()\n"
              "    def score(self):\n        return 0\n"
              "    def save(self):\n        pass\n"
              "    def _grow(self):\n        pass\n")
    assert unreferenced_definitions([source], []) == ["main", "recurse", "save"]
    assert unreferenced_definitions([source], ["main(); Model.save"]) == ["recurse"]


def test_no_test_only_definitions():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    others = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unreferenced_definitions(texts, others) == sorted(TEST_ORACLES)


def _is_record(node: ast.ClassDef) -> bool:
    """A ``NamedTuple`` subclass or a ``@dataclass`` class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
            or any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators))


def unread_fields(sources: list[str], others: list[str]) -> list[str]:
    """Field names of the records defined in sources that no code in
    sources or others reads as an attribute.

    The check goes by name, not by record: a field passes when any
    record's field of the same name is read, so a write-only field named
    like a read one (a ``page_id``) has to be found by hand."""
    trees = [ast.parse(text) for text in [*sources, *others]]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = {stmt.target.id
              for tree in trees[:len(sources)] for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    return sorted(fields - read)


def test_scan_finds_unread_fields():
    source = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n"
              "class Obs(NamedTuple):\n    url: str\n    post_id: str\n"
              "@dataclass(frozen=True)\nclass Report:\n    recall: float\n"
              "    n_planted: int = 0\n"
              "class Plain:\n    hidden: int\n"
              "def f(o, r):\n    r.n_planted = 1\n    return o.url, r.recall\n")
    assert unread_fields([source], []) == ["n_planted", "post_id"]
    assert unread_fields([source], ["print(x.post_id)"]) == ["n_planted"]


def test_no_unread_fields():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    others = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_fields(texts, others) == sorted(UNREAD_FIELDS)


def _is_enum(node: ast.ClassDef) -> bool:
    """A class with a base named ``Enum`` or ``...Enum`` (``IntEnum``,
    ``enum.Enum``)."""
    return any(getattr(b, "id", getattr(b, "attr", "")).endswith("Enum")
               for b in node.bases)


def unread_class_attributes(sources: list[str], others: list[str]) -> list[str]:
    """Public names assigned in the body of a class defined in sources,
    Enum members and dunders aside, that no code in sources or others
    reads as an attribute. Goes by name, as ``unread_fields`` does."""
    trees = [ast.parse(text) for text in [*sources, *others]]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assigned = set()
    for tree in trees[:len(sources)]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or _is_enum(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets = [stmt.target]
                else:
                    continue
                assigned.update(n.id for target in targets for n in ast.walk(target)
                                if isinstance(n, ast.Name) and not n.id.startswith("_"))
    return sorted(assigned - read)


def test_scan_finds_unread_class_attributes():
    source = ("import enum\nfrom enum import Enum\n"
              "class Color(str, Enum):\n    RED = 'red'\n"
              "class Size(enum.IntEnum):\n    BIG = 2\n"
              "class Model:\n    __slots__ = ()\n    _cache = {}\n"
              "    variant = 'tree'\n    max_depth = 20\n    min_leaf: int = 1\n"
              "    width: int\n    lo = hi = 0\n"
              "    def fit(self):\n        return self.max_depth\n"
              "def f(m):\n    m.variant = 'x'\n")
    assert unread_class_attributes([source], []) == ["hi", "lo", "min_leaf", "variant"]
    assert unread_class_attributes([source], ["print(x.min_leaf, x.lo)"]) == \
        ["hi", "variant"]


def test_no_unread_class_attributes():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    others = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_class_attributes(texts, others) == []


CONFIG_CALLS = {"GeneratorConfig", "profile_config", "replace"}


def unset_config_fields(sources: list[str], others: list[str]) -> list[str]:
    """Fields of the ``GeneratorConfig`` class defined in sources that no
    call to ``GeneratorConfig``, ``profile_config`` or ``replace``, as a
    bare name or an attribute, in sources or others passes as a keyword."""
    trees = [ast.parse(text) for text in [*sources, *others]]
    fields = {stmt.target.id
              for tree in trees[:len(sources)] for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "GeneratorConfig"
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    passed = {kw.arg for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in CONFIG_CALLS
              for kw in node.keywords}
    return sorted(fields - passed)


def test_scan_finds_unset_config_fields():
    source = ("from dataclasses import dataclass, replace\n"
              "@dataclass(frozen=True)\nclass GeneratorConfig:\n"
              "    seed: int = 0\n    n_threads: int = 1\n    mix: dict = None\n"
              "    sigma: float = 0.3\n    lift: float = 3.0\n"
              "def profile_config(profile, **overrides):\n"
              "    return replace(GeneratorConfig(**overrides), mix={})\n"
              "cfg = GeneratorConfig(seed=1)\nother(sigma=0.0)\n")
    assert unset_config_fields([source], []) == ["lift", "n_threads", "sigma"]
    assert unset_config_fields([source], ["m.profile_config('x', n_threads=5)"]) == \
        ["lift", "sigma"]


def test_every_config_field_is_set():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    others = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unset_config_fields(texts, others) == []


def undeclared_imports(sources: list[str], pyproject: str) -> list[str]:
    """Top-level modules imported in sources that are neither in the
    standard library, nor threadwatch, nor named (``-`` read as ``_``) in
    pyproject's ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")
    declared = {re.match(r"[A-Za-z0-9._-]+", d).group().lower().replace("-", "_")
                for d in tomllib.loads(pyproject)["project"]["dependencies"]}
    imported = set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return sorted(imported - set(sys.stdlib_module_names) - {"threadwatch"} - declared)


def test_scan_finds_undeclared_imports():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom orjson import loads\nimport yaml.loader\n"
              "from . import corpus\nfrom threadwatch.corpus import ingest\n"
              "import typing_extensions\n")
    pyproject = ('[project]\nname = "x"\n'
                 'dependencies = ["NumPy>=1.24", "typing-extensions ; python_version < \'3.12\'"]\n')
    assert undeclared_imports([source], pyproject) == ["orjson", "yaml"]


def test_program_imports_only_declared_dependencies():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert undeclared_imports(texts, PYPROJECT.read_text(encoding="utf-8")) == []


def python_floor(pyproject: str) -> tuple[int, int]:
    """The (major, minor) of the ``>=`` bound in pyproject's
    ``requires-python``."""
    tomllib = pytest.importorskip("tomllib")
    spec = tomllib.loads(pyproject)["project"]["requires-python"]
    major, minor = re.search(r">=\s*(\d+)\.(\d+)", spec).groups()
    return int(major), int(minor)


def test_scan_rejects_syntax_newer_than_the_floor():
    assert python_floor('[project]\nrequires-python = ">= 3.10"\n') == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 syntax
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES + [pytest.param(p, id=f"perfbench/{p.name}")
                                            for p in PERFBENCH])
def test_parses_at_the_python_floor(path):
    floor = python_floor(PYPROJECT.read_text(encoding="utf-8"))
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
