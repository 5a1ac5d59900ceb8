"""Every name a threadwatch module or test module imports is referenced
in that module."""

import ast
import pathlib

import pytest

import threadwatch

# source modules by file name, test modules as tests/<file name>
MODULES = ([pytest.param(p, id=p.name) for p in
            sorted(pathlib.Path(threadwatch.__file__).parent.glob("*.py"))]
           + [pytest.param(p, id=f"tests/{p.name}") for p in
              sorted(pathlib.Path(__file__).parent.glob("*.py"))])


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
