"""Every module-level import of a ``src/`` module is used by that module,
and every private module-level name (``_name``) is read by some module.

No linter is a dependency, so deletions could otherwise leave dead imports
and helpers behind. ``__init__.py`` files are skipped for imports: their
imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "PipelineConfig"``."""
    names = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    return [name for name in bound if name not in used]


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from pathlib import Path, PurePath\n"
        "def f(p: 'PurePath') -> int:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "os", "Path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in ``tree``."""
    names = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [f"{m}:{n}" for m, tree in trees.items() for n in _private_definitions(tree) if n not in read]


def test_private_name_detector_flags_only_unread_names():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\n_LATER: int = 3\n__all__ = []\n"
        "def _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b.py": "import a\nfrom a import _helper\nx = a._LATER\n",
    }
    assert unread_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_src_has_no_unread_private_names():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []
