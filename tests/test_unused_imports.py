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


# --- class members -------------------------------------------------------------

ROOT = SRC.parent
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _class_members(tree: ast.AST) -> list[tuple[str, str]]:
    """``(class, member)`` for each method, property and annotated field,
    dunders aside, of every class in ``tree``."""
    members = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append((cls.name, node.name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.append((cls.name, node.target.id))
    return [(c, n) for c, n in members if not (n.startswith("__") and n.endswith("__"))]


def _member_reads(tree: ast.AST) -> set[str]:
    """Attributes read (augmented assignment reads too) and string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            names.add(node.target.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_members(defining: dict[str, str], reading: list[str]) -> list[str]:
    """``module:Class.member`` for each member of a class in ``defining``
    whose name no source in ``reading`` reads as an attribute or names in a
    string constant."""
    read = set().union(*(_member_reads(ast.parse(source)) for source in reading))
    return [
        f"{m}:{c}.{n}"
        for m, source in defining.items()
        for c, n in _class_members(ast.parse(source))
        if n not in read
    ]


def test_member_detector_flags_only_unread_members():
    defining = {
        "a.py": "from dataclasses import dataclass\n"
        "@dataclass\nclass Box:\n    size: int\n    label: str\n    count: int = 0\n"
        "    def __post_init__(self):\n        self.count += 1\n"
        "    def grow(self):\n        return self.size\n"
        "    @property\n    def area(self):\n        return 0\n"
        "    def _hook(self):\n        pass\n"
        "    class Inner:\n        def spare(self):\n            pass\n"
    }
    reading = [defining["a.py"], "b = Box(1, 'x')\nb.grow()\ngetattr(b, '_hook')()\n"]
    assert unread_members(defining, reading) == [
        "a.py:Box.label",
        "a.py:Box.area",
        "a.py:Inner.spare",
    ]


def test_src_classes_have_no_unread_members():
    defining = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in SOURCES}
    reading = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_members(defining, reading) == []
