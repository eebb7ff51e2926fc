"""Every name a plthick module imports is used in that module
(``__init__.py`` is exempt: its imports are the package's re-exports), and
every dataclass field is read somewhere."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "plthick"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _is_dataclass(cls):
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """A field no code reads as ``x.field`` is dead weight in every record."""
    fields, read = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        if path.parent == SRC:
            fields |= {"%s.%s" % (cls.name, f.target.id)
                       for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                       for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
    assert sorted(f for f in fields if f.split(".")[1] not in read) == []
