"""Every name a plthick module or test module imports is used in that module
(``__init__.py`` is exempt: its imports are the package's re-exports), every
private module-level name is referenced in the package, and every dataclass
field is read somewhere."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "plthick"


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else "tests/" + p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_every_private_module_name_is_referenced():
    """A module-level ``_name`` def or assignment that no code in the
    package references is a leftover."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined |= {(path.stem, n) for n in names
                        if n.startswith("_") and not n.startswith("__")}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
    assert sorted(d for d in defined if d[1] not in referenced) == []


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


# The trusted constructors skip checks that hold by construction; each may be
# referenced only in the functions where that holds, so every caller is here.
TRUSTED = {
    "_FaceClosed": {"complex_core.Complex.__init__", "complex_core.complex_from_maximal",
                    "complex_core.Incidence.closure", "complex_core.greedy_collapse",
                    "thicken3.cone_boundary_neighborhoods"},
}


def _references(path):
    """(enclosing function qualified by module and class, node) pairs."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        out.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), (path.stem,))
    return out


def test_trusted_constructors_stay_in_their_callers():
    found = {name: set() for name in TRUSTED}
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _references(path):
            if isinstance(node, ast.Name) and node.id == "_FaceClosed" \
                    and isinstance(node.ctx, ast.Load):
                found["_FaceClosed"].add(scope)
    assert found == TRUSTED


def test_no_sort_of_a_complex_simplices():
    """``by_dim`` is already the sorted order of a complex, dimension first,
    so no code sorts the set ``.simplices`` again: a pass in ``simplex_key``
    order reads the layers, or the incidence index's ids."""
    found = ["%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted"
             and node.args and any(isinstance(n, ast.Attribute) and n.attr == "simplices"
                                   for n in ast.walk(node.args[0]))]
    assert found == []


# The full pseudomanifold and link passes.  ``build_spine_thickening`` proves
# M's report and ``cone_boundary_neighborhoods`` derives P's from it, so the
# thickening runs neither; the tests and ``plthick check`` keep them.
FULL_PASSES = {"check_pseudomanifold", "check_isolated_singularities"}


def test_thickening_runs_no_full_link_pass():
    tree = ast.parse((SRC / "thicken3.py").read_text())
    found = ["thicken3.py:%d" % node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in FULL_PASSES
             or isinstance(node, ast.Attribute) and node.attr in FULL_PASSES
             or isinstance(node, ast.alias) and node.name in FULL_PASSES]
    assert found == []


# The general-position oracle the tests sample maps with.
GENERAL_POSITION = TESTS / "general_position.py"

# The integer kernels of the general-position oracle.  An integer ``/``
# silently yields a float, so none of them may divide with ``/`` or hold a
# float constant.
INTEGER_KERNELS = ("_content_free", "_integer_row", "solve_affine", "_box_overlaps")


def test_integer_kernels_have_no_true_division_or_float():
    tree = ast.parse(GENERAL_POSITION.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_KERNELS) <= set(functions)
    found = [name for name in INTEGER_KERNELS for node in ast.walk(functions[name])
             if isinstance(node, ast.Div)
             or isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert found == []


def test_float_appears_nowhere():
    scopes = {scope for path in sorted(SRC.glob("*.py")) for scope, node in _references(path)
              if isinstance(node, ast.Name) and node.id == "float"}
    assert scopes == set()


# The function of the general-position oracle whose ``/`` operands are
# always Fractions: the parameter-space bounds of ``solve_affine``'s output.
# Every other predicate may see integer coordinates.
FRACTION_DIVISIONS = {"general_position.simplex_pair_intersection"}


def test_geometry_divides_only_fractions():
    scopes = {scope for scope, node in _references(GENERAL_POSITION)
              if isinstance(node, ast.Div)}
    assert scopes == FRACTION_DIVISIONS


def test_thickening_imports_nothing_from_geometry():
    """``thicken`` reads X's rotation system, not a map: no package module
    imports the general-position oracle, so no sampled coordinates may
    reach the construction."""
    modules = [name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]]
    assert [m for m in modules
            if m.split(".")[-1] in ("geometry", "general_position")] == []


def test_only_the_sampler_imports_random():
    """The certified sampler of the general-position oracle is the one
    source of randomness of a map; every stage of the package is a function
    of its inputs."""
    importers = {path.name for path in sorted(SRC.glob("*.py")) + [GENERAL_POSITION]
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "random"}
    assert importers == {"general_position.py"}


def test_the_package_imports_no_fractions():
    """The package computes over the integers: no rationals reach it."""
    found = ["%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "fractions"]
    assert found == []


def test_no_assert_in_the_package():
    """``python -O`` strips ``assert`` statements, so a check in the package
    must raise a typed error; a fact that holds by construction is proved
    in a docstring and checked in the tests."""
    found = ["%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
