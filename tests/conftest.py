import random

import pytest

from plthick.complex_core import Simplex, cone_off, validate_complex
from plthick.fixtures import FIXTURE_NAMES, fixture
from plthick.reflection import close_up
from plthick.thicken3 import thicken


_RUNS = {}


def thickening_run(name, seed, denom_bound=1000):
    """Session-wide cache: the full construction for (fixture, seed)."""
    key = (name, seed, denom_bound)
    if key not in _RUNS:
        _RUNS[key] = thicken(fixture(name), seed=seed, denom_bound=denom_bound)
    return _RUNS[key]


@pytest.fixture(scope="session")
def pipeline_cache():
    return thickening_run


def _random_complex(rng):
    n = rng.randint(2, 8)
    labels = ["v%d" % i for i in range(n)]
    maximal = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(2, min(4, n))
        maximal.append(rng.sample(labels, size))
    return validate_complex(maximal)


@pytest.fixture(scope="session")
def spine_identity_inputs():
    """Every fixture, then 50 random complexes of dimension 1 to 3."""
    rng = random.Random(20260810)
    return [fixture(name) for name in FIXTURE_NAMES] + [_random_complex(rng) for _ in range(50)]


def _position_outside(t, f):
    """Position in the top simplex t of its one vertex not in the facet f."""
    return next(i for i, v in enumerate(t.vertices) if v not in f.vertices)


def cone_rule_checks(X, signs, cone_vertices):
    """Assert the cone rule of a coned-off complex and count the cone tops
    it constrains.

    A top s containing a cone vertex w holds exactly one; its base facet
    s - w is shared with a top b of the body (no cone vertex) unless it lies
    on the boundary, and then s carries -(w, orientation b induces on the
    base): ``signs[s] == -inherited * (-1)**(position of w in s)``.
    """
    cofaces = X.facet_cofaces()
    checked = 0
    for s in X.by_dim(X.dim):
        ws = [v for v in s.vertices if v in cone_vertices]
        if not ws:
            continue
        assert len(ws) == 1, s
        pos = s.vertices.index(ws[0])
        base = Simplex(s.vertices[:pos] + s.vertices[pos + 1:])
        body = [b for b in cofaces[base] if not set(b.vertices) & set(cone_vertices)]
        if body:
            b = body[0]
            inherited = signs[b] * (-1) ** _position_outside(b, base)
            assert signs[s] == -inherited * (-1) ** pos, s
            checked += 1
    return checked


@pytest.fixture(scope="session")
def cone_rule():
    return cone_rule_checks


@pytest.fixture(scope="session")
def octahedral_ball():
    """The cone from "o" over the boundary of the octahedron, one triangle
    per choice of (+-x, +-y, +-z)."""
    sphere = validate_complex([
        [a, b, c] for a in ("x+", "x-") for b in ("y+", "y-") for c in ("z+", "z-")])
    return cone_off(sphere, sphere, "o")


@pytest.fixture(scope="session")
def octahedral_closure(octahedral_ball):
    return close_up(octahedral_ball, budget=2_000_000)
