import random

import pytest

from plthick.complex_core import barycentric_subdivision, cone_off, validate_complex
from plthick.fixtures import FIXTURE_NAMES, fixture
from plthick.geometry import sample_general_position_map
from plthick.homology import homology_groups
from plthick.pseudomanifold import check_pseudomanifold
from plthick.reflection import MirrorStructure, close_mirror_structure, close_up
from plthick.thicken3 import thicken

from embedded_collar import choose_spine_barycenters, epsilon_neighborhood_embedding


_RUNS = {}


def thickening_run(name, seed=0):
    """Session-wide cache: the full construction for a fixture.  ``thicken``
    samples nothing, so every seed shares the fixture's one run."""
    if name not in _RUNS:
        _RUNS[name] = thicken(fixture(name), seed=seed)
    return _RUNS[name]


@pytest.fixture(scope="session")
def pipeline_cache():
    return thickening_run


_COLLARS = {}


def embedded_collar_run(name, seed):
    """Session-wide cache: the embedded spine and collar of a fixture under
    the general-position map sampled at ``seed``."""
    key = (name, seed)
    if key not in _COLLARS:
        m = sample_general_position_map(fixture(name), 3, seed=seed)
        _COLLARS[key] = epsilon_neighborhood_embedding(choose_spine_barycenters(m, seed=seed))
    return _COLLARS[key]


@pytest.fixture(scope="session")
def embedded_collar_cache():
    return embedded_collar_run


def moore_space(q):
    """The mod-q Moore space M(Z/q, 1): a disc whose boundary, a 3q-gon,
    wraps q times around the circle c0 c1 c2, and that circle.

    Boundary vertex i of the disc is c(i mod 3).  A ring of 3q inner
    vertices m_i and a centre z triangulate the disc in 9q triangles: the
    annulus (c_i, c_i+1, m_i), (c_i+1, m_i, m_i+1) and the cone
    (z, m_i, m_i+1).  Every triangle holds an inner vertex, so no two are
    identified; only the circle's three edges are, each in q triangles.
    """
    n = 3 * q
    c = ["c%d" % (i % 3) for i in range(n + 1)]
    m = ["m%02d" % (i % n) for i in range(n + 1)]
    triangles = []
    for i in range(n):
        triangles += [[c[i], c[i + 1], m[i]], [c[i + 1], m[i], m[i + 1]], ["z", m[i], m[i + 1]]]
    X = validate_complex(triangles)
    circle = validate_complex([["c0", "c1"], ["c1", "c2"], ["c0", "c2"]])
    assert len(X.by_dim(2)) == 9 * q and circle.is_subcomplex_of(X)
    return X, circle


@pytest.fixture(scope="session")
def moore_thickening():
    """The thickening of the mod-3 Moore space."""
    return thicken(moore_space(3)[0])


@pytest.fixture(scope="session")
def moore6_thickening():
    """The thickening of the mod-6 Moore space."""
    return thicken(moore_space(6)[0])


def grid_torus(n):
    """The n×n grid torus: vertices g<i>_<j> for i, j mod n, each unit
    square (i, j) cut along its diagonal into the triangles
    (i, j) (i+1, j) (i+1, j+1) and (i, j) (i, j+1) (i+1, j+1).

    For n >= 3 no two triangles share a vertex set, so it is a
    triangulated torus with n² vertices, 3n² edges and 2n² triangles."""
    def g(i, j):
        return "g%d_%d" % (i % n, j % n)

    triangles = []
    for i in range(n):
        for j in range(n):
            triangles += [[g(i, j), g(i + 1, j), g(i + 1, j + 1)],
                          [g(i, j), g(i, j + 1), g(i + 1, j + 1)]]
    X = validate_complex(triangles)
    H = homology_groups(X)
    assert (H.betti, H.torsion) == ((1, 2, 1), ((), (), ()))
    assert [len(X.by_dim(k)) for k in range(3)] == [n * n, 3 * n * n, 2 * n * n]
    return X


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
    return next(i for i, v in enumerate(t) if v not in f)


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
        ws = [v for v in s if v in cone_vertices]
        if not ws:
            continue
        assert len(ws) == 1, s
        pos = s.index(ws[0])
        base = s[:pos] + s[pos + 1:]
        body = [b for b in cofaces[base] if not set(b) & set(cone_vertices)]
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


def vertex_mirror_structure(P):
    """The mirror structure with one mirror per vertex of ∂P, for P with a
    flag boundary: the colouring of ∂P with one colour per vertex, on the
    chamber sd P.  Its closure has 2^|∂P vertices| chambers."""
    boundary = check_pseudomanifold(P).boundary
    sub = barycentric_subdivision(P)
    Sof = {}
    for y in sub.child.vertices:
        tau = sub.carrier_of_label(y)
        Sof[y] = frozenset(tau) if tau in boundary.simplices else frozenset()
    return MirrorStructure(Y=sub.child, S=boundary.vertices, Sof=Sof, chamber_source=P)


@pytest.fixture(scope="session")
def vertex_mirrors():
    return vertex_mirror_structure


@pytest.fixture(scope="session")
def octahedral_closure(octahedral_ball):
    """The octahedral ball closed over one mirror per boundary vertex: 2^6
    chambers and 53,504 simplices, the fixed complex that the kernel pins
    (coreduction, fan forests, orientation signs) are taken on."""
    return close_mirror_structure(vertex_mirror_structure(octahedral_ball))


@pytest.fixture(scope="session")
def coloured_octahedral_closure(octahedral_ball):
    """``close_up``'s own closure of the octahedral ball: ∂P is the
    octahedron, whose proper colourings pair antipodes, so 2^3 chambers."""
    return close_up(octahedral_ball)
