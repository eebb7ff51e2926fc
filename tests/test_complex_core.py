import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from plthick.complex_core import (
    EMPTY_COMPLEX,
    Complex,
    Simplex,
    barycentric_subdivision,
    barycenter_label,
    boundary_and_free_faces,
    complex_from_maximal,
    cone_off,
    full_subcomplex,
    greedy_collapse,
    is_flag,
    is_full_subcomplex,
    link_of,
    regular_neighborhood,
    relative_barycentric_subdivision,
    simplicial_neighborhood,
    simplex,
    spine,
    spine_boundary_check,
    validate_complex,
)
from plthick.cli import complex_from_obj
from plthick.errors import ConstructionError, ValidationError
from plthick.fixtures import FIXTURE_NAMES, fixture


def counts(X):
    return tuple(len(X.by_dim(k)) for k in range(X.dim + 1))


def chain_count_oracle(X, length):
    """Number of strictly increasing chains of the given length in the face
    poset of X: an independent count of the k-simplices of B(X)."""
    simplices = sorted(X.simplices)
    total = 0
    for combo in itertools.combinations(simplices, length):
        ordered = sorted(combo, key=lambda s: len(s.vertices))
        if all(set(ordered[i].vertices) < set(ordered[i + 1].vertices)
               for i in range(length - 1)):
            total += 1
    return total


# -- validate_complex --------------------------------------------------------

def test_validate_triangle_closure():
    X = validate_complex([["a", "b", "c"]])
    assert counts(X) == (3, 3, 1)


def test_validate_three_cycle():
    X = fixture("three_cycle")
    assert counts(X) == (3, 3)


def test_validate_duplicate_vertex_rejected():
    with pytest.raises(ValidationError):
        validate_complex([["a", "a", "b"]])


# -- validation at the public constructors and loaders ------------------------

def test_simplex_sorts_its_labels():
    assert Simplex(("b", "a")).vertices == ("a", "b")
    assert Simplex(("b", "a")) == simplex("a", "b")


@pytest.mark.parametrize("labels", [(), ("a", "a"), ("b", "a", "b"), ("a", 1), (2,),
                                    ("a", ""), (None, "a")])
def test_simplex_rejects_invalid_labels(labels):
    with pytest.raises(ValidationError):
        Simplex(labels)


def test_complex_rejects_missing_faces_and_non_simplices():
    for simplices in ({simplex("a", "b")}, frozenset({simplex("a", "b")})):
        with pytest.raises(ValidationError, match="not closed under faces"):
            Complex(simplices)
    with pytest.raises(ValidationError, match="not a Simplex"):
        Complex([("a",)])
    with pytest.raises(ValidationError, match="not a Simplex"):
        complex_from_maximal([("a", "b")])


MALFORMED_INPUTS = [[[]], [["a", "a"]], [["a", "b", "a"]], [["a", 1]], [["a", ""]],
                    [["a", "b"], [None]]]


@pytest.mark.parametrize("raw", MALFORMED_INPUTS, ids=repr)
def test_loaders_reject_malformed_simplices(raw):
    with pytest.raises(ValidationError):
        validate_complex(raw)
    declared = sorted({v for entry in raw for v in entry}, key=repr)
    with pytest.raises(ValidationError):
        complex_from_obj({"vertices": [{"id": v} for v in declared], "simplices": raw})


# -- star and link ------------------------------------------------------------

def test_link_in_tetrahedron_boundary_is_cycle():
    X = fixture("boundary_delta3")
    link = link_of(X, simplex("a"))
    assert counts(link) == (3, 3)
    assert all(len(link.adjacency()[v]) == 2 for v in link.vertices)


def test_link_in_single_triangle():
    X = fixture("single_triangle")
    link = link_of(X, simplex("a"))
    assert link == complex_from_maximal([simplex("b", "c")])
    assert complex_from_maximal(X.incident("a")) == X


def test_link_two_triangles_shared_vertex():
    X = fixture("two_triangles_shared_vertex")
    link = link_of(X, simplex("a"))
    assert link == complex_from_maximal([simplex("b", "c"), simplex("d", "e")])
    assert len(link.connected_components()) == 2


def test_link_of_missing_simplex_errors():
    with pytest.raises(ValidationError):
        link_of(fixture("single_triangle"), simplex("z"))


# -- boundary and free faces ---------------------------------------------------

def test_boundary_of_triangle_is_cycle():
    free, boundary = boundary_and_free_faces(fixture("single_triangle"))
    assert boundary == fixture("three_cycle")
    assert free == set(fixture("three_cycle").by_dim(1))


def test_boundary_of_sphere_is_empty():
    _, boundary = boundary_and_free_faces(fixture("boundary_delta3"))
    assert len(boundary) == 0


def test_boundary_of_edge_is_endpoints():
    free, boundary = boundary_and_free_faces(fixture("single_edge"))
    assert set(boundary.simplices) == {simplex("a"), simplex("b")}


# -- fullness -----------------------------------------------------------------

def test_full_subcomplex_witness():
    X = fixture("single_triangle")
    K = fixture("three_cycle")
    ok, witness = is_full_subcomplex(X, K)
    assert not ok and witness == simplex("a", "b", "c")


def test_full_subcomplex_edge():
    X = fixture("single_triangle")
    K = complex_from_maximal([simplex("a", "b")])
    assert is_full_subcomplex(X, K) == (True, None)


def test_full_subcomplex_identity():
    X = fixture("torus_7")
    assert is_full_subcomplex(X, X) == (True, None)


# -- barycentric subdivision ----------------------------------------------------

def test_subdivision_of_triangle_counts():
    B = barycentric_subdivision(fixture("single_triangle"))
    assert counts(B.child) == (7, 12, 6)


def test_subdivision_of_edge_is_path():
    B = barycentric_subdivision(fixture("single_edge"))
    assert counts(B.child) == (3, 2)
    assert B.barycenter_table[simplex("a", "b")] == "(a|b)"


def test_subdivision_of_sphere_counts_match_chain_oracle():
    X = fixture("boundary_delta3")
    B = barycentric_subdivision(X)
    expected = tuple(chain_count_oracle(X, k + 1) for k in range(3))
    assert expected == (14, 36, 24)
    assert counts(B.child) == expected


def test_subdivision_carrier_respects_inclusion():
    X = fixture("two_triangles_shared_edge")
    B = barycentric_subdivision(X)
    for s in B.child.simplices:
        car = set(B.carrier[s].vertices)
        for f in s.facets():
            assert set(B.carrier[f].vertices) <= car


def test_original_vertices_keep_labels():
    X = fixture("single_triangle")
    B = barycentric_subdivision(X)
    assert set(X.vertices) <= set(B.child.vertices)


# -- relative subdivision -------------------------------------------------------

def test_relative_subdivision_empty_rel_equals_plain():
    X = fixture("single_triangle")
    assert relative_barycentric_subdivision(X, EMPTY_COMPLEX).child == \
        barycentric_subdivision(X).child


def test_relative_subdivision_keeps_edge():
    X = fixture("single_triangle")
    K = complex_from_maximal([simplex("a", "b")])
    sub = relative_barycentric_subdivision(X, K)
    assert simplex("a", "b") in sub.child
    # Direct enumeration: 6 vertices, 10 edges, 5 triangles.
    assert counts(sub.child) == (6, 10, 5)


def test_relative_subdivision_identity():
    X = fixture("boundary_delta3")
    sub = relative_barycentric_subdivision(X, X)
    assert sub.child == X


# -- spine ---------------------------------------------------------------------

def test_spine_of_triangle_is_tripod():
    _, K = spine(fixture("single_triangle"))
    assert counts(K) == (4, 3)
    center = barycenter_label(simplex("a", "b", "c"))
    assert len(K.adjacency()[center]) == 3


def test_spine_of_sphere():
    _, K = spine(fixture("boundary_delta3"))
    assert counts(K) == (10, 12)
    assert len(K.connected_components()) == 1
    b1 = 12 - 10 + 1
    assert b1 == 3


def test_spine_of_edge_is_point():
    _, K = spine(fixture("single_edge"))
    assert counts(K) == (1,)


def test_spine_requires_positive_dimension():
    with pytest.raises(ValidationError):
        spine(validate_complex([["a"], ["b"]]))


def test_spine_is_union_of_links_of_original_vertices():
    for name in ("single_triangle", "boundary_delta3", "two_triangles_shared_vertex"):
        X = fixture(name)
        B, K = spine(X)
        union = set()
        for v in X.vertices:
            union |= link_of(B.child, simplex(v)).simplices
        assert union == K.simplices


# -- neighborhoods --------------------------------------------------------------

def test_simplicial_neighborhood_path():
    X = validate_complex([["a", "b"], ["b", "c"]])
    K = full_subcomplex(X, ["b"])
    N, Ndot = simplicial_neighborhood(X, K)
    assert N == X
    assert set(Ndot.simplices) == {simplex("a"), simplex("c")}


def test_simplicial_neighborhood_identity():
    X = fixture("single_triangle")
    N, Ndot = simplicial_neighborhood(X, X)
    assert N == X and len(Ndot) == 0


def test_simplicial_neighborhood_of_spine_in_first_subdivision():
    # In B(triangle) the spine neighborhood swallows everything and the
    # frontier is the three original vertices; the arcs of the lemma only
    # appear after a further subdivision (see spine_boundary_check).
    X = fixture("single_triangle")
    B, K = spine(X)
    N, Ndot = simplicial_neighborhood(B.child, K)
    assert N == B.child
    assert set(Ndot.simplices) == {simplex("a"), simplex("b"), simplex("c")}


def test_regular_neighborhood_of_vertex_in_triangle():
    X = fixture("single_triangle")
    K = full_subcomplex(X, ["a"])
    N, Ndot, _ = regular_neighborhood(X, K)
    # Cone over a path: frontier is an arc on the two edge barycenters.
    assert counts(Ndot) == (3, 2)
    degrees = sorted(len(Ndot.adjacency()[v]) for v in Ndot.vertices)
    assert degrees == [1, 1, 2]
    assert set(Ndot.vertices) == {"(a|b)", "(a|b|c)", "(a|c)"}


def test_regular_neighborhood_of_vertex_in_sphere_is_circle():
    X = fixture("boundary_delta3")
    K = full_subcomplex(X, ["a"])
    N, Ndot, _ = regular_neighborhood(X, K)
    assert counts(Ndot) == (6, 6)
    assert all(len(Ndot.adjacency()[v]) == 2 for v in Ndot.vertices)
    # Same combinatorics as the subdivided link of the vertex.
    BL = barycentric_subdivision(link_of(X, simplex("a")))
    assert counts(BL.child) == counts(Ndot)


def test_regular_neighborhood_identity():
    X = fixture("single_triangle")
    N, Ndot, _ = regular_neighborhood(X, X)
    assert N == X and len(Ndot) == 0


# -- spine boundary identity ------------------------------------------------------

def test_spine_boundary_check_triangle():
    report = spine_boundary_check(fixture("single_triangle"))
    summary = report.component_summary()
    assert len(summary) == 3
    for v, info in summary.items():
        assert info["components"] == 1
        link = report.vertex_links[v]
        assert counts(link) == (5, 4)  # an arc: the twice-subdivided edge


def test_spine_boundary_check_sphere():
    report = spine_boundary_check(fixture("boundary_delta3"))
    assert len(report.vertex_links) == 4
    for link in report.vertex_links.values():
        assert counts(link) == (12, 12)
        assert all(len(link.adjacency()[v]) == 2 for v in link.vertices)


def second_derived_frontier(X):
    """The identity's construction in the full second subdivision X2: the
    spine's image K2 and the frontier of its simplicial neighborhood."""
    B1, K = spine(X)
    B2 = barycentric_subdivision(B1.child)
    K2 = full_subcomplex(B2.child, [B2.barycenter_table[s] for s in K.simplices])
    _, Ndot = simplicial_neighborhood(B2.child, K2)
    return B2.child, Ndot


def test_spine_boundary_check_matches_second_derived_oracle(spine_identity_inputs):
    for X in spine_identity_inputs:
        X2, frontier = second_derived_frontier(X)
        links = spine_boundary_check(X).vertex_links
        assert links == {v: link_of(X2, simplex(v)) for v in X.vertices}
        assert set().union(*(link.simplices for link in links.values())) == frontier.simplices


def test_spine_boundary_check_edge():
    report = spine_boundary_check(fixture("single_edge"))
    for link in report.vertex_links.values():
        assert counts(link) == (1,)


# -- cones -----------------------------------------------------------------------

def test_cone_over_cycle_is_disc():
    L = fixture("three_cycle")
    disc = cone_off(L, L, "w")
    assert counts(disc) == (4, 6, 3)
    _, boundary = boundary_and_free_faces(disc)
    assert boundary == L


def test_cone_over_sphere_is_ball():
    L = fixture("boundary_delta3")
    ball = cone_off(L, L, "w")
    assert counts(ball) == (5, 10, 10, 4)


def test_cone_over_empty_adds_isolated_vertex():
    X = fixture("single_triangle")
    Y = cone_off(X, EMPTY_COMPLEX, "w")
    assert set(Y.vertices) == set(X.vertices) | {"w"}
    assert simplex("w") in Y


def test_cone_vertex_collision():
    X = fixture("single_triangle")
    with pytest.raises(ValidationError):
        cone_off(X, X, "a")


# -- flag test --------------------------------------------------------------------

def test_three_cycle_not_flag():
    flag, witness = is_flag(fixture("three_cycle"))
    assert not flag and witness == simplex("a", "b", "c")


def test_four_cycle_is_flag():
    assert is_flag(fixture("four_cycle")) == (True, None)


def test_empty_tetrahedron_detected():
    X = fixture("boundary_delta3")
    flag, witness = is_flag(X)
    assert not flag and witness == simplex("a", "b", "c", "d")


@pytest.mark.parametrize("name", ["single_triangle", "boundary_delta3",
                                  "projective_plane_6", "torus_7",
                                  "two_triangles_shared_vertex"])
def test_barycentric_subdivisions_are_flag(name):
    B = barycentric_subdivision(fixture(name))
    assert is_flag(B.child) == (True, None)


# -- greedy collapse ---------------------------------------------------------------

def test_triangle_collapses_to_point():
    out = greedy_collapse(fixture("single_triangle"))
    assert counts(out) == (1,)


def test_sphere_has_no_free_faces():
    X = fixture("boundary_delta3")
    assert greedy_collapse(X) == X


def test_subdivided_triangle_collapses_to_point():
    B = barycentric_subdivision(fixture("single_triangle"))
    out = greedy_collapse(B.child)
    assert counts(out) == (1,)


def test_greedy_collapse_deterministic():
    B = barycentric_subdivision(fixture("two_triangles_shared_edge"))
    assert greedy_collapse(B.child, seed=5) == greedy_collapse(B.child, seed=5)


def simplex_keyed_greedy_collapse(X, seed=0):
    """The former ``greedy_collapse``, keyed on ``Simplex`` objects: the
    reference the integer-slot version must match."""
    present = set(X.simplices)
    cof_count = {s: 0 for s in present}
    cover = {s: set() for s in present}
    for s in present:
        for f in s.faces():
            cof_count[f] += 1
        for f in s.facets():
            cover[f].add(s)

    if seed:
        rng = random.Random(seed)
        noise = {s: rng.random() for s in sorted(present)}
        key = lambda s: (noise[s], len(s.vertices), s.vertices)
    else:
        key = lambda s: (len(s.vertices), s.vertices)

    heap = [(key(s), s) for s in present if cof_count[s] == 1]
    heapq.heapify(heap)

    def remove(x):
        present.discard(x)
        for f in x.faces():
            if f in cof_count:
                cof_count[f] -= 1
                if cof_count[f] == 1 and f in present:
                    heapq.heappush(heap, (key(f), f))
        for f in x.facets():
            if f in cover:
                cover[f].discard(x)

    while heap:
        _, s = heapq.heappop(heap)
        if s not in present or cof_count[s] != 1:
            continue
        covers = cover[s]
        if len(covers) != 1:
            raise ConstructionError("free face bookkeeping broken at %s" % (s,))
        (u,) = covers
        remove(u)
        remove(s)
    return Complex(present)


ORACLE_SEEDS = (0, 1, 2, 5)


def assert_collapse_matches_oracle(X):
    for seed in ORACLE_SEEDS:
        assert greedy_collapse(X, seed=seed) == simplex_keyed_greedy_collapse(X, seed=seed)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_greedy_collapse_matches_oracle_on_subdivided_fixtures(name):
    assert_collapse_matches_oracle(barycentric_subdivision(fixture(name)).child)


def test_greedy_collapse_matches_oracle_on_thickening(pipeline_cache):
    out, _ = pipeline_cache("projective_plane_6", 0)
    assert_collapse_matches_oracle(out.M)


# -- random complexes --------------------------------------------------------------


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    labels = [chr(ord("a") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=7))
    maximal = []
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(4, n)))
        picks = draw(st.permutations(labels))
        maximal.append(sorted(picks[:size]))
    return validate_complex(maximal)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_complexes())
def test_random_complex_face_closure_and_spine_identity(X):
    for s in X.simplices:
        for f in s.facets():
            assert f in X.simplices
    B, K = spine(X)
    union = set()
    for v in X.vertices:
        union |= link_of(B.child, simplex(v)).simplices
    assert union == K.simplices


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_complexes())
def test_random_complex_spine_boundary_identity(X):
    spine_boundary_check(X)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_complexes())
def test_random_subdivision_is_flag(X):
    B = barycentric_subdivision(X)
    assert is_flag(B.child) == (True, None)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_complexes())
def test_random_complex_collapse_matches_oracle(X):
    assert_collapse_matches_oracle(X)


# -- maximal simplices and the dimension table ---------------------------------


def incidence_scan_maximal(X):
    """The former definition: no simplex through the first vertex is a
    strict superset."""
    maximal = []
    for s in X.simplices:
        vs = set(s.vertices)
        if not any(len(t) > len(s) and vs < set(t.vertices)
                   for t in X.incident(s.vertices[0])):
            maximal.append(s)
    return tuple(sorted(maximal))


def random_face_closed(rng):
    """The face closure of random simplices of dimension <= 3, on one or two
    disjoint vertex pools, so non-pure and disconnected complexes occur."""
    pools = [["%s%d" % (tag, i) for i in range(rng.randint(1, 7))]
             for tag in "uv"[:rng.randint(1, 2)]]
    tops = []
    for _ in range(rng.randint(1, 8)):
        pool = rng.choice(pools)
        tops.append(Simplex(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
    return complex_from_maximal(tops)


def test_maximal_simplices_and_by_dim_match_oracles():
    rng = random.Random(20261018)
    impure = disconnected = 0
    for _ in range(400):
        X = random_face_closed(rng)
        assert X.maximal_simplices == incidence_scan_maximal(X)
        assert Complex(X.simplices).maximal_simplices == X.maximal_simplices
        assert X.dim == max(s.dim for s in X.simplices)
        for k in range(-1, 5):
            assert X.by_dim(k) == tuple(sorted(s for s in X.simplices if s.dim == k))
        impure += len({s.dim for s in X.maximal_simplices}) > 1
        disconnected += not X.is_connected()
    assert impure > 50 and disconnected > 50
    assert EMPTY_COMPLEX.dim == -1 and EMPTY_COMPLEX.maximal_simplices == ()
