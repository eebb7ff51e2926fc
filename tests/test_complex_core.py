import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from plthick.complex_core import (
    EMPTY_COMPLEX,
    Collapse,
    Complex,
    barycentric_subdivision,
    barycenter_label,
    boundary_and_free_faces,
    complex_from_maximal,
    cone_off,
    dsatur_colouring,
    faces,
    facets,
    full_subcomplex,
    greedy_collapse,
    is_flag,
    is_full_subcomplex,
    link_of,
    regular_neighborhood,
    relative_barycentric_subdivision,
    simplicial_neighborhood,
    simplex,
    simplex_key,
    spine,
    spine_boundary_check,
    validate_complex,
)
from plthick.cli import complex_from_obj
from plthick.errors import ValidationError
from plthick.fixtures import FIXTURE_NAMES, THICKENING_FIXTURES, fixture
from plthick.homology import homology_groups
from plthick.pseudomanifold import check_pseudomanifold
from conftest import relabelled


def counts(X):
    return tuple(len(X.by_dim(k)) for k in range(X.dim + 1))


def chain_count_oracle(X, length):
    """Number of strictly increasing chains of the given length in the face
    poset of X: an independent count of the k-simplices of B(X)."""
    simplices = sorted(X.simplices)
    total = 0
    for combo in itertools.combinations(simplices, length):
        ordered = sorted(combo, key=len)
        if all(set(ordered[i]) < set(ordered[i + 1])
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
    assert simplex("b", "a") == ("a", "b")
    assert complex_from_maximal([("a", "b")]) == validate_complex([["b", "a"]])


@pytest.mark.parametrize("labels", [(), ("a", "a"), ("b", "a", "b"), ("a", 1), (2,),
                                    ("a", ""), (None, "a"), ("",)])
def test_simplex_rejects_invalid_labels(labels):
    with pytest.raises(ValidationError):
        simplex(*labels)


def test_complex_rejects_missing_faces_and_non_simplices():
    for simplices in ({simplex("a", "b")}, frozenset({simplex("a", "b")})):
        with pytest.raises(ValidationError, match="not closed under faces"):
            Complex(simplices)
    # An unsorted tuple, a list, the letters of a string, a bare label.
    for simplices in ([("b", "a"), ("a",), ("b",)], [["a"]], "ab", [("a",), "b"]):
        with pytest.raises(ValidationError, match="not a simplex|not a set of simplices"):
            Complex(simplices)
    with pytest.raises(ValidationError, match="not a set of simplices"):
        Complex(5)


# The last entry of each input is malformed.
MALFORMED_INPUTS = [[[]], [["a", "a"]], [["a", "b", "a"]], [["a", 1]], [["a", ""]],
                    [["a", "b"], [None]], [[""]]]


@pytest.mark.parametrize("raw, message", [
    ([["a", "b"], "cd"], "simplex 'cd' is not a list of vertex labels"),
    ("abc", "a complex is a list of simplices, not 'abc'"),
    ([["a", "b"], 5], "simplex 5 is not a list of vertex labels"),
], ids=["string-entry", "string-complex", "integer-entry"])
def test_validate_complex_names_an_entry_that_is_no_list(raw, message):
    """A string is not split into one-letter vertices, and a non-iterable
    entry is a ValidationError, not a bare TypeError."""
    with pytest.raises(ValidationError) as info:
        validate_complex(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", MALFORMED_INPUTS, ids=repr)
def test_loaders_reject_malformed_simplices(raw):
    """Every entry point rejects the malformed simplex: ``simplex()``,
    ``Complex`` on label tuples, and both loaders."""
    with pytest.raises(ValidationError):
        simplex(*raw[-1])
    with pytest.raises(ValidationError):
        Complex(tuple(entry) for entry in raw)
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

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_facet_opposites_name_the_vertex_outside_each_facet(name):
    X = fixture(name)
    cofaces, opposites = X.facet_cofaces(), X.facet_opposites()
    assert list(cofaces) == list(X.by_dim(X.dim - 1))
    assert len(opposites) == len(cofaces)
    for (f, tops), ps in zip(cofaces.items(), opposites):
        assert len(ps) == len(tops)
        for t, p in zip(tops, ps):
            assert t[:p] + t[p + 1:] == f


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


# -- closures on the incidence index ----------------------------------------------

def assert_closure_matches_oracle(X, ids):
    """``Incidence.closure`` of the ids against ``complex_from_maximal`` of
    their simplices: the same ``by_dim`` tuples in every dimension."""
    ix = X.incidence()
    got = ix.closure(ids)
    oracle = complex_from_maximal(ix.cells[x] for x in ids)
    assert got.dim == oracle.dim
    assert all(got.by_dim(k) == oracle.by_dim(k) for k in range(-1, X.dim + 2))
    assert got == Complex(got.simplices)
    return got


def random_pure_complex(rng, d):
    """A pure d-complex on a few vertices, from random d-simplices."""
    labels = ["v%d" % i for i in range(rng.randint(d + 1, d + 6))]
    return complex_from_maximal(simplex(*rng.sample(labels, d + 1))
                                for _ in range(rng.randint(1, 10)))


def test_closure_matches_complex_from_maximal_on_random_pure_complexes():
    """Random ids of every dimension, the facets of one top, the boundary
    and no ids at all, on 60 random pure complexes of dimension 1 to 3."""
    rng = random.Random(20261020)
    for trial in range(60):
        X = random_pure_complex(rng, 1 + trial % 3)
        ix = X.incidence()
        ids = rng.sample(range(len(ix.cells)), rng.randint(1, len(ix.cells)))
        assert_closure_matches_oracle(X, ids)
        top = ix.offsets[X.dim]
        assert_closure_matches_oracle(X, list(ix.down(top)))
        assert_closure_matches_oracle(X, [f for f in ix.ids(X.dim - 1) if ix.degree(f) == 1])
        assert len(assert_closure_matches_oracle(X, [])) == 0


def _facet_boundary_ids(X):
    ix = X.incidence()
    return [f for f in ix.ids(X.dim - 1) if ix.degree(f) == 1]


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_closure_matches_complex_from_maximal_on_boundaries_of_m_and_p(pipeline_cache, name):
    out, rep = pipeline_cache(name)
    for X, boundary in ((out.M, out.boundary_surface), (out.P, rep.pseudomanifold.boundary)):
        closed = assert_closure_matches_oracle(X, _facet_boundary_ids(X))
        assert all(closed.by_dim(k) == boundary.by_dim(k) for k in range(3)), name


def test_closure_matches_complex_from_maximal_on_the_boundary_of_q(octahedral_closure):
    Q = octahedral_closure.Q.complex
    assert len(assert_closure_matches_oracle(Q, _facet_boundary_ids(Q))) == 0
    # Q is closed, so close the star of its first vertex instead.
    ix = Q.incidence()
    assert_closure_matches_oracle(Q, [x for x, s in enumerate(ix.cells) if s[0] == ix.cells[0][0]])


# -- fullness -----------------------------------------------------------------

def test_full_subcomplex_witness():
    X = fixture("single_triangle")
    K = fixture("three_cycle")
    ok, witness = is_full_subcomplex(X, K)
    assert not ok and witness == simplex("a", "b", "c")


def test_full_subcomplex_witness_is_the_first_in_by_dim_order():
    """The edges ac and bc and the triangle abc all miss K; ac comes first."""
    X = fixture("single_triangle")
    K = complex_from_maximal([simplex("a", "b")] + [simplex("c")])
    assert is_full_subcomplex(X, K) == (False, simplex("a", "c"))


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


def carrier_violations(sub):
    """The (facet, child) pairs of a subdivision whose facet's carrier is
    not a face of the child's carrier: the oracle of the monotonicity that
    ``relative_barycentric_subdivision`` has by construction."""
    return [(f, s) for s in sub.child.simplices for f in facets(s)
            if not set(sub.carrier[f]) <= set(sub.carrier[s])]


def test_subdivision_carrier_respects_inclusion():
    """On every fixture: the plain subdivision sd X, and the collar's
    subdivision sd(sd X rel spine) that ``regular_neighborhood`` builds."""
    for name in FIXTURE_NAMES:
        X = fixture(name)
        subs = [barycentric_subdivision(X)]
        if X.dim >= 1:
            B1, K = spine(X)
            subs.append(regular_neighborhood(B1.child, K)[2])
        for sub in subs:
            assert sub.carrier.keys() == sub.child.simplices, name
            assert carrier_violations(sub) == [], name


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
    links = spine_boundary_check(fixture("single_triangle"))
    assert len(links) == 3
    for link in links.values():
        assert len(link.connected_components()) == 1
        assert counts(link) == (5, 4)  # an arc: the twice-subdivided edge


def test_spine_boundary_check_sphere():
    links = spine_boundary_check(fixture("boundary_delta3"))
    assert len(links) == 4
    for link in links.values():
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
        links = spine_boundary_check(X)
        assert links == {v: link_of(X2, simplex(v)) for v in X.vertices}
        assert set().union(*(link.simplices for link in links.values())) == frontier.simplices


def test_spine_boundary_check_edge():
    for link in spine_boundary_check(fixture("single_edge")).values():
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
    """A used label is rejected, and so is a malformed one."""
    X = fixture("single_triangle")
    for w in ("a", "", ["w"]):
        with pytest.raises(ValidationError):
            cone_off(X, X, w)


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


def is_flag_oracle(X):
    """The former ``is_flag``, the oracle of the counting one: every
    candidate s + v listed, with a ``sorted()`` per simplex and a set of
    the candidates seen."""
    adj = X.adjacency()
    seen = set()
    for k in range(1, X.dim + 1):
        for s in X.by_dim(k):
            common = set(adj[s[0]])
            for v in s[1:]:
                common &= adj[v]
            for v in sorted(common):
                cand = tuple(sorted(s + (v,)))
                if cand in seen:
                    continue
                seen.add(cand)
                if cand in X.simplices:
                    continue
                if all(f in X.simplices for f in facets(cand)):
                    return False, cand
    return True, None


def clique_complex_missing_one(rng):
    """The clique complex of a random graph on six vertices, and the one of
    its simplices of dimension 2 or more taken out with its cofaces (its
    proper faces stay), or None with nothing taken out.  The simplex taken
    out is then the one minimal empty simplex; its size is drawn first."""
    labels = ["w%d" % i for i in range(6)]
    edges = {e for e in itertools.combinations(labels, 2) if rng.random() < 0.6}
    cliques = [c for k in range(1, 7) for c in itertools.combinations(labels, k)
               if edges.issuperset(itertools.combinations(c, 2))]
    sizes = sorted({len(c) for c in cliques if len(c) > 2})
    drop = None
    if sizes and rng.random() < 0.8:
        size = rng.choice(sizes)
        drop = rng.choice([c for c in cliques if len(c) == size])
    kept = [c for c in cliques if drop is None or not set(drop) <= set(c)]
    return complex_from_maximal(kept), drop


def test_is_flag_matches_the_listing_oracle(pipeline_cache, octahedral_ball):
    """Same verdict and witness as the oracle on every fixture, each
    thickening's ∂P, the octahedral ball and its boundary, 200 seeded
    random complexes and 200 seeded clique complexes with one simplex taken
    out, which is then the witness; flag inputs and witnesses of dimension
    2 and 3 all occur."""
    rng = random.Random(20261021)
    inputs = [fixture(name) for name in FIXTURE_NAMES]
    inputs += [pipeline_cache(name)[1].pseudomanifold.boundary
               for name in THICKENING_FIXTURES]
    inputs += [octahedral_ball, check_pseudomanifold(octahedral_ball).boundary]
    inputs += [random_face_closed(rng) for _ in range(200)]
    seen = collections.Counter()
    for X in inputs:
        got = is_flag(X)
        assert got == is_flag_oracle(X), X
        seen[len(got[1]) if got[1] else 0] += 1
    for _ in range(200):
        X, drop = clique_complex_missing_one(rng)
        got = is_flag(X)
        assert got == is_flag_oracle(X) == (drop is None, drop), X
        seen[len(drop) if drop else 0] += 1
    assert seen[0] > 20 and seen[3] > 20 and seen[4] > 20


@pytest.mark.parametrize("name", ["single_triangle", "boundary_delta3",
                                  "projective_plane_6", "torus_7",
                                  "two_triangles_shared_vertex"])
def test_barycentric_subdivisions_are_flag(name):
    B = barycentric_subdivision(fixture(name))
    assert is_flag(B.child) == (True, None)


# -- colouring ------------------------------------------------------------------------

def assert_proper(X, colour):
    assert sorted(colour) == sorted(X.vertices)
    assert all(colour[a] != colour[b] for a, b in X.by_dim(1))
    assert set(colour.values()) == set(range(max(colour.values()) + 1))


def colour_classes(X, colour):
    return sorted(sorted(v for v in X.vertices if colour[v] == c)
                  for c in set(colour.values()))


@pytest.mark.parametrize("seed", range(20))
def test_dsatur_finds_the_forced_colourings(seed):
    """Under 20 relabellings DSATUR colours the 4-cycle with 2 colours and
    the octahedron with 3, and each has only one partition into that many
    classes: opposite vertices, antipodes."""
    rng = random.Random(seed)
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    octahedron = [(x, y, z) for x in ("x+", "x-") for y in ("y+", "y-") for z in ("z+", "z-")]
    for raw, forced in ((square, [["a", "c"], ["b", "d"]]),
                        (octahedron, [["x+", "x-"], ["y+", "y-"], ["z+", "z-"]])):
        old = sorted({v for s in raw for v in s})
        new = ["v%d" % i for i in range(len(old))]
        rng.shuffle(new)
        perm = dict(zip(old, new))
        X = validate_complex([[perm[v] for v in s] for s in raw])
        colour = dsatur_colouring(X)
        assert_proper(X, colour)
        assert colour_classes(X, colour) == sorted(sorted(perm[v] for v in c) for c in forced)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dsatur_colouring_is_proper(pipeline_cache, name):
    """On every fixture, its subdivision and, for a thickening fixture, the
    boundary of P, which ``close_up`` would colour."""
    inputs = [fixture(name), barycentric_subdivision(fixture(name)).child]
    if name in THICKENING_FIXTURES:
        inputs.append(pipeline_cache(name)[1].pseudomanifold.boundary)
    for X in inputs:
        assert_proper(X, dsatur_colouring(X))


def test_dsatur_breaks_ties_by_label():
    """On the 5-cycle every choice is a tie broken by label: a, then b
    before e, c before e, d before e; the odd cycle leaves e a third
    colour."""
    X = validate_complex([["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["a", "e"]])
    assert dsatur_colouring(X) == {"a": 0, "b": 1, "c": 0, "d": 1, "e": 2}


# -- greedy collapse ---------------------------------------------------------------

def test_triangle_collapses_to_point():
    out = greedy_collapse(fixture("single_triangle")).remainder
    assert counts(out) == (1,)


def test_sphere_has_no_free_faces():
    X = fixture("boundary_delta3")
    assert greedy_collapse(X).remainder == X


def test_subdivided_triangle_collapses_to_point():
    B = barycentric_subdivision(fixture("single_triangle"))
    out = greedy_collapse(B.child).remainder
    assert counts(out) == (1,)


def test_greedy_collapse_deterministic():
    (X,) = relabelled(barycentric_subdivision(fixture("two_triangles_shared_edge")).child, 5)
    assert greedy_collapse(X) == greedy_collapse(X)


def simplex_keyed_greedy_collapse(X, keep=EMPTY_COMPLEX):
    """A reference for ``greedy_collapse``, keyed on the simplices
    themselves: the simplices with one cover are queued in ``simplex_key``
    order, then each one whose covers drop to one as the collapse goes, and
    the queue is taken first in, first out.  A removed simplex visits its
    facets in ``combinations`` order, the last vertex dropped first.  A
    simplex of ``keep`` is never queued."""
    present = set(X.simplices)
    kept = keep.simplices
    covers = {s: set() for s in present}
    for s in present:
        for f in facets(s):
            covers[f].add(s)
    queue = collections.deque(sorted((s for s in present
                                      if len(covers[s]) == 1 and s not in kept),
                                     key=simplex_key))
    pairs = []

    def remove(x):
        present.remove(x)
        for f in reversed(facets(x)):
            covers[f].discard(x)
            if len(covers[f]) == 1 and f not in kept:
                queue.append(f)

    while queue:
        s = queue.popleft()
        if s in present and len(covers[s]) == 1:
            (u,) = covers[s]
            pairs.append((s, u))
            remove(u)
            remove(s)
    return Collapse(remainder=Complex(present), pairs=tuple(pairs))


ORACLE_SEEDS = (0, 1, 2, 5)


def assert_same_collapse(X, keep=EMPTY_COMPLEX):
    """Same pairs and remainder as the oracle, whose remainder is built by
    the checked constructor; the trusted remainder's layers are the same."""
    got, want = greedy_collapse(X, keep=keep), simplex_keyed_greedy_collapse(X, keep)
    assert got == want
    assert ([got.remainder.by_dim(k) for k in range(X.dim + 2)]
            == [want.remainder.by_dim(k) for k in range(X.dim + 2)])


def assert_collapse_matches_oracle(X, keep=EMPTY_COMPLEX):
    """``assert_same_collapse`` under each of the oracle seeds' labellings."""
    for seed in ORACLE_SEEDS:
        assert_same_collapse(*relabelled(X, seed, keep))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_greedy_collapse_matches_oracle_on_subdivided_fixtures(name):
    assert_collapse_matches_oracle(barycentric_subdivision(fixture(name)).child)


def test_greedy_collapse_matches_oracle_on_thickening(pipeline_cache):
    out, _ = pipeline_cache("projective_plane_6")
    assert_collapse_matches_oracle(out.M)


def test_kept_collapse_matches_oracle_on_thickening(pipeline_cache):
    """The collapse whose pairs ``order_sha256`` digests: P keeping X_copy,
    pair for pair."""
    out, rep = pipeline_cache("projective_plane_6")
    assert_same_collapse(out.P, out.X_copy)
    assert len(greedy_collapse(out.P, keep=out.X_copy).pairs) == rep.certificate.pairs


def replay_collapse(X, pairs, keep=EMPTY_COMPLEX):
    """Apply the elementary collapses ``pairs`` to X one by one, asserting
    that each removes a free face outside ``keep`` with its unique proper
    coface; returns what is left."""
    present = set(X.simplices)
    cofaces = {s: set() for s in present}
    for s in present:
        for f in faces(s):
            cofaces[f].add(s)
    for f, c in pairs:
        assert f not in keep.simplices and c not in keep.simplices, (f, c)
        assert f in present and cofaces[f] == {c} and len(c) == len(f) + 1, (f, c)
        for x in (c, f):
            present.remove(x)
            for g in faces(x):
                cofaces[g].discard(x)
    return Complex(present)


def assert_maximal_collapse(X, keep=EMPTY_COMPLEX):
    """The collapse is valid step by step, its remainder is what the steps
    leave, it contains ``keep``, and no free face outside ``keep`` is left."""
    collapse = greedy_collapse(X, keep=keep)
    R = collapse.remainder
    assert replay_collapse(X, collapse.pairs, keep) == R
    assert keep.is_subcomplex_of(R)
    free = boundary_and_free_faces(R)[0]
    assert all(f in keep.simplices for f in free), free
    return collapse


def test_cone_collapses_onto_kept_base():
    base = barycentric_subdivision(fixture("single_triangle")).child
    ball = cone_off(base, base, "apex")
    collapse = assert_maximal_collapse(ball, keep=base)
    assert collapse.remainder == base
    assert len(collapse.pairs) == (len(ball) - len(base)) // 2


def test_sphere_with_kept_vertex_has_no_free_face():
    X = fixture("boundary_delta3")
    collapse = assert_maximal_collapse(X, keep=complex_from_maximal([simplex("a")]))
    assert collapse.remainder == X and collapse.pairs == ()
    assert homology_groups(collapse.remainder).betti == (1, 0, 1)


def test_kept_subcomplex_must_lie_in_the_complex():
    with pytest.raises(ValidationError):
        greedy_collapse(fixture("single_triangle"), keep=fixture("boundary_delta3"))


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_collapse_of_thickening_onto_its_retract_copy(pipeline_cache, seed):
    out, rep = pipeline_cache("two_triangles_shared_vertex")
    P, X_copy = relabelled(out.P, seed, out.X_copy)
    collapse = assert_maximal_collapse(P, keep=X_copy)
    assert collapse.remainder == X_copy
    if seed == 0:
        assert len(collapse.pairs) == rep.certificate.pairs


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
        for f in facets(s):
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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_complexes(), st.data())
def test_random_complex_kept_collapse_matches_oracle(X, data):
    """Keeping the closure of a random set of simplices."""
    picks = data.draw(st.sets(st.sampled_from(sorted(X.simplices, key=simplex_key))))
    assert_collapse_matches_oracle(X, complex_from_maximal(picks))


# -- maximal simplices and the dimension table ---------------------------------


def incidence_scan_maximal(X):
    """The former definition: no simplex through the first vertex is a
    strict superset."""
    maximal = []
    for s in X.simplices:
        vs = set(s)
        if not any(len(t) > len(s) and vs < set(t) for t in X.incident(s[0])):
            maximal.append(s)
    return tuple(sorted(maximal, key=simplex_key))


def random_face_closed(rng):
    """The face closure of random simplices of dimension <= 3, on one or two
    disjoint vertex pools, so non-pure and disconnected complexes occur."""
    pools = [["%s%d" % (tag, i) for i in range(rng.randint(1, 7))]
             for tag in "uv"[:rng.randint(1, 2)]]
    tops = []
    for _ in range(rng.randint(1, 8)):
        pool = rng.choice(pools)
        tops.append(simplex(*rng.sample(pool, rng.randint(1, min(4, len(pool))))))
    return complex_from_maximal(tops)


def test_maximal_simplices_and_by_dim_match_oracles():
    rng = random.Random(20261018)
    impure = disconnected = 0
    for _ in range(400):
        X = random_face_closed(rng)
        assert X.maximal_simplices == incidence_scan_maximal(X)
        assert Complex(X.simplices).maximal_simplices == X.maximal_simplices
        assert X.dim == max(len(s) - 1 for s in X.simplices)
        for k in range(-1, 5):
            assert X.by_dim(k) == tuple(sorted(s for s in X.simplices if len(s) == k + 1))
        impure += len({len(s) for s in X.maximal_simplices}) > 1
        disconnected += not X.is_connected()
    assert impure > 50 and disconnected > 50
    assert EMPTY_COMPLEX.dim == -1 and EMPTY_COMPLEX.maximal_simplices == ()


def close_under_faces(simplices):
    """The former face closure, one layer of ``facets`` at a time: the
    oracle of ``complex_from_maximal``."""
    out = set()
    level = set(simplices)
    while level:
        out |= level
        level = {f for s in level for f in facets(s)} - out
    return out


def sorted_buckets(simplices):
    """Each dimension mapped to the sorted tuple of its simplices."""
    table = {}
    for s in simplices:
        table.setdefault(len(s) - 1, []).append(s)
    return {k: tuple(sorted(ss)) for k, ss in table.items()}


def test_complex_from_maximal_matches_the_layered_closure_oracle():
    """The closure built one dimension at a time has the oracle's simplices
    and sorted ``by_dim`` buckets: on the empty set, a lone vertex,
    duplicates, a given simplex that is a face of another, and random
    given sets of mixed dimension, passed as one-shot iterators."""
    a, ab, bc, abc = simplex("a"), simplex("a", "b"), simplex("b", "c"), simplex("a", "b", "c")
    cases = [[], [a], [ab, ab, bc], [abc, ab, a], [a, abc]]
    rng = random.Random(20261028)
    for _ in range(300):
        pool = ["v%d" % i for i in range(rng.randint(1, 9))]
        given = [simplex(*rng.sample(pool, rng.randint(1, min(5, len(pool)))))
                 for _ in range(rng.randint(1, 10))]
        given += rng.sample(given, rng.randint(0, len(given)))
        given += [s[:rng.randint(1, len(s))] for s in rng.choices(given, k=2)]
        rng.shuffle(given)
        cases.append(given)
    mixed = 0
    for given in cases:
        X = complex_from_maximal(iter(given))
        closure = close_under_faces(given)
        assert X.simplices == closure
        buckets = sorted_buckets(closure)
        assert X.dim == max(buckets, default=-1)
        assert {k: X.by_dim(k) for k in range(X.dim + 1)} == buckets
        assert Complex(closure) == X
        mixed += len({len(s) for s in X.maximal_simplices}) > 1
    assert mixed > 50


# -- the incidence index -------------------------------------------------------


def tuple_facet_tables(X):
    """The former tuple-keyed tables: each (d-1)-simplex mapped to the
    d-simplices containing it, and the positions of the vertex outside it
    in each of them."""
    d = X.dim
    table = {f: [] for f in X.by_dim(d - 1)}
    for s in X.by_dim(d) if d >= 1 else ():
        for i in range(len(s)):
            table[s[:i] + s[i + 1:]] += (s, i)
    return ({f: tuple(e[::2]) for f, e in table.items()},
            tuple(tuple(e[1::2]) for e in table.values()))


def assert_index_matches_tuple_definitions(X):
    ix = X.incidence()
    cells = ix.cells
    assert cells == tuple(s for k in range(X.dim + 1) for s in X.by_dim(k))
    assert ix.offsets == tuple(itertools.accumulate(
        (len(X.by_dim(k)) for k in range(X.dim + 1)), initial=0))
    covers = {s: [t for t in X.simplices if len(t) == len(s) + 1 and set(s) < set(t)]
              for s in cells}
    for x, s in enumerate(cells):
        row = [cells[f] for f in ix.down(x)]
        assert row == (list(itertools.combinations(s, len(s) - 1)) if len(s) > 1 else [])
        up = list(ix.up(x))
        assert up == sorted(up) and [cells[t] for t in up] == sorted(covers[s]), s
        assert ix.degree(x) == len(covers[s])
        for t, p in zip(up, ix.opposites(x)):
            assert cells[t][:p] + cells[t][p + 1:] == s
    if X.dim >= 1:
        pure = all(len(s) == X.dim + 1 for s in X.maximal_simplices)
        assert check_pseudomanifold(X).is_pure == pure
    cofaces, opposites = tuple_facet_tables(X)
    assert list(X.facet_cofaces().items()) == list(cofaces.items())
    assert X.facet_opposites() == opposites
    assert X.euler_characteristic() == sum((-1) ** (len(s) - 1) for s in X.simplices)


def test_incidence_index_matches_tuple_definitions():
    """Facet rows in ``combinations`` order, covers ascending by id, purity,
    and the label views, against their tuple definitions on the empty
    complex, a vertex and seeded random complexes of dimension 0-3."""
    rng = random.Random(20261020)
    complexes = [EMPTY_COMPLEX, Complex([simplex("a")])]
    complexes += [random_face_closed(rng) for _ in range(300)]
    for X in complexes:
        assert_index_matches_tuple_definitions(X)
    assert {X.dim for X in complexes} == {-1, 0, 1, 2, 3}
    assert sum(X.dim >= 1 and not check_pseudomanifold(X).is_pure for X in complexes) > 50
    assert sum(not X.is_connected() for X in complexes) > 50
