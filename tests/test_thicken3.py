import functools
import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from plthick.complex_core import (
    EMPTY_COMPLEX,
    Complex,
    complex_from_maximal,
    cone_off,
    faces,
    facets,
    join,
    link_of,
    simplex,
    simplicial_neighborhood,
    validate_complex,
)
from plthick import cli
from plthick.errors import ConstructionError, ValidationError
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.homology import boundary_matrices, homology_groups
from plthick.pseudomanifold import (
    _boundary,
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
)
from plthick.thicken3 import (
    PartialThickening,
    _fan,
    build_spine_thickening,
    cone_boundary_neighborhoods,
    extract_sheet_data,
    homology_by_collapse,
    spine_collar,
    thicken,
)
from conftest import grid_torus
from general_position import (
    GeneralPositionError,
    sample_general_position_map,
    vadd,
    vcross,
    vdot,
    vscale,
    vsub,
)
from test_complex_core import carrier_violations
from test_homology import boundary_squared


# -- sheet data ---------------------------------------------------------------

def collar_link(collar, u):
    """The link of the spine vertex u in the collar."""
    return link_of(collar.N, (u,))


def test_sheet_data_single_triangle():
    X = fixture("single_triangle")
    sd = extract_sheet_data(X)
    for e, pages in sd.pages_ccw.items():
        assert len(pages) == 1
    # each edge-barycenter link graph is an arc (one page)
    collar = spine_collar(X)
    for e in X.by_dim(1):
        link = collar_link(collar, "(%s|%s)" % e)
        assert len(link.vertices) == 5 and len(link.by_dim(1)) == 4


def test_sheet_data_sphere_counts_match_incidence():
    X = fixture("boundary_delta3")
    sd = extract_sheet_data(X)
    for e in X.by_dim(1):
        incident = [t for t in X.by_dim(2) if set(e) <= set(t)]
        assert sorted(sd.pages_ccw[e]) == sorted(incident)
        assert len(sd.pages_ccw[e]) == 2


def test_sheet_data_shared_edge_has_two_pages_in_cyclic_order():
    X = fixture("two_triangles_shared_edge")
    sd = extract_sheet_data(X)
    e = simplex("a", "b")
    assert len(sd.pages_ccw[e]) == 2
    # the edge-barycenter sees a circle (two pages -> two meridians)
    link = collar_link(spine_collar(X), "(a|b)")
    assert all(len(link.adjacency()[v]) == 2 for v in link.vertices)


def test_sheet_data_side_sign_is_the_parity_of_the_page():
    """plus_side_ccw[(e, t)] holds exactly when (e[0], e[1], u), u the
    vertex of t outside e, is an even permutation of t."""
    X = fixture("book_of_three")
    sd = extract_sheet_data(X)
    e = simplex("a", "b")
    assert sd.pages_ccw[e] == X.facet_cofaces()[e] and len(sd.pages_ccw[e]) == 3
    assert all(sd.plus_side_ccw[(e, t)] for t in sd.pages_ccw[e])
    # (a, c) in (a, b, c): the outside vertex b sits in the middle, odd.
    assert sd.plus_side_ccw[(simplex("a", "c"), simplex("a", "b", "c"))] is False
    assert sd.plus_side_ccw[(simplex("b", "c"), simplex("a", "b", "c"))] is True


# -- the embedded rotation, the oracle of the combinatorial one ----------------------

def _det3(a, b, c):
    return vdot(a, vcross(b, c))


def _plane_normal(f, t):
    x, y, z = t
    return vcross(vsub(f[y], f[x]), vsub(f[z], f[x]))


def _circular_sort(axis, pages, rvecs):
    """Exact counterclockwise order of page directions around the axis,
    starting at the first page."""
    ref = rvecs[pages[0]]

    def half(r):
        d = _det3(axis, ref, r)
        if d > 0:
            return 0
        if d < 0:
            return 1
        return 0 if vdot(ref, r) > 0 else 1

    def cmp(t1, t2):
        r1, r2 = rvecs[t1], rvecs[t2]
        h1, h2 = half(r1), half(r2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        d = _det3(axis, r1, r2)
        if d == 0:
            raise GeneralPositionError("two pages at the same angle around an edge")
        return -1 if d > 0 else 1

    return sorted(pages, key=functools.cmp_to_key(cmp))


def embedded_sheet_data(m):
    """Page order and side signs read off the image of a map m into R^3.

    Around each edge e = (v, w), with axis f(w) - f(v), a page t points
    along the part of centroid(f(t)) - f(v) orthogonal to the axis; the
    pages are sorted by exact angle from the first page of
    ``facet_cofaces``, and t's plus side faces the next page when
    det(axis, direction, normal of t) > 0.
    """
    X, f = m.domain, m.points
    pages_ccw, plus_side_ccw = {}, {}
    for e, pages in X.facet_cofaces().items():
        v, w = e
        axis = vsub(f[w], f[v])
        rvecs = {}
        for t in pages:
            centroid = vscale(Fraction(1, 3), functools.reduce(vadd, (f[x] for x in t)))
            rel = vsub(centroid, f[v])
            rvecs[t] = vsub(vscale(vdot(axis, axis), rel), vscale(vdot(rel, axis), axis))
            assert any(rvecs[t]), (e, t)
        pages_ccw[e] = tuple(_circular_sort(axis, pages, rvecs))
        for t in pages:
            sign = _det3(axis, rvecs[t], _plane_normal(f, t))
            assert sign != 0, (e, t)
            plus_side_ccw[(e, t)] = sign > 0
    return pages_ccw, plus_side_ccw


ORACLE_SEEDS = (0, 3, 7, 101)


def test_rotation_system_matches_the_embedded_rotation():
    """On the six thickening fixtures, whose edges lie in at most two
    triangles, the page order and side signs of a sampled general-position
    map equal the combinatorial ones at every seed: 99 (edge, page) pairs
    per seed."""
    pairs = 0
    for name in THICKENING_FIXTURES:
        X = fixture(name)
        sd = extract_sheet_data(X)
        for seed in ORACLE_SEEDS:
            pages, sides = embedded_sheet_data(sample_general_position_map(X, 3, seed=seed))
            assert pages == sd.pages_ccw, (name, seed)
            assert sides == sd.plus_side_ccw, (name, seed)
            pairs += len(sides)
    assert pairs == 396


def test_rotation_oracle_sees_each_flipped_side_sign():
    X = fixture("torus_7")
    sd = extract_sheet_data(X)
    _, sides = embedded_sheet_data(sample_general_position_map(X, 3, seed=0))
    assert sides == sd.plus_side_ccw
    for key, plus in sd.plus_side_ccw.items():
        flipped = dict(sd.plus_side_ccw)
        flipped[key] = not plus
        assert sides != flipped, key


# -- full runs (cached across the suite) ------------------------------------------

def test_single_triangle_gives_a_ball(pipeline_cache):
    out, rep = pipeline_cache("single_triangle")
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.gallery_components == 1
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == [] and list(law.values()) == [(2, 0)]
    assert all(cls.kind in ("Sphere", "Disc")
               for cls in rep.pseudomanifold.vertex_links.values())


def test_sphere_gives_genus_three_handlebody(pipeline_cache):
    out, rep = pipeline_cache("boundary_delta3")
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == [] and list(law.values()) == [(-4, 3)]
    assert rep.spine_b1 == 3
    assert rep.homology_P.betti == (1, 0, 1, 0)
    annuli = [cls for cls in rep.pseudomanifold.vertex_links.values()
              if cls.kind == "SurfaceWithBoundary"]
    assert len(annuli) == 4
    assert all(cls.genus == 0 and cls.boundary_components == 2 for cls in annuli)


def test_shared_edge_ball(pipeline_cache):
    out, rep = pipeline_cache("two_triangles_shared_edge")
    assert rep.homology_P.betti == (1, 0, 0, 0)
    # The frontier has four arcs, one per input vertex.
    assert len(out.Lv) == 4
    for piece in out.Lv.values():
        assert classify_link(piece).kind == "Arc"


def test_shared_vertex_wedge(pipeline_cache):
    out, rep = pipeline_cache("two_triangles_shared_vertex")
    assert rep.gallery_components == 2
    assert rep.homology_P.betti == (1, 0, 0, 0)
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == [] and list(law.values()) == [(2, 0), (2, 0)]
    # The shared vertex owns a disconnected frontier piece and its cone
    # vertex link has two disc components.
    assert len(out.Lv["a"].connected_components()) == 2
    w = out.cone_vertices["a"]
    cls = rep.pseudomanifold.vertex_links[w]
    assert cls.kind == "Disc" and cls.components == 2


def test_projective_plane_torsion_survives(pipeline_cache):
    out, rep = pipeline_cache("projective_plane_6")
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.homology_P.torsion[1] == (2,)
    assert rep.orientation.success
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == [] and list(law.values()) == [(-10, 6)]


def test_torus_input(pipeline_cache):
    out, rep = pipeline_cache("torus_7")
    assert rep.homology_P.betti == (1, 2, 1, 0)
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == [] and list(law.values()) == [(-14, 8)]
    # All seven cone links are annuli (the links of the torus are circles).
    for v, w in out.cone_vertices.items():
        cls = rep.pseudomanifold.vertex_links[w]
        assert cls.kind == "SurfaceWithBoundary"
        assert cls.boundary_components == 2 and cls.genus == 0


# -- the solid is a handlebody ---------------------------------------------------------

def handlebody_oracle(M, names, spine):
    """The facts ``build_spine_thickening`` proves about the solid M,
    checked: the faults found, and per component of M the pair
    (χ of its boundary, b1 of its part of the spine), keyed by the least
    spine vertex in it.

    - The balls B_c, the closed stars of the spine vertices c, cover M
      and meet only as B_e ∩ B_t = u(e, t) * octagon(e, t) for e ⊂ t.
    - H_*(M) = H_*(spine).
    - Per component, the boundary is connected with χ = 2 - 2·b1.

    ``test_acceptance.py::test_c06_handlebody_law`` runs it on the six
    thickening fixtures under five labellings each.
    """
    faults = []
    centres = set(names.ve.values()) | set(names.vt.values())
    owners = {}
    for T in M.by_dim(3):
        cs = centres.intersection(T)
        if len(cs) != 1:
            faults.append(("centres", T))
        for f in faces(T) + [T]:
            owners.setdefault(f, set()).update(cs)
    if len(owners) != len(M):
        faults.append(("uncovered", len(M) - len(owners)))
    shared = {}
    for s, cs in owners.items():
        if len(cs) > 1:
            shared.setdefault(frozenset(cs), set()).add(s)
    expected = {}
    for t in names.X.by_dim(2):
        for e in itertools.combinations(t, 2):
            fan = complex_from_maximal(_fan(names.u_label(e, t), names.octagon(e, t)))
            expected[frozenset((names.ve[e], names.vt[t]))] = fan.simplices
    faults += [("meet", tuple(sorted(pair))) for pair in shared.keys() | expected.keys()
               if shared.get(pair) != expected.get(pair)]

    H = homology_groups(M)
    if not H.agrees_with(homology_groups(spine)):
        faults.append(("homology", H))

    boundary = complex_from_maximal(
        f for f, tops in M.facet_cofaces().items() if len(tops) == 1)
    parts = spine.connected_components()
    law = {}
    for comp in M.connected_components():
        inside = [g for g in parts if g <= comp]
        if len(inside) != 1:
            faults.append(("spine parts", min(comp), len(inside)))
            continue
        g = inside[0]
        b1 = len([e for e in spine.by_dim(1) if g.issuperset(e)]) - len(g) + 1
        surface = Complex(s for s in boundary.simplices if s[0] in comp)
        chi = surface.euler_characteristic()
        law[min(g)] = (chi, b1)
        if not surface.is_connected() or chi != 2 - 2 * b1:
            faults.append(("boundary", min(g), chi, b1))
    if len(law) != len(parts):
        faults.append(("components", len(law), len(parts)))
    return faults, law


def test_odd_torsion_survives_the_thickening(moore_thickening, moore6_thickening):
    """The Moore spaces M(Z/3, 1) and M(Z/6, 1), whose circle edges lie in
    q triangles each: H_1(P) = Z/q from the collapse onto X_copy, and the
    solid is a handlebody of genus 2·9q - (12q + 3) + 1 = 6q - 2."""
    for q, (out, rep) in ((3, moore_thickening), (6, moore6_thickening)):
        assert rep.homology_P.betti == (1, 0, 0, 0)
        assert rep.homology_P.torsion[1] == (q,)
        assert rep.orientation.success and rep.pseudomanifold.isolated_singularities
        assert rep.certificate.reaches_copy
        faults, law = handlebody_oracle(out.M, out.names, out.spine)
        assert faults == [] and list(law.values()) == [(2 - 2 * (6 * q - 2), 6 * q - 2)], q


def test_handlebody_oracle_sees_two_edge_balls_glued_along_a_triangle(pipeline_cache):
    """Identifying a boundary triangle of one edge ball with one of another
    makes the two balls meet and gives M a handle the spine lacks."""
    out, _ = pipeline_cache("single_triangle")
    names = out.names
    e1, e2 = names.X.by_dim(1)[:2]

    def lune_triangle(e):
        ve = names.ve[e]
        return ("lam:%s:0" % ve, "r:%s:0:0" % ve, "r:%s:0:1" % ve)

    glue = dict(zip(lune_triangle(e2), lune_triangle(e1)))
    M = complex_from_maximal(tuple(sorted(glue.get(x, x) for x in T)) for T in out.M.by_dim(3))
    assert lune_triangle(e1) in M and len(M.vertices) == len(out.M.vertices) - 3
    faults, _ = handlebody_oracle(M, names, out.spine)
    assert ("meet", tuple(sorted((names.ve[e1], names.ve[e2])))) in faults
    assert "homology" in {f[0] for f in faults}


def test_stuck_collapse_computes_homology_of_the_remainder(pipeline_cache):
    """A hollow tetrahedron wedged onto X_copy at one vertex has no free
    face, so the collapse stops short of X_copy and H_*(P) comes from the
    remainder; Smith normal form of the whole P is the oracle."""
    out, _ = pipeline_cache("single_triangle")
    v = out.X_copy.vertices[0]
    sphere = [simplex(*s) for s in ([v, "h1", "h2"], [v, "h1", "h3"],
                                    [v, "h2", "h3"], ["h1", "h2", "h3"])]
    P = Complex(out.P.simplices | complex_from_maximal(sphere).simplices)
    H, certificate = homology_by_collapse(P, out.X_copy, homology_groups(out.X_copy))
    assert not certificate.reaches_copy
    assert H == homology_groups(P)
    assert H.betti == (1, 0, 1, 0)


def test_retract_copy_is_expected_subdivision(pipeline_cache):
    """X_copy is built once, from sd(Y rel K); the union L ∪ w_v * L_v
    assembled from the collar copy and the cones is the oracle."""
    for name in THICKENING_FIXTURES:
        out, _ = pipeline_cache(name)
        assembled = set(out.L.simplices)
        for v, w in out.cone_vertices.items():
            assembled.add((w,))
            assembled.update(join(s, (w,)) for s in out.Lv[v].simplices)
        assert Complex(assembled) == out.X_copy, name
        assert out.X_copy.is_subcomplex_of(out.P)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_construction_facts_hold_on_every_run(pipeline_cache, name):
    """The oracles of the facts the construction proves instead of checking:
    monotone carriers of the spine and collar subdivisions, and ∂∂ = 0 on
    the chains of X_copy and of P, absolute and relative to ∂P."""
    out, rep = pipeline_cache(name)
    assert carrier_violations(out.collar.B) == []
    assert carrier_violations(out.collar.nbhd_sub) == []
    for X, rel in ((out.X_copy, None), (out.P, None), (out.P, rep.pseudomanifold.boundary)):
        assert boundary_squared(boundary_matrices(X, rel=rel)) == [], name


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_outputs_pass_the_checked_constructor(pipeline_cache, name):
    """Complexes built by face closure, and P built as the union of M and
    the cones, skip the closure check; rebuilding each output through the
    checked constructor must succeed unchanged."""
    out, rep = pipeline_cache(name)
    built = [out.P, out.M, out.X_copy, out.L, out.boundary_surface,
             rep.pseudomanifold.boundary, *out.Nv.values()]
    for X in built:
        assert Complex(X.simplices) == X


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_p_by_dim_is_the_sorted_buckets(pipeline_cache, name):
    """P's table, M's sorted layers plus the cones, is the sorted buckets of
    its simplices, dimension by dimension."""
    out, _ = pipeline_cache(name)
    P = out.P
    assert P.dim == 3
    for k in range(-1, 5):
        assert P.by_dim(k) == tuple(sorted(s for s in P.simplices if len(s) == k + 1))


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_cone_vertex_link_is_its_neighborhood(pipeline_cache, name):
    """lk_P(w) = N_v for the cone vertex w of v, so N_v's own class is w's
    class in P's derived report."""
    out, _ = pipeline_cache(name)
    assert out.cone_vertices
    for v, w in out.cone_vertices.items():
        assert link_of(out.P, (w,)) == out.Nv[v]


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_neighborhoods_match_simplicial_neighborhoods(pipeline_cache, name):
    """Each N_v, closed from the stars of L_v's vertices on the index of
    ∂M, is the simplicial neighbourhood of L_v in ∂M, layer for layer."""
    out, _ = pipeline_cache(name)
    for v, piece in out.Lv.items():
        oracle = simplicial_neighborhood(out.boundary_surface, piece)[0]
        assert all(out.Nv[v].by_dim(k) == oracle.by_dim(k) for k in range(3)), (name, v)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_boundary_of_p_is_the_closure_of_the_free_triangles(pipeline_cache, name):
    """∂P, read off P's facet degrees, is the closure of the free triangles
    of ``cone_boundary_neighborhoods``'s docstring: the triangles of ∂M
    outside every N_v and the cones over the rim edges of the N_v."""
    out, rep = pipeline_cache(name)
    free = set(out.boundary_surface.by_dim(2))
    for v, N in out.Nv.items():
        free.difference_update(N.by_dim(2))
        free.update(join(e, (out.cone_vertices[v],))
                    for e, tops in N.facet_cofaces().items() if len(tops) == 1)
    oracle = complex_from_maximal(free)
    assert all(rep.pseudomanifold.boundary.by_dim(k) == oracle.by_dim(k) for k in range(3))


def test_a_frontier_piece_that_is_not_full_is_a_construction_error():
    """An edge of L_v taken out of it is still spanned by its vertices; the
    fullness check on N_v names v."""
    X = fixture("single_triangle")
    partial = build_spine_thickening(extract_sheet_data(X), spine_collar(X))
    piece = partial.Lv["a"]
    edge = piece.by_dim(1)[0]
    thinned = Complex(s for s in piece.simplices if s != edge)
    with pytest.raises(ConstructionError, match=r"piece of a is not full .*%s" % re.escape(
            str(edge))):
        cone_boundary_neighborhoods(replace(partial, Lv={**partial.Lv, "a": thinned}))


REPORT_FIELDS = ("dim", "vertex_links", "boundary", "is_pure", "facet_degrees_ok",
                 "facet_witness", "positive_links_ok", "isolated_singularities",
                 "gallery_connected", "gallery_components")


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_derived_report_matches_the_full_pass_on_p(pipeline_cache, name):
    """``cone_boundary_neighborhoods`` derives P's report from M's; the full
    pseudomanifold and link pass on P is the oracle, field by field."""
    out, rep = pipeline_cache(name)
    assert rep.pseudomanifold is out.report
    full = check_isolated_singularities(out.P, check_pseudomanifold(out.P))
    for f in REPORT_FIELDS:
        assert getattr(out.report, f) == getattr(full, f), (name, f)


# -- M's report by construction, the full pass as its oracle --------------------------

def assert_solid_report_is_the_full_pass(partial):
    """The report ``build_spine_thickening`` proves equals the full pass on
    M, field by field, and its ∂M is ``_boundary(M)``, layer for layer."""
    M = partial.M
    full = check_isolated_singularities(M, check_pseudomanifold(M))
    for f in REPORT_FIELDS:
        assert getattr(partial.report, f) == getattr(full, f), f
    boundary = _boundary(M)
    assert all(partial.report.boundary.by_dim(k) == boundary.by_dim(k) for k in range(4))


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_solid_report_by_rule_matches_the_full_pass(pipeline_cache, name):
    out, _ = pipeline_cache(name)
    assert_solid_report_is_the_full_pass(build_spine_thickening(out.sheet_data, out.collar))


def test_solid_report_by_rule_matches_the_full_pass_beyond_the_fixtures(moore_thickening,
                                                                       moore6_thickening):
    """The 3×3 grid torus, the book of three and the Moore spaces M(Z/3, 1)
    and M(Z/6, 1), whose circle edges lie in 3 and 6 pages."""
    for out, _ in (moore_thickening, moore6_thickening):
        assert_solid_report_is_the_full_pass(build_spine_thickening(out.sheet_data, out.collar))
    for X in (grid_torus(3), fixture("book_of_three")):
        assert_solid_report_is_the_full_pass(
            build_spine_thickening(extract_sheet_data(X), spine_collar(X)))


def random_pure_2_complexes(rng, count):
    """``count`` connected pure 2-complexes, each 2 to 8 random triangles
    on 4 to 6 vertices."""
    out = []
    while len(out) < count:
        labels = ["v%d" % i for i in range(rng.randint(4, 6))]
        X = validate_complex([rng.sample(labels, 3) for _ in range(rng.randint(2, 8))])
        if X.is_connected():
            out.append(X)
    return out


def test_solid_report_by_rule_matches_the_full_pass_on_a_random_corpus():
    """A seeded corpus of small connected pure 2-complexes, many with an
    edge in three or more triangles and some with a vertex whose link is
    disconnected."""
    corpus = random_pure_2_complexes(random.Random(3131), 25)
    books = pinched = 0
    for X in corpus:
        sd = extract_sheet_data(X)
        books += any(len(pages) > 2 for pages in sd.pages_ccw.values())
        pinched += any(len(link_of(X, (v,)).connected_components()) > 1 for v in X.vertices)
        assert_solid_report_is_the_full_pass(build_spine_thickening(sd, spine_collar(X)))
    assert books >= 5 and pinched >= 5


def test_thicken_builds_no_index_on_the_solid():
    """M's report is proved, not computed, so a fresh ``thicken`` leaves M
    without an incidence index."""
    for name in ("single_triangle", "book_of_three"):
        out, _ = thicken(fixture(name))
        assert out.M._incidence is None, name


def test_clashing_generated_labels_rejected():
    """Input labels holding ":" can make two (edge, page) pairs spell one
    page label "w:ve:vt", and with it the same n and h labels; the input
    is rejected, naming the label and both pairs."""
    X = validate_complex([["a", "b", "c):(a|b):(a|b|c|d"], ["a", "b):(a|b|c", "d"]])
    with pytest.raises(ValidationError) as info:
        thicken(X)
    message = str(info.value)
    label = "w:(a|b):(a|b|c):(a|b):(a|b|c|d)"
    pairs = [(("a", "b"), ("a", "b", "c):(a|b):(a|b|c|d")),
             (("a", "b):(a|b|c"), ("a", "b):(a|b|c", "d"))]
    assert all(repr(x) in message for x in [label] + pairs), message


def test_labels_with_colons_that_do_not_clash_thicken():
    """Labels holding ":" are accepted when the page labels stay distinct:
    the two pages on the edge (a:1, b) keep one waist label each."""
    out, rep = thicken(validate_complex([["a:1", "b", "c:(x)"], ["a:1", "b", "d"]]))
    assert rep.homology_P.betti == (1, 0, 0, 0) and rep.certificate.reaches_copy
    waists = {"w:(a:1|b):(a:1|b|c:(x))", "w:(a:1|b):(a:1|b|d)"}
    assert waists <= set(out.M.vertices)


def test_frontier_pieces_match_second_derived_links(pipeline_cache):
    out, _ = pipeline_cache("boundary_delta3")
    X = fixture("boundary_delta3")
    for v in X.vertices:
        piece = out.Lv[v]
        # Twice subdivided triangle boundary: a 12-cycle.
        assert len(piece.vertices) == 12
        assert all(len(piece.adjacency()[x]) == 2 for x in piece.vertices)


def piece_distance(adj, sources, targets):
    """Least number of edges from a vertex of ``sources`` to one of
    ``targets`` in the graph ``adj``; None when no path joins them."""
    layer, seen, d = set(sources), set(sources), 0
    while layer:
        if layer & targets:
            return d
        layer = {y for x in layer for y in adj[x]} - seen
        seen |= layer
        d += 1
    return None


def test_neighborhoods_pairwise_disjoint(pipeline_cache):
    """The argument of ``cone_boundary_neighborhoods``, checked on every
    thickening fixture: in the boundary surface the least distance between
    frontier pieces (on one component) is three edges when some edge has a
    single page and four otherwise, so their closed stars N_v are
    vertex-disjoint."""
    for name in THICKENING_FIXTURES:
        out, _ = pipeline_cache(name)
        adj = out.boundary_surface.adjacency()
        pieces = {v: set(L.vertices) for v, L in out.Lv.items()}
        single_page = any(len(p) == 1 for p in out.sheet_data.pages_ccw.values())
        gaps = [piece_distance(adj, a, b)
                for a, b in itertools.combinations(pieces.values(), 2)]
        gap = min(g for g in gaps if g is not None)
        assert gap == (3 if single_page else 4), name
        stars = {v: ps.union(*(adj[x] for x in ps)) for v, ps in pieces.items()}
        assert {v: set(N.vertices) for v, N in out.Nv.items()} == stars
        assert sum(map(len, stars.values())) == len(set().union(*stars.values()))


def test_frontier_pieces_stay_off_the_rim_inside_disc_links(pipeline_cache):
    """The two facts ``cone_boundary_neighborhoods`` proves rather than
    checks, on every thickening fixture: no rim edge of N_v touches its
    frontier piece L_v, and every vertex of N_v, a vertex of the boundary of
    M, has a disc link in M."""
    for name in THICKENING_FIXTURES:
        out, _ = pipeline_cache(name)
        links = check_isolated_singularities(out.M).vertex_links
        for v, N in out.Nv.items():
            rim = [e for e, tops in N.facet_cofaces().items() if len(tops) == 1]
            assert rim and not {x for e in rim for x in e} & set(out.Lv[v].vertices)
            assert {links[x].kind for x in N.vertices} == {"Disc"}, (name, v)


def solid_cone_partial(sphere, Lv):
    """The ball M = o * sphere, with the given frontier pieces on its
    boundary sphere and no collar."""
    M = cone_off(sphere, sphere, "o")
    return PartialThickening(
        M=M, report=check_isolated_singularities(M), L=EMPTY_COMPLEX, Lv=Lv,
        spine=None, collar=None, sheet_data=None, names=None)


def test_overlapping_neighborhoods_are_a_construction_error():
    """Pieces one edge apart give closed stars that share a vertex."""
    sphere = validate_complex([
        [a, b, c] for a in ("x+", "x-") for b in ("y+", "y-") for c in ("z+", "z-")])
    partial = solid_cone_partial(sphere, {"p": Complex([simplex("x+")]),
                                          "q": Complex([simplex("y+")])})
    with pytest.raises(ConstructionError,
                       match=r"neighborhoods of p and q share vertex (x\+|y\+|z[+-])$"):
        cone_boundary_neighborhoods(partial)


def test_pinched_neighborhood_is_a_construction_error():
    """On the hexagonal bipyramid the closed star of the equator vertices h0
    and h3 is two discs that meet only at the poles, on its rim.  That N_v
    is no surface; without its own classification the derived report would
    give each pole a disc link in P."""
    ring = ["h%d" % i for i in range(6)]
    sphere = validate_complex([[pole, ring[i], ring[(i + 1) % 6]]
                               for pole in ("n", "s") for i in range(6)])
    partial = solid_cone_partial(sphere, {"p": Complex([simplex("h0"), simplex("h3")])})
    with pytest.raises(ConstructionError,
                       match=r"^boundary neighborhood of p is NotManifold"):
        cone_boundary_neighborhoods(partial)


def test_interior_facets_have_degree_two(pipeline_cache):
    out, _ = pipeline_cache("single_triangle")
    P = out.P
    report = check_pseudomanifold(P)
    counts = {}
    for t in P.by_dim(3):
        for f in facets(t):
            counts[f] = counts.get(f, 0) + 1
    for f, c in counts.items():
        assert c == (1 if f in report.boundary else 2)


def test_provenance_tags(monkeypatch, pipeline_cache):
    """``provenance.json`` gives the simplices of M the origin "M" and those
    of the cone w_v * N_v the origin w_v, simplex for simplex of P."""
    run = pipeline_cache("single_triangle")
    out = run[0]
    monkeypatch.setattr(cli, "thicken", lambda X: run)
    artifacts = cli.run_pipeline(cli.PipelineConfig(local_only=True), fixture("single_triangle"))
    written = {tuple(e["simplex"]): e["origin"]
               for e in json.loads(artifacts["provenance.json"])["simplices"]}
    oracle = dict.fromkeys(out.M.simplices, "M")
    for v, w in out.cone_vertices.items():
        oracle[(w,)] = w
        oracle.update(dict.fromkeys((join(s, (w,)) for s in out.Nv[v].simplices), w))
    assert written == oracle


# -- rejections -------------------------------------------------------------------

def test_one_dimensional_input_rejected():
    with pytest.raises(ValidationError, match="d >= 2 required"):
        thicken(fixture("single_edge"))


def test_impure_input_rejected():
    X = validate_complex([["a", "b", "c"], ["c", "d"]])
    with pytest.raises(ValidationError, match="pure"):
        thicken(X)


def test_disconnected_input_rejected():
    X = validate_complex([["a", "b", "c"], ["x", "y", "z"]])
    with pytest.raises(ValidationError, match="connected"):
        thicken(X)


def test_colliding_barycenter_labels_rejected():
    # Both a|b,c and a,b,c would get the barycenter label (a|b|c).
    X = validate_complex([["a|b", "c", "x"], ["a", "b", "c"]])
    with pytest.raises(ValidationError, match=r"\(a\|b\|c\)"):
        thicken(X)


def test_three_dimensional_input_rejected():
    with pytest.raises(ValidationError, match="dimension 2"):
        thicken(fixture("boundary_delta4"))


# -- book of three (not a pseudomanifold, still thickens) ---------------------------

def test_book_of_three_thickens():
    """The binding edge lies in three pages, taken in the order of
    ``facet_cofaces``; P is still an orientable pseudomanifold with isolated
    singularities that collapses onto X_copy."""
    out, rep = thicken(fixture("book_of_three"))
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.gallery_components == 1
    assert out.sheet_data.pages_ccw[simplex("a", "b")] == (
        ("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e"))
    assert rep.orientation.success
    assert rep.pseudomanifold.isolated_singularities
    assert rep.certificate.reaches_copy
