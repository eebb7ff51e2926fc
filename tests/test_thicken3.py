import pytest

from plthick.complex_core import Complex, Simplex, link_of, simplex, validate_complex
from plthick.errors import ValidationError
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.geometry import (
    choose_spine_barycenters,
    epsilon_neighborhood_embedding,
    sample_general_position_map,
)
from plthick.homology import homology_groups
from plthick.pseudomanifold import check_pseudomanifold, classify_link
from plthick.thicken3 import (
    expected_retract_copy,
    extract_sheet_data,
    thicken,
)


def embedded(name, seed=0):
    X = fixture(name)
    m = sample_general_position_map(X, 3, seed=seed)
    return epsilon_neighborhood_embedding(choose_spine_barycenters(m, seed=seed))


# -- sheet data ---------------------------------------------------------------

def test_sheet_data_single_triangle():
    se = embedded("single_triangle")
    sd = extract_sheet_data(se)
    for e, pages in sd.pages_ccw.items():
        assert len(pages) == 1
    # each edge-barycenter link graph is an arc (one page)
    for e in se.base.domain.by_dim(1):
        link = sd.vertex_links["(%s|%s)" % e.vertices]
        assert len(link.vertices) == 5 and len(link.by_dim(1)) == 4


def test_sheet_data_sphere_counts_match_incidence():
    se = embedded("boundary_delta3")
    sd = extract_sheet_data(se)
    X = se.base.domain
    for e in X.by_dim(1):
        incident = [t for t in X.by_dim(2) if set(e.vertices) <= set(t.vertices)]
        assert sorted(sd.pages_ccw[e]) == sorted(incident)
        assert len(sd.pages_ccw[e]) == 2


def test_sheet_data_shared_edge_has_two_pages_in_cyclic_order():
    se = embedded("two_triangles_shared_edge")
    sd = extract_sheet_data(se)
    e = simplex("a", "b")
    assert len(sd.pages_ccw[e]) == 2
    # the edge-barycenter sees a circle (two pages -> two meridians)
    link = sd.vertex_links["(a|b)"]
    assert all(len(link.adjacency()[v]) == 2 for v in link.vertices)


# -- full runs (cached across the suite) ------------------------------------------

def test_single_triangle_gives_a_ball(pipeline_cache):
    out, rep = pipeline_cache("single_triangle", 0)
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.gallery_components == 1
    assert out.chi_by_component == {min(out.spine.vertices): (2, 0)}
    assert all(cls.kind in ("Sphere", "Disc")
               for cls in rep.pseudomanifold.vertex_links.values())


def test_sphere_gives_genus_three_handlebody(pipeline_cache):
    out, rep = pipeline_cache("boundary_delta3", 0)
    (chi, b1), = out.chi_by_component.values()
    assert (chi, b1) == (-4, 3)
    assert rep.collapse_b1 == 3
    assert rep.homology_P.betti == (1, 0, 1, 0)
    annuli = [cls for cls in rep.pseudomanifold.vertex_links.values()
              if cls.kind == "SurfaceWithBoundary"]
    assert len(annuli) == 4
    assert all(cls.genus == 0 and cls.boundary_components == 2 for cls in annuli)


def test_shared_edge_ball(pipeline_cache):
    out, rep = pipeline_cache("two_triangles_shared_edge", 0)
    assert rep.homology_P.betti == (1, 0, 0, 0)
    # The frontier has four arcs, one per input vertex.
    assert len(out.Lv) == 4
    for piece in out.Lv.values():
        assert classify_link(piece).kind == "Arc"


def test_shared_vertex_wedge(pipeline_cache):
    out, rep = pipeline_cache("two_triangles_shared_vertex", 0)
    assert rep.gallery_components == 2
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert len(out.chi_by_component) == 2
    assert all(v == (2, 0) for v in out.chi_by_component.values())
    # The shared vertex owns a disconnected frontier piece and its cone
    # vertex link has two disc components.
    assert len(out.Lv["a"].connected_components()) == 2
    w = out.cone_vertices["a"]
    cls = rep.pseudomanifold.vertex_links[w]
    assert cls.kind == "Disc" and cls.components == 2


def test_projective_plane_torsion_survives(pipeline_cache):
    out, rep = pipeline_cache("projective_plane_6", 0)
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.homology_P.torsion[1] == (2,)
    assert rep.orientation.success
    assert rep.collapse_b1 == 6


def test_torus_input(pipeline_cache):
    out, rep = pipeline_cache("torus_7", 0)
    assert rep.homology_P.betti == (1, 2, 1, 0)
    assert rep.collapse_b1 == 8
    # All seven cone links are annuli (the links of the torus are circles).
    for v, w in out.cone_vertices.items():
        cls = rep.pseudomanifold.vertex_links[w]
        assert cls.kind == "SurfaceWithBoundary"
        assert cls.boundary_components == 2 and cls.genus == 0


def test_retract_copy_is_expected_subdivision(pipeline_cache):
    out, _ = pipeline_cache("boundary_delta3", 0)
    assert out.X_copy == expected_retract_copy(out)
    assert out.X_copy.is_subcomplex_of(out.P)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_outputs_pass_the_checked_constructor(pipeline_cache, name):
    """Complexes built by face closure skip the closure check; rebuilding
    each output through the checked constructor must succeed unchanged."""
    out, rep = pipeline_cache(name, 0)
    built = [out.P, out.M, out.X_copy, out.L, out.boundary_surface,
             rep.pseudomanifold.boundary, *out.Nv.values()]
    for X in built:
        assert Complex(X.simplices) == X


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_cone_vertex_link_is_its_neighborhood(pipeline_cache, name):
    """lk_P(w) = N_v for the cone vertex w of v, so P's vertex-link report
    certifies that each N_v is a surface."""
    out, _ = pipeline_cache(name, 0)
    assert out.cone_vertices
    for v, w in out.cone_vertices.items():
        assert link_of(out.P, Simplex((w,))) == out.Nv[v]


def test_frontier_pieces_match_second_derived_links(pipeline_cache):
    out, _ = pipeline_cache("boundary_delta3", 0)
    X = fixture("boundary_delta3")
    for v in X.vertices:
        piece = out.Lv[v]
        # Twice subdivided triangle boundary: a 12-cycle.
        assert len(piece.vertices) == 12
        assert all(len(piece.adjacency()[x]) == 2 for x in piece.vertices)


def test_neighborhoods_pairwise_disjoint(pipeline_cache):
    out, _ = pipeline_cache("torus_7", 0)
    seen = {}
    for v, N in out.Nv.items():
        for lab in N.vertices:
            assert lab not in seen, "N_%s and N_%s share %s" % (seen.get(lab), v, lab)
            seen[lab] = v


def test_interior_facets_have_degree_two(pipeline_cache):
    out, _ = pipeline_cache("single_triangle", 0)
    P = out.P
    report = check_pseudomanifold(P)
    counts = {}
    for t in P.by_dim(3):
        for f in t.facets():
            counts[f] = counts.get(f, 0) + 1
    for f, c in counts.items():
        assert c == (1 if f in report.boundary else 2)


def test_provenance_tags(pipeline_cache):
    out, _ = pipeline_cache("single_triangle", 0)
    tags = set(out.provenance.values())
    assert "M" in tags
    assert any(isinstance(t, tuple) and t[0] == "cone" for t in tags)
    for s, origin in out.provenance.items():
        if any(x.startswith("cone:") for x in s.vertices):
            assert origin != "M"


# -- rejections -------------------------------------------------------------------

def test_one_dimensional_input_rejected():
    with pytest.raises(ValidationError, match="d >= 2 required"):
        thicken(fixture("single_edge"), seed=0)


def test_impure_input_rejected():
    X = validate_complex([["a", "b", "c"], ["c", "d"]])
    with pytest.raises(ValidationError, match="pure"):
        thicken(X, seed=0)


def test_disconnected_input_rejected():
    X = validate_complex([["a", "b", "c"], ["x", "y", "z"]])
    with pytest.raises(ValidationError, match="connected"):
        thicken(X, seed=0)


def test_colliding_barycenter_labels_rejected():
    # Both a|b,c and a,b,c would get the barycenter label (a|b|c).
    X = validate_complex([["a|b", "c", "x"], ["a", "b", "c"]])
    with pytest.raises(ValidationError, match=r"\(a\|b\|c\)"):
        thicken(X, 0)


def test_three_dimensional_input_rejected():
    with pytest.raises(ValidationError, match="dimension 2"):
        thicken(fixture("boundary_delta4"), seed=0)


# -- book of three (not a pseudomanifold, still thickens) ---------------------------

def test_book_of_three_thickens():
    out, rep = thicken(fixture("book_of_three"), seed=1)
    assert rep.homology_P.betti == (1, 0, 0, 0)
    assert rep.gallery_components == 1
    # The binding edge has three pages in some cyclic order.
    assert len(out.sheet_data.pages_ccw[simplex("a", "b")]) == 3
