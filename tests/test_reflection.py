from collections import Counter

import pytest

from plthick.complex_core import Complex, validate_complex
from plthick.errors import BudgetExceededError, ValidationError
from plthick.fixtures import fixture
from plthick.homology import homology_groups
from plthick.pseudomanifold import classify_link, link_of
from plthick.reflection import (
    MirrorStructure,
    basic_construction,
    boundary_mirror_structure,
    close_up,
    local_global_agreement,
    orbit_count_euler,
    verify_closed_locally,
)


# -- mirror structures ---------------------------------------------------------

def test_mirror_structure_of_triangle_disc():
    P = fixture("single_triangle")
    ms = boundary_mirror_structure(P)
    # The 3-cycle boundary is not flag, so the chamber gets subdivided:
    # six boundary vertices afterwards.
    assert len(ms.S) == 6
    for s in ms.S:
        assert len(ms.mirrors[s]) > 0


def test_mirror_structure_of_four_cycle_cone():
    P = fixture("four_cycle_cone")
    ms = boundary_mirror_structure(P)
    assert len(ms.S) == 4
    for s in ms.S:
        # star of a boundary vertex in the subdivided 4-cycle: two edges
        assert len(ms.mirrors[s].by_dim(1)) == 2


def test_closed_input_rejected():
    with pytest.raises(ValidationError):
        boundary_mirror_structure(fixture("boundary_delta3"))


# -- basic construction -----------------------------------------------------------

def test_interval_with_endpoint_mirrors_doubles_to_circle():
    Y = validate_complex([["a", "b"]])
    ms = MirrorStructure(
        Y=Y, S=("sa", "sb"),
        mirrors={"sa": validate_complex([["a"]]), "sb": validate_complex([["b"]])},
        Sof={"a": frozenset(["sa"]), "b": frozenset(["sb"])})
    cc = basic_construction(ms)
    assert len(cc.complex.by_dim(0)) == 4 and len(cc.complex.by_dim(1)) == 4
    assert all(len(cc.complex.adjacency()[v]) == 2 for v in cc.complex.vertices)


def test_empty_mirror_set_reproduces_chamber():
    Y = fixture("single_triangle")
    ms = MirrorStructure(Y=Y, S=(), mirrors={},
                         Sof={v: frozenset() for v in Y.vertices})
    cc = basic_construction(ms)
    assert cc.n_chambers == 1
    assert len(cc.complex.simplices) == len(Y.simplices)
    assert cc.identity_chamber() == cc.complex


def test_budget_error():
    P = fixture("four_cycle_cone")
    with pytest.raises(BudgetExceededError):
        close_up(P, budget=100)


# -- close up ----------------------------------------------------------------------

def test_four_cycle_cone_closes_to_torus():
    res = close_up(fixture("four_cycle_cone"), budget=200_000)
    Q = res.Q.complex
    assert Q.euler_characteristic() == 0 == orbit_count_euler(res.mirror_structure)
    assert res.homology.betti == (1, 2, 1)
    assert len(res.report.boundary) == 0
    assert res.orientation.success
    assert res.Q.n_chambers == 16


def test_octahedron_ball_closes_to_flat_three_manifold(octahedral_closure):
    res = octahedral_closure
    Q = res.Q.complex
    assert Q.euler_characteristic() == 0
    assert res.Q.n_chambers == 64
    assert len(res.report.boundary) == 0
    assert res.report.isolated_singularities
    assert res.orientation.success
    assert res.homology is res.orientation.homology


def test_closure_vertex_links_match_per_vertex_oracle(octahedral_closure):
    """The one-pass vertex-link classification of the closed-up Q agrees
    with classifying one link complex per vertex."""
    res = octahedral_closure
    Q = res.Q.complex
    assert res.report.vertex_links == {
        v.vertices[0]: classify_link(link_of(Q, v)) for v in Q.by_dim(0)}


def test_closure_passes_the_checked_constructor(octahedral_closure):
    """Q, its chamber and its boundary complexes are built by face closure
    without the closure check; the checked constructor accepts them."""
    res = octahedral_closure
    ms = res.mirror_structure
    for X in (res.Q.complex, res.Q.identity_chamber(), ms.Y, *ms.mirrors.values()):
        assert Complex(X.simplices) == X


def test_identity_chamber_embeds():
    res = close_up(fixture("four_cycle_cone"), budget=200_000)
    ident = res.Q.identity_chamber()
    assert ident.is_subcomplex_of(res.Q.complex)
    assert len(ident.simplices) == len(res.mirror_structure.Y.simplices)


# -- local verification ---------------------------------------------------------------

def _tag_counts(rep):
    return Counter((tag, cls.describe()) for tag, cls in rep.classes.values())


def test_local_classification_of_thickened_triangle(pipeline_cache):
    out, thick = pipeline_cache("single_triangle", 0)
    cones = out.cone_vertices.values()
    rep = verify_closed_locally(out.P, cone_vertices=cones,
                                report=thick.pseudomanifold)
    assert rep.all_closed_manifolds()
    # double of a disc is a sphere
    assert _tag_counts(rep) == {("interior", "Sphere genus=0 orientable=True"): 1479,
                                ("boundary", "Sphere genus=0 orientable=True"): 737,
                                ("cone", "Sphere genus=0 orientable=True"): 3}
    assert all(cls.components == 1 for _, cls in rep.classes.values())
    assert verify_closed_locally(out.P, cone_vertices=cones) == rep


def test_local_classification_of_thickened_sphere(pipeline_cache):
    out, thick = pipeline_cache("boundary_delta3", 0)
    cones = out.cone_vertices.values()
    rep = verify_closed_locally(out.P, cone_vertices=cones,
                                report=thick.pseudomanifold)
    assert rep.all_closed_manifolds()
    # double of an annulus is a torus
    assert _tag_counts(rep) == {
        ("interior", "Sphere genus=0 orientable=True"): 4938,
        ("boundary", "Sphere genus=0 orientable=True"): 2300,
        ("cone", "ClosedSurface genus=1 orientable=True"): 4}
    assert verify_closed_locally(out.P, cone_vertices=cones) == rep


def test_local_and_global_classifications_agree_on_octahedron_ball(octahedral_ball):
    result, mismatches = local_global_agreement(octahedral_ball, budget=2_000_000)
    assert mismatches == []


def test_local_verifier_requires_dimension_three():
    with pytest.raises(ValidationError):
        verify_closed_locally(fixture("four_cycle_cone"))


def test_local_verifier_requires_isolated_singularities():
    # Two tetrahedra sharing only an edge: that edge's link is two arcs.
    bowtie = validate_complex([["a", "b", "c", "d"], ["a", "b", "e", "f"]])
    with pytest.raises(ValidationError, match="isolated singularities"):
        verify_closed_locally(bowtie)
