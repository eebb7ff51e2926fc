"""Acceptance suite: one test per criterion, exact tolerances.

Criterion 1's "gallery connected" / "H3(P, boundary) = Z" clauses are
asserted per gallery component: the two-triangles-shared-vertex fixture has
a disconnected spine, so its output provably consists of two gallery
components joined at a cone vertex (rank-2 top relative homology).  For
every fixture with a connected spine the literal single-component form is
asserted as stated.  Criterion 6's handlebody law is likewise asserted per
solid component (same fixture, same reason).
"""

import itertools

import pytest

from plthick.complex_core import (
    cone_off,
    is_flag,
    is_full_subcomplex,
    simplex,
    spine_boundary_check,
    validate_complex,
)
from plthick.cli import PipelineConfig, run_pipeline
from plthick.errors import ValidationError
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.geometry import sample_general_position_map, singular_set
from plthick.homology import homology_groups
from plthick.pseudomanifold import check_pseudomanifold, orient
from plthick.reflection import (
    MirrorStructure,
    basic_construction,
    close_up,
    local_global_agreement,
    orbit_count_euler,
    verify_closed_locally,
)
from plthick.thicken3 import thicken
from test_thicken3 import handlebody_oracle

SEEDS = (0, 1, 2, 3, 4)

CONNECTED_SPINE_FIXTURES = tuple(
    n for n in THICKENING_FIXTURES if n != "two_triangles_shared_vertex")


def _passed(number, name):
    print("ACCEPTANCE %02d %s: PASS" % (number, name))


# -- criterion 1: the full thickening pipeline -----------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_c01_pipeline(pipeline_cache, cone_rule, name, seed):
    out, rep = pipeline_cache(name, seed)
    report = rep.pseudomanifold
    assert report.is_pure
    assert report.facet_degrees_ok
    assert report.isolated_singularities
    assert all(cls.is_manifold for cls in report.vertex_links.values())
    # Orientable via the cone rule, which orient enforces as the opposite
    # induced orientations at each cone simplex's base facet and which is
    # asserted here on its own, and via the top relative homology rank: one
    # Z per gallery component, read off the gallery forest and checked here
    # against Smith normal form.
    assert rep.orientation.success
    cones = set(out.cone_vertices.values())
    assert cone_rule(out.P, rep.orientation.assignment.signs, cones) > 0
    rank = homology_groups(out.P, rel=report.boundary).betti[3]
    assert rep.orientation.top_relative_rank == rank == rep.gallery_components
    if name in CONNECTED_SPINE_FIXTURES:
        assert report.gallery_connected
        assert rep.orientation.top_relative_rank == 1
    else:
        assert rep.gallery_components == 2  # two spine components, by design
    if (name, seed) == (THICKENING_FIXTURES[-1], SEEDS[-1]):
        _passed(1, "thickening pipeline (6 fixtures x 5 seeds)")


# -- criterion 2: retract evidence ------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_c02_retract_homology(pipeline_cache, name, seed):
    out, rep = pipeline_cache(name, seed)
    HX = homology_groups(fixture(name))
    # H_*(P) comes from the collapse P onto X_copy; Smith normal form of P
    # is the oracle.
    assert rep.certificate.reaches_copy
    assert homology_groups(out.P) == rep.homology_P
    assert rep.homology_P.agrees_with(HX)
    assert rep.homology_copy.agrees_with(HX)
    assert out.X_copy.is_subcomplex_of(out.P)
    if name == "projective_plane_6":
        assert rep.homology_P.torsion[1] == (2,)
    if (name, seed) == (THICKENING_FIXTURES[-1], SEEDS[-1]):
        _passed(2, "retract homology including torsion")


# -- criterion 3: spine neighborhood boundary --------------------------------------------

def test_c03_spine_boundary_identity(spine_identity_inputs):
    for X in spine_identity_inputs:
        spine_boundary_check(X)
    _passed(3, "spine regular-neighborhood boundary identity (fixtures + 50 random)")


# -- criterion 4: singular set bounds ------------------------------------------------------

def test_c04_singular_set_bounds():
    for i in range(100):
        name = THICKENING_FIXTURES[i % len(THICKENING_FIXTURES)]
        X = fixture(name)
        m5 = sample_general_position_map(X, 5, seed=i)
        S5 = singular_set(m5)
        assert S5.records == ()
        assert S5.dim() == -1
    for i in range(100):
        name = THICKENING_FIXTURES[i % len(THICKENING_FIXTURES)]
        X = fixture(name)
        m3 = sample_general_position_map(X, 3, seed=i)
        S3 = singular_set(m3)
        assert S3.dim() <= 1
        for r in S3.records:
            d1, d2 = len(r.simplex_i) - 1, len(r.simplex_j) - 1
            d3 = len(set(r.simplex_i) & set(r.simplex_j)) - 1
            assert d1 + d2 - d3 >= 3
            assert r.dim <= d1 + d2 - 3
    _passed(4, "singular set bounds (100 maps into R5 and R3)")


# -- criterion 5: spine and collar, certified combinatorially ---------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_c05_spine_embedding_certified(pipeline_cache, name, seed):
    out, _ = pipeline_cache(name, seed)
    c = out.collar
    # The spine K is the full subcomplex of sd X on the barycenters of edges
    # and triangles, and the collar N its simplicial neighbourhood in
    # sd(sd X rel K), with the simplices missing K as its frontier: no map
    # and no epsilon.  N enters the solid, split at the waists, as the full
    # subcomplex L, and with it every spine edge as its two halves.
    assert c.K.dim == 1 and is_full_subcomplex(c.B.child, c.K)[0]
    assert c.K.is_subcomplex_of(c.N)
    kverts = set(c.K.vertices)
    assert c.frontier.simplices == {s for s in c.N.simplices if kverts.isdisjoint(s)}
    assert out.L.is_subcomplex_of(out.M) and is_full_subcomplex(out.M, out.L)[0]
    names = out.names
    for t in c.X.by_dim(2):
        for e in itertools.combinations(t, 2):
            u = names.u_label(e, t)
            assert {simplex(names.ve[e], u), simplex(u, names.vt[t])} <= out.L.simplices
    if (name, seed) == (THICKENING_FIXTURES[-1], SEEDS[-1]):
        _passed(5, "spine and collar certified combinatorially")


# -- criterion 6: handlebody boundary law ------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_c06_handlebody_law(pipeline_cache, name, seed):
    out, rep = pipeline_cache(name, seed)
    # build_spine_thickening proves the law by the nerve theorem; the oracle
    # checks it with the ball intersections and H_*(M) = H_*(spine).
    faults, law = handlebody_oracle(out.M, out.names, out.spine)
    assert faults == []
    assert all(chi == 2 - 2 * b1 for chi, b1 in law.values())
    assert sum(b1 for _, b1 in law.values()) == rep.spine_b1
    if name == "boundary_delta3":
        assert list(law.values()) == [(-4, 3)]
    if (name, seed) == (THICKENING_FIXTURES[-1], SEEDS[-1]):
        _passed(6, "handlebody boundary Euler characteristic law")


# -- criterion 7: reflection trick on small fixtures ---------------------------------------------

def test_c07_reflection_trick_small():
    Y = validate_complex([["a", "b"]])
    ms = MirrorStructure(
        Y=Y, S=("sa", "sb"),
        Sof={"a": frozenset(["sa"]), "b": frozenset(["sb"])})
    circle = basic_construction(ms)
    assert len(circle.complex.by_dim(1)) == 4
    assert all(len(circle.complex.adjacency()[v]) == 2
               for v in circle.complex.vertices)

    res = close_up(fixture("four_cycle_cone"), budget=200_000)
    Q = res.Q.complex
    assert Q.euler_characteristic() == 0
    assert orbit_count_euler(res.mirror_structure) == 0
    assert res.homology.betti == (1, 2, 1)
    assert res.orientation.success and len(res.report.boundary) == 0
    _passed(7, "reflection trick: interval -> circle, disc -> torus")


# -- criterion 8: local closed-link verification --------------------------------------------------

def test_c08_local_closed_links(pipeline_cache):
    out3, _ = pipeline_cache("boundary_delta3", 0)
    rep3 = verify_closed_locally(out3.P, cone_vertices=out3.cone_vertices.values())
    assert rep3.all_closed_manifolds()
    cones = [cls for tag, cls in rep3.classes.values() if tag == "cone"]
    assert len(cones) == 4
    assert all(cls.kind == "ClosedSurface" and cls.genus == 1 for cls in cones)
    others = [cls for tag, cls in rep3.classes.values() if tag != "cone"]
    assert all(cls.kind == "Sphere" and cls.components == 1 for cls in others)

    out1, _ = pipeline_cache("single_triangle", 0)
    rep1 = verify_closed_locally(out1.P, cone_vertices=out1.cone_vertices.values())
    assert rep1.all_closed_manifolds()
    cones1 = [cls for tag, cls in rep1.classes.values() if tag == "cone"]
    assert len(cones1) == 3
    assert all(cls.kind == "Sphere" for cls in cones1)

    # Global/local agreement on a fixture small enough to materialize.
    oct_sphere = validate_complex([
        [a, b, c] for a in ("x+", "x-") for b in ("y+", "y-") for c in ("z+", "z-")])
    ball = cone_off(oct_sphere, oct_sphere, "o")
    _, mismatches = local_global_agreement(ball)
    assert mismatches == []
    _passed(8, "reflection links verified locally; local == global where materialized")


# -- criterion 9: determinism -----------------------------------------------------------------------

def test_c09_determinism():
    config = PipelineConfig(seed=11)
    a = run_pipeline(config, fixture("single_triangle"))
    b = run_pipeline(config, fixture("single_triangle"))
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name] == b[name], "artifact %s differs between runs" % name
    _passed(9, "byte-identical artifacts for identical configuration")


# -- criterion 10: negative controls -----------------------------------------------------------------

def test_c10_negative_controls():
    book = check_pseudomanifold(fixture("book_of_three"))
    assert not book.facet_degrees_ok
    assert book.facet_witness == simplex("a", "b")

    flag, witness = is_flag(fixture("three_cycle"))
    assert not flag and witness == simplex("a", "b", "c")

    with pytest.raises(ValidationError, match="d >= 2 required"):
        thicken(fixture("single_edge"), seed=0)

    res = orient(fixture("projective_plane_6"))
    assert not res.success
    assert res.odd_cycle[0] == res.odd_cycle[-1] and len(res.odd_cycle) >= 4
    _passed(10, "negative controls (book, empty triangle, d=1, non-orientable)")
