import hashlib
import json
from collections import Counter

import pytest

from plthick import reflection
from plthick.complex_core import (
    Complex,
    barycentric_subdivision,
    complex_from_maximal,
    full_subcomplex,
    link_of,
    simplex_key,
    validate_complex,
)
from plthick.errors import BudgetExceededError, ConstructionError, ValidationError
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.pseudomanifold import (
    SPHERE,
    _boundary,
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
)
from plthick.reflection import (
    DEFAULT_BUDGET,
    MirrorStructure,
    basic_construction,
    boundary_mirror_structure,
    chamber_label,
    close_mirror_structure,
    close_up,
    local_global_agreement,
    orbit_count_euler,
    subdivision_size,
    verify_closed_locally,
)


# -- mirror structures ---------------------------------------------------------

def _mirror(ms, s):
    """The mirror of s: the full subcomplex of Y on the vertices whose
    mirror table holds s."""
    return full_subcomplex(ms.Y, [y for y in ms.Y.vertices if s in ms.Sof[y]])


def _colour_stars(ms, s):
    """The union of the stars, in the subdivided boundary of the chamber
    source, of the boundary vertices of colour s.  A boundary vertex keeps
    its label in the subdivision, and lies on its own colour's mirror
    only."""
    boundary = check_pseudomanifold(ms.chamber_source).boundary
    sub = barycentric_subdivision(boundary).child
    assert all(len(ms.Sof[v]) == 1 for v in boundary.vertices)
    return complex_from_maximal(t for v in boundary.vertices if ms.Sof[v] == {s}
                                for t in sub.incident(v))


def test_mirror_structure_of_triangle_disc():
    P = fixture("single_triangle")
    ms = boundary_mirror_structure(P)
    # The 3-cycle boundary is not flag, so the chamber gets subdivided:
    # a hexagon afterwards, with two colours.
    assert len(check_pseudomanifold(ms.chamber_source).boundary.vertices) == 6
    assert ms.S == (0, 1)
    for s in ms.S:
        # three stars of two edges each
        assert len(_mirror(ms, s).by_dim(1)) == 6
        assert _mirror(ms, s) == _colour_stars(ms, s)


def test_mirror_structure_of_four_cycle_cone():
    P = fixture("four_cycle_cone")
    ms = boundary_mirror_structure(P)
    assert ms.S == (0, 1)
    for s in ms.S:
        # the stars of two opposite vertices of the subdivided 4-cycle
        assert len(_mirror(ms, s).by_dim(1)) == 4
        assert len(_mirror(ms, s).connected_components()) == 2
        assert _mirror(ms, s) == _colour_stars(ms, s)


def test_an_improper_colouring_is_refused(monkeypatch):
    monkeypatch.setattr(reflection, "dsatur_colouring",
                        lambda X: dict.fromkeys(X.vertices, 0))
    with pytest.raises(ConstructionError, match="has one colour"):
        boundary_mirror_structure(fixture("four_cycle_cone"))


def test_mirror_table_rejects_unknown_indices():
    Y = validate_complex([["a", "b"]])
    with pytest.raises(ValidationError, match="unknown mirrors"):
        MirrorStructure(Y=Y, S=("sa",),
                        Sof={"a": frozenset(["sa"]), "b": frozenset(["sb"])})
    with pytest.raises(ValidationError, match="missing"):
        MirrorStructure(Y=Y, S=("sa",), Sof={"a": frozenset(["sa"])})


def test_closed_input_rejected():
    with pytest.raises(ValidationError):
        boundary_mirror_structure(fixture("boundary_delta3"))


# -- basic construction -----------------------------------------------------------

def test_interval_with_endpoint_mirrors_doubles_to_circle():
    Y = validate_complex([["a", "b"]])
    ms = MirrorStructure(
        Y=Y, S=("sa", "sb"),
        Sof={"a": frozenset(["sa"]), "b": frozenset(["sb"])})
    cc = basic_construction(ms)
    assert len(cc.complex.by_dim(0)) == 4 and len(cc.complex.by_dim(1)) == 4
    assert all(len(cc.complex.adjacency()[v]) == 2 for v in cc.complex.vertices)


def test_empty_mirror_set_reproduces_chamber():
    Y = fixture("single_triangle")
    ms = MirrorStructure(Y=Y, S=(), Sof={v: frozenset() for v in Y.vertices})
    cc = basic_construction(ms)
    assert cc.n_chambers == 1
    assert len(cc.complex.simplices) == len(Y.simplices)
    assert cc.identity_chamber() == cc.complex


def test_budget_error():
    P = fixture("four_cycle_cone")
    with pytest.raises(BudgetExceededError):
        close_up(P, budget=100)


# -- close up ----------------------------------------------------------------------

def test_close_up_builds_the_boundary_at_most_once(monkeypatch):
    """Without a report ``close_up`` builds ∂P once, for the budget
    pre-check and the mirror structure both; with P's report it builds
    none, and the closure is the same."""
    P = fixture("four_cycle_cone")
    calls = []
    monkeypatch.setattr(reflection, "_boundary", lambda X: calls.append(X) or _boundary(X))
    res = close_up(P, budget=200_000)
    assert calls == [P]
    del calls[:]
    with_report = close_up(P, budget=200_000, report=check_pseudomanifold(P))
    assert calls == []
    assert with_report.Q.complex == res.Q.complex
    assert with_report.mirror_structure == res.mirror_structure


def test_close_up_with_a_report_fails_alike(pipeline_cache):
    """P's report changes no error: the budget pre-check of a thickening and
    a closed input raise the same type and message either way."""
    out, rep = pipeline_cache("single_triangle")
    closed = fixture("boundary_delta3")
    for P, report, error in ((out.P, rep.pseudomanifold, BudgetExceededError),
                             (closed, check_pseudomanifold(closed), ValidationError)):
        messages = []
        for given in (None, report):
            with pytest.raises(error) as info:
                close_up(P, report=given)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_four_cycle_cone_closes_to_torus():
    res = close_up(fixture("four_cycle_cone"), budget=200_000)
    Q = res.Q.complex
    assert Q.euler_characteristic() == 0 == orbit_count_euler(res.mirror_structure)
    assert res.homology.betti == (1, 2, 1)
    assert len(res.report.boundary) == 0
    assert res.orientation.success
    assert res.Q.n_chambers == 4


def test_octahedron_ball_closes_to_flat_three_manifold(coloured_octahedral_closure):
    res = coloured_octahedral_closure
    Q = res.Q.complex
    assert Q.euler_characteristic() == 0
    assert res.homology.betti == (1, 3, 3, 1) and not any(res.homology.torsion)
    assert res.Q.n_chambers == 8
    assert len(res.report.boundary) == 0
    assert res.report.isolated_singularities
    assert res.orientation.success
    assert res.orientation.top_relative_rank == res.homology.betti[3] == 1


def test_closure_vertex_links_match_per_vertex_oracle(octahedral_closure):
    """The one-pass vertex-link classification of the closed-up Q agrees
    with classifying one link complex per vertex."""
    res = octahedral_closure
    Q = res.Q.complex
    assert res.report.vertex_links == {
        v[0]: classify_link(link_of(Q, v)) for v in Q.by_dim(0)}


def test_closure_orientation_signs_are_pinned(octahedral_closure):
    """The signs, in basis order, follow from the gallery forest's join
    order; a change of top numbering or facet order would show here."""
    signs = octahedral_closure.orientation.assignment.signs
    blob = json.dumps([[list(t), sign] for t, sign in signs.items()]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "c5598c2a224bcda1bd49c22f752cc26855db8db1625c55fe510f73a99e74382f")


def test_closure_passes_the_checked_constructor(octahedral_closure):
    """Q and its chamber are built by face closure
    without the closure check; the checked constructor accepts them."""
    res = octahedral_closure
    ms = res.mirror_structure
    for X in (res.Q.complex, res.Q.identity_chamber(), ms.Y):
        assert Complex(X.simplices) == X


def _fold_onto_colours(vertex_closure, coloured):
    """The image of each simplex of the closure over one mirror per
    boundary vertex under (w, y) -> (lambda(w), y), where lambda sends the
    bit of a vertex's mirror to the bit of its colour, counted."""
    ms = vertex_closure.mirror_structure
    bit = {i: 1 << min(coloured.mirror_structure.Sof[v]) for i, v in enumerate(ms.S)}

    def fold(label):
        w, y = label.split("#", 1)
        w = int(w)
        image = 0
        for i, b in bit.items():
            if w >> i & 1:
                image ^= b
        return chamber_label(image, coloured.Q.masks[y], y)

    return Counter(tuple(sorted(map(fold, s))) for s in vertex_closure.Q.complex.simplices)


def test_vertex_closure_folds_onto_the_coloured_closure(vertex_mirrors, octahedral_closure,
                                                        coloured_octahedral_closure):
    """The 2^|S| closure maps onto the 2^c one, every fibre of size
    2^(|S| - c): the coloured closure is its quotient by the kernel of
    lambda, which acts freely."""
    disc = fixture("four_cycle_cone")
    for vertex_closure, coloured in (
            (close_mirror_structure(vertex_mirrors(disc)), close_up(disc)),
            (octahedral_closure, coloured_octahedral_closure)):
        assert vertex_closure.mirror_structure.Y == coloured.mirror_structure.Y
        fibres = _fold_onto_colours(vertex_closure, coloured)
        assert set(fibres) == coloured.Q.complex.simplices
        k, c = (len(r.mirror_structure.S) for r in (vertex_closure, coloured))
        assert set(fibres.values()) == {2 ** (k - c)}


@pytest.mark.parametrize("name", ["single_triangle", "four_cycle_cone", "boundary_delta3",
                                  "pinched_spheres", "two_triangles_shared_edge"])
def test_subdivision_size_counts_the_subdivision(octahedral_ball, name):
    for X in (fixture(name), octahedral_ball):
        assert subdivision_size(X) == len(barycentric_subdivision(X).child)


def test_budget_precheck_refuses_thickenings_before_subdividing(pipeline_cache, monkeypatch):
    """At the default budget every thickening falls back to the local
    verifier at once: the pre-check reads P's f-vector, and nothing is
    subdivided or coloured."""
    def refuse(*args):
        raise AssertionError("the pre-check should have refused first")

    monkeypatch.setattr(reflection, "barycentric_subdivision", refuse)
    monkeypatch.setattr(reflection, "dsatur_colouring", refuse)
    for name in THICKENING_FIXTURES:
        out, _ = pipeline_cache(name)
        with pytest.raises(BudgetExceededError, match="more than %d " % DEFAULT_BUDGET):
            close_up(out.P)


def test_identity_chamber_embeds():
    res = close_up(fixture("four_cycle_cone"), budget=200_000)
    ident = res.Q.identity_chamber()
    assert ident.is_subcomplex_of(res.Q.complex)
    assert len(ident.simplices) == len(res.mirror_structure.Y.simplices)


# -- local verification ---------------------------------------------------------------

def _tag_counts(rep):
    return Counter((tag, cls.describe()) for tag, cls in rep.classes.values())


def test_local_classification_of_thickened_triangle(pipeline_cache):
    out, thick = pipeline_cache("single_triangle")
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
    out, thick = pipeline_cache("boundary_delta3")
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


def _per_simplex_classes(P, cone_vertices, report):
    """Oracle: the local classes as one loop over every simplex of P in
    ``simplex_key`` order, each classified and checked on its own."""
    boundary = report.boundary
    classes = {}
    for tau in sorted(P.simplices, key=simplex_key):
        v = tau[0]
        on_boundary = tau in boundary.simplices
        is_cone = on_boundary and len(tau) == 1 and v in cone_vertices
        tag = "cone" if is_cone else "boundary" if on_boundary else "interior"
        if len(tau) > 1:
            cls = SPHERE
        elif on_boundary:
            cls = report.vertex_links[v].doubled()
        else:
            cls = report.vertex_links[v]
        assert cls.closed()
        assert is_cone or (cls.kind == "Sphere" and cls.components == 1)
        classes[tau] = (tag, cls)
    return classes


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_local_classes_match_the_per_simplex_loop(pipeline_cache, name):
    """The vertex pass plus one sphere class per positive-dimensional
    simplex gives the per-simplex loop's map, in the same key order."""
    out, thick = pipeline_cache(name)
    cones = tuple(out.cone_vertices.values())
    rep = verify_closed_locally(out.P, cone_vertices=cones, report=thick.pseudomanifold)
    oracle = _per_simplex_classes(out.P, cones, thick.pseudomanifold)
    assert rep.classes == oracle
    assert list(rep.classes) == list(oracle)


def test_local_and_global_classifications_agree_on_octahedron_ball(octahedral_ball):
    result, mismatches = local_global_agreement(octahedral_ball)
    assert mismatches == []


def test_local_verifier_requires_dimension_three():
    with pytest.raises(ValidationError):
        verify_closed_locally(fixture("four_cycle_cone"))


def test_local_verifier_requires_isolated_singularities():
    # Two tetrahedra sharing only an edge: that edge's link is two arcs.
    bowtie = validate_complex([["a", "b", "c", "d"], ["a", "b", "e", "f"]])
    with pytest.raises(ValidationError, match="isolated singularities"):
        verify_closed_locally(bowtie)


# -- doubles of boundary vertex links --------------------------------------------

def _double_of_link(P, boundary, w):
    """Oracle: classify the glued link of w's class for a boundary vertex w,
    built outright as the two-chamber basic construction on the subdivided
    link of w with the mirror lk_dP(w)."""
    sub = barycentric_subdivision(link_of(P, (w,)))
    Y = sub.child
    on_mirror = link_of(boundary, (w,)).simplices
    sof = {y: frozenset((w,)) if sub.carrier_of_label(y) in on_mirror else frozenset()
           for y in Y.vertices}
    return classify_link(basic_construction(MirrorStructure(Y=Y, S=(w,), Sof=sof)).complex)


def _assert_doubles_match_oracle(P):
    report = check_isolated_singularities(P)
    boundary = report.boundary
    for v in boundary.vertices:
        assert report.vertex_links[v].doubled() == _double_of_link(P, boundary, v), v
    return len(boundary.vertices)


@pytest.mark.parametrize("name", ["single_triangle", "two_triangles_shared_vertex",
                                  "two_triangles_shared_edge", "boundary_delta3",
                                  "pinched_spheres"])
def test_doubled_links_match_built_doubles(pipeline_cache, name):
    out, _ = pipeline_cache(name)
    assert _assert_doubles_match_oracle(out.P) > 0


def test_doubled_links_match_built_doubles_on_octahedron_ball(octahedral_ball):
    assert _assert_doubles_match_oracle(octahedral_ball) == 6


def test_doubled_link_with_a_closed_component():
    # A tetrahedron and the boundary of a 4-simplex wedged at the boundary
    # vertex a: lk(a) is a disc plus a sphere, whose double is two spheres.
    wedge = validate_complex([["a", "b", "c", "d"]] + [
        [v for v in "aefgh" if v != x] for x in "aefgh"])
    assert _assert_doubles_match_oracle(wedge) == 4
    double = check_isolated_singularities(wedge).vertex_links["a"].doubled()
    assert (double.kind, double.components) == ("Sphere", 3)


def test_doubled_link_of_a_non_orientable_link():
    # The cone from v over the five-vertex Moebius strip: lk(v) is the
    # strip, whose double is a Klein bottle.
    strip = [[str(i), str((i + 1) % 5), str((i + 2) % 5)] for i in range(5)]
    cone = validate_complex([t + ["v"] for t in strip])
    assert _assert_doubles_match_oracle(cone) == 6
    double = check_isolated_singularities(cone).vertex_links["v"].doubled()
    assert (double.kind, double.orientable, double.genus) == ("ClosedSurface", False, 2)


def test_doubled_needs_a_surface():
    circle = classify_link(validate_complex([["a", "b"], ["b", "c"], ["a", "c"]]))
    with pytest.raises(ValidationError, match="only a surface"):
        circle.doubled()


def test_local_verifier_rejects_a_non_sphere_boundary_class(pipeline_cache):
    # Without its cone vertices declared, the thickened sphere's cone
    # classes (doubles of annuli, tori) break the sphere rule.
    out, _ = pipeline_cache("boundary_delta3")
    with pytest.raises(ConstructionError, match="should have a sphere link"):
        verify_closed_locally(out.P)
