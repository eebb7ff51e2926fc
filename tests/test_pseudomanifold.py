import hashlib
import json
import random
from itertools import combinations

import pytest

from plthick.complex_core import (
    EMPTY_COMPLEX,
    boundary_and_free_faces,
    cone_off,
    facets,
    link_of,
    simplex,
    validate_complex,
)
from plthick.errors import ValidationError
from plthick.fixtures import FIXTURE_NAMES, THICKENING_FIXTURES, fixture
from plthick.homology import homology_groups
from plthick.pseudomanifold import (
    LinkClass,
    _fans,
    _surface_fans,
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    orient,
)


def test_sphere_report():
    r = check_pseudomanifold(fixture("boundary_delta3"))
    assert r.is_pure and r.facet_degrees_ok and r.gallery_connected
    assert len(r.boundary) == 0


def test_book_of_three_fails_facet_degrees():
    r = check_pseudomanifold(fixture("book_of_three"))
    assert not r.facet_degrees_ok
    assert r.facet_witness == simplex("a", "b")
    # The three pages are one gallery through their common edge.
    assert r.gallery_components == 1


@pytest.mark.parametrize("raw, witness", [
    # A dangling edge (degree 0) sorting before the spine of a book (degree 3).
    ([["b", "c", "x"], ["b", "c", "y"], ["b", "c", "z"], ["a", "b"]], ("a", "b")),
    # A dangling edge sorting after it.
    ([["b", "c", "x"], ["b", "c", "y"], ["b", "c", "z"], ["x", "y"]], ("b", "c")),
    ([["a", "b", "c"], ["c", "d"]], ("c", "d")),
    ([["a", "b", "c", "d"], ["a", "b", "e"]], ("a", "b", "e")),
    ([["a", "b", "c"], ["b", "c", "d"]], None),
])
def test_facet_witness_is_the_first_bad_facet_in_id_order(raw, witness):
    """The witness is the first (d-1)-simplex, in ``by_dim`` order, in no
    top simplex or in more than two."""
    X = validate_complex(raw)
    r = check_pseudomanifold(X)
    assert r.facet_witness == witness and r.facet_degrees_ok == (witness is None)
    tops = X.by_dim(X.dim)
    degree = {f: sum(set(f) <= set(t) for t in tops) for f in X.by_dim(X.dim - 1)}
    assert witness == next((f for f, n in degree.items() if n not in (1, 2)), None)


@pytest.mark.parametrize("raw, pure", [
    ([["a", "b", "c"], ["c", "d"]], False),
    ([["a", "b", "c"], ["d"]], False),
    ([["a", "b", "c", "d"], ["a", "b", "e"]], False),
    ([["a", "b", "c", "d"], ["a", "b", "e", "f"]], True),
])
def test_purity_matches_maximal_simplices(raw, pure):
    X = validate_complex(raw)
    assert all(len(s) == X.dim + 1 for s in X.maximal_simplices) == pure
    assert check_pseudomanifold(X).is_pure == pure


def test_isolated_singularities_need_a_pseudomanifold():
    r = check_isolated_singularities(fixture("book_of_three"))
    assert not r.isolated_singularities and not r.positive_links_ok


def test_shared_vertex_wedge_report():
    r = check_pseudomanifold(fixture("two_triangles_shared_vertex"))
    assert r.is_pure and r.facet_degrees_ok
    assert not r.gallery_connected and r.gallery_components == 2
    assert len(r.boundary.by_dim(1)) == 6


def test_disconnected_complex_report():
    r = check_pseudomanifold(validate_complex([["a", "b", "c"], ["x", "y", "z"]]))
    assert r.is_pure and r.facet_degrees_ok
    assert not r.gallery_connected and r.gallery_components == 2
    assert len(r.boundary.by_dim(1)) == 6


def test_boundary_matches_free_face_boundary():
    for name in ("single_triangle", "boundary_delta3", "two_triangles_shared_edge"):
        X = fixture(name)
        r = check_pseudomanifold(X)
        _, bd = boundary_and_free_faces(X)
        d = X.dim
        top_free = [s for s in bd.simplices if len(s) == d]
        assert set(r.boundary.by_dim(d - 1)) == set(top_free)


# -- link classification ----------------------------------------------------------

def test_classify_cycle():
    cls = classify_link(fixture("three_cycle"))
    assert cls.kind == "Circle" and cls.components == 1 and cls.is_manifold


def test_classify_sphere():
    cls = classify_link(fixture("boundary_delta3"))
    assert cls.kind == "Sphere" and cls.orientable and cls.genus == 0
    assert cls.closed()


def test_classify_projective_plane():
    cls = classify_link(fixture("projective_plane_6"))
    assert cls.kind == "ClosedSurface" and not cls.orientable
    assert cls.genus == 1  # one crosscap
    assert fixture("projective_plane_6").euler_characteristic() == 1


def test_classify_torus():
    cls = classify_link(fixture("torus_7"))
    assert cls.kind == "ClosedSurface" and cls.orientable and cls.genus == 1


def test_classify_disc():
    cls = classify_link(fixture("four_cycle_cone"))
    assert cls.kind == "Disc" and cls.boundary_components == 1


def test_classify_point_pair_and_arc():
    assert classify_link(validate_complex([["x"], ["y"]])).kind == "PointPair"
    assert classify_link(validate_complex([["x", "y"], ["y", "z"]])).kind == "Arc"


def test_classify_empty_and_zero_dimensional_links():
    assert classify_link(EMPTY_COMPLEX) == LinkClass(kind="Empty", dim=-1, components=0,
                                                     is_manifold=True)
    point = classify_link(validate_complex([["x"]]))
    assert (point.kind, point.components, point.is_manifold, point.boundary_components) \
        == ("Point", 1, True, 1)
    three = classify_link(validate_complex([["x"], ["y"], ["z"]]))
    assert (three.kind, three.components, three.is_manifold, three.witness) \
        == ("NotManifold", 3, False, simplex("x"))


def test_classify_curve_with_isolated_vertex_not_manifold():
    cls = classify_link(validate_complex([["x", "y"], ["z"]]))
    assert cls.kind == "NotManifold" and cls.witness == simplex("z")


def test_classify_branching_curve_not_manifold():
    cls = classify_link(validate_complex([["c", "x"], ["c", "y"], ["c", "z"]]))
    assert not cls.is_manifold and cls.witness == simplex("c")


def test_classify_disjoint_projective_plane_and_torus():
    rp2 = list(fixture("projective_plane_6").by_dim(2))
    torus = [["t" + v for v in t] for t in fixture("torus_7").by_dim(2)]
    cls = classify_link(validate_complex(rp2 + torus))
    assert cls.kind == "ClosedSurface" and cls.components == 2
    assert cls.orientable is False and cls.genus == 2 and cls.boundary_components == 0


def _local_surface_oracle(L):
    """Every edge in one or two triangles, every vertex and edge in a
    triangle, and every vertex link one circle or arc."""
    cofaces = {e: 0 for e in L.by_dim(1)}
    for t in L.by_dim(2):
        for e in facets(t):
            cofaces[e] += 1
    covered = {v for t in L.by_dim(2) for v in t}
    if not all(c in (1, 2) for c in cofaces.values()):
        return False
    if not all(v[0] in covered for v in L.by_dim(0)):
        return False
    for v in L.by_dim(0):
        cls = classify_link(link_of(L, v))
        if cls.kind not in ("Circle", "Arc") or cls.components != 1:
            return False
    return True


def _random_surfaces():
    """600 random 2-complexes: subsets of the RP^2 and torus triangles or
    random triangles on 3-9 vertices, some with stray edges."""
    rng = random.Random(20261018)
    pools = [list(fixture(name).by_dim(2))
             for name in ("projective_plane_6", "torus_7")]
    out = []
    for _ in range(600):
        if rng.random() < 0.5:
            pool = rng.choice(pools)
            tris = rng.sample(pool, rng.randint(1, len(pool)))
        else:
            labels = ["v%d" % i for i in range(rng.randint(3, 9))]
            tris = [rng.sample(labels, 3) for _ in range(rng.randint(1, 14))]
        verts = sorted({v for t in tris for v in t})
        strays = [rng.sample(verts + ["s"], 2) for _ in range(rng.choice((0, 0, 0, 1, 2)))]
        out.append(validate_complex(tris + strays))
    return out


def test_classify_surface_matches_local_link_oracle():
    verdicts = []
    for L in _random_surfaces():
        expect = _local_surface_oracle(L)
        assert classify_link(L).is_manifold == expect, L
        verdicts.append(expect)
    assert 100 < sum(verdicts) < 500


def _surface_oracle(L):
    """``classify_link`` of a 2-complex rebuilt from connected components,
    Euler characteristics, edge-triangle tables and ``orient`` alone: the
    NotManifold rules in their order, then the classification of surfaces
    per component."""
    def not_manifold(witness):
        return LinkClass(kind="NotManifold", dim=2, components=0,
                         is_manifold=False, witness=witness)

    cofaces = L.facet_cofaces()
    tris = L.by_dim(2)
    for e, tops in cofaces.items():
        if not tops:
            return not_manifold(e)
    for v in L.by_dim(0):
        if not any(v[0] in t for t in tris):
            return not_manifold(v)
    for e, tops in cofaces.items():
        if len(tops) > 2:
            return not_manifold(e)
    for v in L.by_dim(0):
        x = v[0]
        link = validate_complex([[w for w in t if w != x] for t in tris if x in t])
        if len(link.connected_components()) != 1:
            return not_manifold(v)
    pieces = []
    for comp in L.connected_components():
        piece = validate_complex([t for t in tris if t[0] in comp])
        rim = [e for e, tops in piece.facet_cofaces().items() if len(tops) == 1]
        circles = len(validate_complex(rim).connected_components())
        pieces.append((piece.euler_characteristic(), circles, orient(piece).success))
    kinds = {("Disc" if o and chi == 1 and nb == 1 else "SurfaceWithBoundary") if nb
             else ("Sphere" if o and chi == 2 else "ClosedSurface")
             for chi, nb, o in pieces}
    return LinkClass(
        kind=kinds.pop() if len(kinds) == 1 else "Mixed", dim=2,
        components=len(pieces), is_manifold=True,
        orientable=all(o for _, _, o in pieces),
        genus=sum((2 - chi - nb) // 2 if o else 2 - chi - nb for chi, nb, o in pieces),
        boundary_components=sum(nb for _, nb, _ in pieces),
        pieces=tuple(sorted(pieces)))


def test_classify_surface_matches_independent_oracle():
    surfaces = _random_surfaces()
    unions = [validate_complex(list(a.maximal_simplices)
                               + [["u" + v for v in s] for s in b.maximal_simplices])
              for a, b in zip(surfaces[::2], surfaces[1::2])]
    seen = {"non-orientable": 0, "several components": 0, "boundary": 0}
    for L in surfaces + unions:
        cls = classify_link(L)
        assert cls == _surface_oracle(L), L.maximal_simplices
        seen["non-orientable"] += cls.orientable is False
        seen["several components"] += cls.components > 1
        seen["boundary"] += bool(cls.boundary_components)
    assert all(seen.values()), seen


@pytest.mark.parametrize("L,witness", [
    (validate_complex([["a", "b", "c"], ["c", "d"]]), ("c", "d")),
    (validate_complex([["a", "b", "c"], ["d"]]), ("d",)),
    (fixture("book_of_three"), ("a", "b")),
    (fixture("two_triangles_shared_vertex"), ("a",)),
], ids=["edge_in_no_triangle", "uncovered_vertex", "book_of_three",
        "two_triangles_shared_vertex"])
def test_classify_surface_not_manifold_witness(L, witness):
    cls = classify_link(L)
    assert cls.kind == "NotManifold" and not cls.is_manifold
    assert cls.witness == simplex(*witness)


def test_classify_rejects_dim_three():
    with pytest.raises(ValidationError):
        classify_link(fixture("boundary_delta4"))


# -- isolated singularities ---------------------------------------------------------

def test_three_sphere_has_no_singularities():
    X = fixture("boundary_delta4")
    r = check_isolated_singularities(X)
    assert r.isolated_singularities and r.positive_links_ok
    assert all(cls.kind == "Sphere" and cls.genus == 0
               for cls in r.vertex_links.values())


def test_pinched_spheres_have_isolated_singularities():
    X = fixture("pinched_spheres")
    r = check_isolated_singularities(X)
    assert r.isolated_singularities
    pinch = r.vertex_links["a"]
    assert pinch.kind == "Circle" and pinch.components == 2 and pinch.is_manifold
    # Not a combinatorial manifold at the pinch: the link is disconnected.
    assert any(cls.components > 1 for cls in r.vertex_links.values())


def test_cone_over_torus_is_singular_pseudomanifold():
    T = fixture("torus_7")
    X = cone_off(T, T, "w")
    r = check_isolated_singularities(X)
    assert r.isolated_singularities
    apex = r.vertex_links["w"]
    assert apex.kind == "ClosedSurface" and apex.genus == 1 and apex.orientable
    others = [cls for v, cls in r.vertex_links.items() if v != "w"]
    assert all(cls.kind == "Disc" for cls in others)


def _two_spheres_sharing(shared):
    """Two copies of the boundary of the 4-simplex, glued at the vertices
    in ``shared``."""
    tops = list(fixture("boundary_delta4").by_dim(3))
    return validate_complex(tops + [[v if v in shared else v + "2" for v in t] for t in tops])


def test_spheres_glued_along_edge_are_singular_along_it():
    r = check_isolated_singularities(_two_spheres_sharing({"a", "b"}))
    assert r.is_pure and r.facet_degrees_ok
    assert r.positive_links_ok is False and r.isolated_singularities is False


def test_spheres_glued_at_vertex_have_isolated_singularity():
    r = check_isolated_singularities(_two_spheres_sharing({"a"}))
    assert r.positive_links_ok and r.isolated_singularities
    assert r.vertex_links["a"].kind == "Sphere" and r.vertex_links["a"].components == 2


def _edge_link_oracle(X, boundary):
    """Every edge link is one arc (boundary edge) or one circle."""
    for e in X.by_dim(1):
        cls = classify_link(link_of(X, e))
        if cls.kind != ("Arc" if e in boundary else "Circle") or cls.components != 1:
            return False
    return True


def _random_three_pseudomanifold(rng):
    """Up to 16 random tetrahedra on 5-9 vertices, each kept only while
    every triangle stays in at most two of them."""
    labels = ["v%d" % i for i in range(rng.randint(5, 9))]
    tops, degree = set(), {}
    for _ in range(rng.randint(1, 16)):
        t = tuple(sorted(rng.sample(labels, 4)))
        tris = [tuple(v for v in t if v != w) for w in t]
        if t not in tops and all(degree.get(f, 0) < 2 for f in tris):
            tops.add(t)
            for f in tris:
                degree[f] = degree.get(f, 0) + 1
    return validate_complex([list(t) for t in sorted(tops)])


def test_positive_links_match_edge_link_oracle():
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(300):
        X = _random_three_pseudomanifold(rng)
        r = check_isolated_singularities(X)
        assert r.is_pure and r.facet_degrees_ok
        expect = _edge_link_oracle(X, r.boundary)
        assert r.positive_links_ok == expect, X.maximal_simplices
        verdicts.append(expect)
    assert 50 < sum(verdicts) < 250, sum(verdicts)


def _vertex_link_oracle(X):
    """The per-vertex classification: one link complex per vertex."""
    return {v[0]: classify_link(link_of(X, v)) for v in X.by_dim(0)}


def _independent_vertex_link_oracle(X):
    """The per-vertex classification by ``_surface_oracle``, which does not
    run ``_surface_fans``."""
    return {v[0]: _surface_oracle(link_of(X, v)) for v in X.by_dim(0)}


def test_one_pass_vertex_links_match_per_vertex_oracle():
    rng = random.Random(20261020)
    seen = {"non-orientable": 0, "several components": 0, "boundary": 0}
    for _ in range(600):
        X = _random_three_pseudomanifold(rng)
        r = check_isolated_singularities(X)
        if not r.positive_links_ok:
            continue
        expect = _vertex_link_oracle(X)
        assert r.vertex_links == expect, X.maximal_simplices
        assert r.vertex_links == _independent_vertex_link_oracle(X), X.maximal_simplices
        links = expect.values()
        seen["non-orientable"] += any(cls.orientable is False for cls in links)
        seen["several components"] += any(cls.components > 1 for cls in links)
        seen["boundary"] += any(cls.boundary_components for cls in links)
    assert all(seen.values()), seen
    cones = [cone_off(fixture(name), fixture(name), "w")
             for name in ("projective_plane_6", "torus_7")]
    for X in cones + [_two_spheres_sharing({"a"})]:
        r = check_isolated_singularities(X)
        assert r.positive_links_ok and r.vertex_links == _vertex_link_oracle(X)
        assert r.vertex_links == _independent_vertex_link_oracle(X)


def _euler_charge_oracle(X, k, boundary):
    """The pieces of every k-vertex face's link, as ``_surface_fans`` finds
    them, from a slot-by-slot Euler charge: each top adds 1 to its own
    slots, each (k+1)-face 1 through its first top by id, and each facet -1
    through its first top, so every vertex, edge and triangle of the link is
    counted directly, with no handshake identity."""
    d = k + 2
    subsets = list(combinations(range(d + 1), k))
    index = {r: j for j, r in enumerate(subsets)}
    w = len(subsets)
    # lifts[p]: the slots in a top of the k-subsets of its facet without p.
    lifts = [[index[tuple(m + (m >= p) for m in r)] for r in combinations(range(d), k)]
             for p in range(d + 1)]
    ix = X.incidence()
    top, row, row_start = ix.offsets[d], ix.facets, ix.facet_start
    roots, _, odd = _fans(X, k)
    chi = [1] * len(roots)
    # The (k+1)-face of a top without its positions p < q is entry
    # d - 1 - p of the row of its facet without q, entry d - q of its row.
    ups = [(d - q, d - 1 - p, [index[r] for r in combinations(u, k)])
           for p, q in combinations(range(d + 1), 2)
           for u in [tuple(x for x in range(d + 1) if x not in (p, q))]]
    charged = set()
    for t in ix.ids(d):
        i, r = w * (t - top), row_start[t]
        for jq, jp, js in ups:
            g = row[row_start[row[r + jq]] + jp]
            if g not in charged:
                charged.add(g)
                for j in js:
                    chi[i + j] += 1
    rim = []
    tops, entries, start = ix.cofaces, ix.entries, ix.coface_start
    for f in ix.ids(d - 1):
        a = start[f]
        i, lift = w * (tops[a] - top), lifts[d - entries[a]]
        for j in lift:
            chi[i + j] -= 1
        if start[f + 1] - a == 1:
            rim.append((i, lift))
    fans = {}
    for s, r in enumerate(roots):
        fans.setdefault(r, [0, 0, r not in odd])[0] += chi[s]
    if len(boundary):
        wb = len(lifts[0])
        for s in set(_fans(boundary, k)[0]):
            i, lift = rim[s // wb]
            fans[roots[i + lift[s % wb]]][1] += 1
    by_face = {}
    for r, fan in fans.items():
        t = ix.cells[top + r // w]
        by_face.setdefault(tuple(t[p] for p in subsets[r % w]), []).append(tuple(fan))
    return {face: tuple(sorted(pieces)) for face, pieces in by_face.items()}


def _assert_euler_charge(X, k, boundary):
    found = {face: cls.pieces for face, cls in _surface_fans(X, k, boundary).items()}
    assert found == _euler_charge_oracle(X, k, boundary)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_handshake_count_matches_euler_charge_on_thickenings(pipeline_cache, name):
    out, _ = pipeline_cache(name, 0)
    for X in (out.M, out.P):
        r = check_isolated_singularities(X)
        assert r.positive_links_ok
        _assert_euler_charge(X, 1, r.boundary)


def test_handshake_count_matches_euler_charge_on_closure_and_surfaces(octahedral_closure):
    Q = octahedral_closure.Q.complex
    _assert_euler_charge(Q, 1, octahedral_closure.report.boundary)
    surfaces = [L for L in _random_surfaces() if classify_link(L).is_manifold]
    assert len(surfaces) > 100
    for L in surfaces:
        _assert_euler_charge(L, 0, check_pseudomanifold(L).boundary)


# -- orientation -----------------------------------------------------------------------

def top_relative_rank_oracle(X):
    """Rank of H_n(X, boundary; Z) by Smith normal form: the reference for
    the rank ``orient`` reads off the gallery forest."""
    boundary = check_pseudomanifold(X).boundary
    return homology_groups(X, rel=boundary if len(boundary) else None).betti[X.dim]


def test_orient_sphere():
    X = fixture("boundary_delta3")
    res = orient(X)
    assert res.success
    assert sorted(res.assignment.signs.values()).count(1) + \
        sorted(res.assignment.signs.values()).count(-1) == 4
    assert res.top_relative_rank == 1 == top_relative_rank_oracle(X)


def test_orient_projective_plane_fails_with_odd_cycle():
    X = fixture("projective_plane_6")
    res = orient(X)
    assert not res.success
    _assert_odd_cycle(X, res.odd_cycle)
    assert res.top_relative_rank == 0 == top_relative_rank_oracle(X)


def test_orient_disc_with_relative_homology():
    X = fixture("four_cycle_cone")
    res = orient(X)
    assert res.success and res.top_relative_rank == 1
    _, bd = boundary_and_free_faces(X)
    assert homology_groups(X, rel=bd).betti[2] == 1


def test_orient_rejects_book():
    with pytest.raises(ValidationError):
        orient(fixture("book_of_three"))


@pytest.mark.parametrize("name,expect", [
    ("boundary_delta3", True), ("torus_7", True), ("projective_plane_6", False),
    ("pinched_spheres", True), ("four_cycle_cone", True),
    ("two_triangles_shared_vertex", True),
])
def test_orient_iff_top_relative_rank_per_component(name, expect):
    X = fixture(name)
    report = check_pseudomanifold(X)
    res = orient(X, report=report)
    assert res.success is expect
    assert res.top_relative_rank == top_relative_rank_oracle(X)
    if res.success:
        assert res.top_relative_rank == report.gallery_components
    else:
        assert res.top_relative_rank < report.gallery_components


def test_orient_cone_rule_on_cone_over_sphere(cone_rule):
    """Coning a sphere: the fresh apex must obey the reflection of the
    inherited facet orientations.  The ball's base facets all lie on its
    boundary, so the rule binds once the boundary is coned off again."""
    S = fixture("boundary_delta3")
    ball = cone_off(S, S, "o")
    big = check_pseudomanifold(ball)
    res = orient(ball, report=big)
    assert res.success
    assert cone_rule(ball, res.assignment.signs, {"o"}) == 0
    sphere = cone_off(ball, S, "w")
    res = orient(sphere)
    assert res.success
    assert cone_rule(sphere, res.assignment.signs, {"w"}) == 4


# The breadth-first propagation that ``orient`` ran before it read its signs
# off the gallery forest, kept verbatim as the sign oracle.


def _opposite(t, f):
    """Position in t of its one vertex outside the facet f."""
    return next(i for i, v in enumerate(t) if v not in f)


def _relation(sigma, tau, facet):
    """Required product sign(sigma)*sign(tau) across a shared facet."""
    return -((-1) ** (_opposite(sigma, facet) + _opposite(tau, facet)))


def _propagate(tops, cofaces):
    """BFS orientation propagation; returns (signs, None) or (None, odd_cycle)."""
    neighbors = {}
    for f, ts in cofaces.items():
        if len(ts) == 2:
            a, b = ts
            rel = _relation(a, b, f)
            neighbors.setdefault(a, []).append((b, rel))
            neighbors.setdefault(b, []).append((a, rel))
    signs = {}
    parent = {}
    for seed in sorted(tops):
        if seed in signs:
            continue
        signs[seed] = 1
        parent[seed] = None
        queue = [seed]
        while queue:
            cur = queue.pop()
            for nxt, rel in neighbors.get(cur, ()):
                want = rel * signs[cur]
                if nxt not in signs:
                    signs[nxt] = want
                    parent[nxt] = cur
                    queue.append(nxt)
                elif signs[nxt] != want:
                    return None, _odd_cycle(parent, cur, nxt)
    return signs, None


def _odd_cycle(parent, a, b):
    anc_a = []
    x = a
    while x is not None:
        anc_a.append(x)
        x = parent[x]
    aset = set(anc_a)
    path_b = []
    x = b
    while x not in aset:
        path_b.append(x)
        x = parent[x]
    lca = x
    path_a = anc_a[:anc_a.index(lca) + 1]
    return path_a + list(reversed(path_b)) + [a]


def _oracle_signs(X):
    return _propagate(X.by_dim(X.dim), X.facet_cofaces())[0]


def _assert_odd_cycle(X, cycle):
    """A closed walk of top simplices, each step across a facet of two
    cofaces, whose sign relations multiply to -1."""
    cofaces = X.facet_cofaces()
    assert cycle[0] == cycle[-1] and len(cycle) >= 4
    product = 1
    for s, t in zip(cycle, cycle[1:]):
        f = tuple(v for v in s if v in t)
        assert len(f) == X.dim and sorted(cofaces[f]) == sorted((s, t)), (s, t)
        product *= _relation(s, t, f)
    assert product == -1, cycle


def _orient_matches_oracle(X):
    """``orient`` gives the oracle's signs, or an odd cycle where the oracle
    finds none; returns whether X is orientable."""
    res = orient(X)
    assert (res.assignment.signs if res.success else None) == _oracle_signs(X)
    if not res.success:
        _assert_odd_cycle(X, res.odd_cycle)
    return res.success


def test_orient_signs_and_odd_cycles_match_propagation_oracle():
    rng = random.Random(20261021)
    candidates = [fixture(name) for name in FIXTURE_NAMES]
    candidates += _random_surfaces()
    candidates += [_random_three_pseudomanifold(rng) for _ in range(300)]
    candidates += [cone_off(fixture(name), fixture(name), "w")
                   for name in ("projective_plane_6", "torus_7")]
    verdicts = [_orient_matches_oracle(X) for X in candidates
                if check_pseudomanifold(X).facet_degrees_ok]
    assert 100 < sum(verdicts) < len(verdicts) - 50, (sum(verdicts), len(verdicts))


def test_orient_signs_on_closed_octahedral_ball_match_oracle(octahedral_closure):
    Q = octahedral_closure.Q.complex
    assert octahedral_closure.orientation.assignment.signs == _oracle_signs(Q)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_orient_signs_on_thickenings_match_oracle(pipeline_cache, name):
    out, rep = pipeline_cache(name, 0)
    assert rep.orientation.assignment.signs == _oracle_signs(out.P)


# sha256 of the compact JSON [parent, parity, witness items] of _fans(X, k),
# pinned before roots were looked up inline.
FAN_FOREST_DIGESTS = {
    ("M", 0): "27164d701dba6603e625ec3553e67dd1e8cf5f4c61640183697ee11b10aebf8c",
    ("M", 1): "d7313886b337b3c14c63aa61295174334e739d4e00be0df52056615da74d5c23",
    ("M", 2): "db53429052b8790d0fc061ffeec55c28d752e4814a2e43be42b8f0d6116da5fc",
    ("P", 0): "095e6954f4ebd775114103521c4e0cbd7eceef6c7cad838ba0a4182041a87f6b",
    ("Q", 0): "686bd1fbc17f763cc855d653f6fa867be8585bd478971f968193982efc3d225a",
    ("Q", 1): "3431f304f94f703e5ac8711369484725e771e3becd974a385345189632bb54ac",
    ("Q", 2): "90ecf0cf2b40786ebabbe0890b9f594ca74c5addab13d2666745b659110c7159",
    ("C", 0): "d6e3253cecc42629a082b5a514beaa93d8674b3c0525246397593b2418b65cda",
    ("C", 1): "2773854b1bbb27d42777806a61e67352bf300ff75213dfb98569b02269a6aaa7",
}


def test_fan_forests_are_pinned(pipeline_cache, octahedral_closure):
    """The roots, parities and witnesses of the fan forests of torus_7's M
    and P, of the octahedral Q and of the cone C over projective_plane_6
    (whose forests hold witnesses), list for list: the order of joins and
    compressions fixes them, and ``orient`` and the link checks read them."""
    out, _ = pipeline_cache("torus_7", 0)
    rp2 = fixture("projective_plane_6")
    complexes = {"M": out.M, "P": out.P, "Q": octahedral_closure.Q.complex,
                 "C": cone_off(rp2, rp2, "w")}
    found = {}
    for name, k in FAN_FOREST_DIGESTS:
        parent, parity, witnesses = _fans(complexes[name], k)
        blob = json.dumps([parent, parity, list(witnesses.items())], separators=(",", ":"))
        found[name, k] = hashlib.sha256(blob.encode()).hexdigest()
    assert found == FAN_FOREST_DIGESTS


def test_odd_cycles_are_pinned():
    """``orient``'s odd cycle on the projective plane and on the cone over
    it, as the gallery forest's witness join finds it."""
    X = fixture("projective_plane_6")
    cycle = [("1", "3", "4"), ("1", "4", "5"), ("1", "2", "5"), ("2", "3", "5"),
             ("2", "3", "4"), ("1", "3", "4")]
    assert orient(X).odd_cycle == cycle
    assert orient(cone_off(X, X, "w")).odd_cycle == [t + ("w",) for t in cycle]


def test_link_of_edge_in_three_sphere_is_circle():
    X = fixture("boundary_delta4")
    lk = link_of(X, simplex("a", "b"))
    cls = classify_link(lk)
    assert cls.kind == "Circle" and cls.components == 1
