import functools
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plthick.complex_core import facets, simplex, simplex_key, validate_complex
from plthick.errors import (
    GeneralPositionError,
    RejectionBudgetError,
    ValidationError,
)
from plthick import geometry
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.geometry import (
    EMPTY_INTERSECTION,
    GeometricMap,
    PairIntersection,
    _bbox,
    _box_overlaps,
    affine_rank,
    format_rational,
    is_zero_vec,
    parse_rational,
    sample_general_position_map,
    simplex_pair_intersection,
    singular_set,
    solve_affine,
    vadd,
    vcross,
    vdot,
    vscale,
    vsub,
    verify_general_position,
)
from plthick.thicken3 import spine_collar

import embedded_collar
from embedded_collar import (
    _integer_points,
    _meeting_far_pair,
    _triangles_meet,
    choose_spine_barycenters,
    epsilon_neighborhood_embedding,
    point_in_simplex,
)

F = Fraction


def pt(*xs):
    return tuple(F(x) for x in xs)


# -- rational strings ---------------------------------------------------------

def test_rational_round_trip():
    for x in (F(1, 2), F(-3, 7), F(4), F(0), F(-5)):
        assert parse_rational(format_rational(x)) == x


def test_non_reduced_rational_rejected():
    with pytest.raises(ValidationError):
        parse_rational("2/4")
    with pytest.raises(ValidationError):
        parse_rational("3/1")


# -- general position ------------------------------------------------------------

def test_square_points_in_general_position():
    X = fixture("four_cycle")
    m = GeometricMap(domain=X, n=2, points={
        "a": pt(0, 0), "b": pt(1, 0), "c": pt(1, 1), "d": pt(0, 1)})
    assert verify_general_position(m) == (True, None)


def test_collinear_triple_detected():
    X = fixture("three_cycle")
    m = GeometricMap(domain=X, n=2, points={
        "a": pt(0, 0), "b": pt(1, 1), "c": pt(2, 2)})
    ok, witness = verify_general_position(m)
    assert not ok and set(witness) == {"a", "b", "c"}


def test_duplicate_points_detected():
    X = fixture("single_edge")
    m = GeometricMap(domain=X, n=3, points={"a": pt(0, 0, 0), "b": pt(0, 0, 0)})
    ok, witness = verify_general_position(m)
    assert not ok and witness == ("a", "b")
    # R^0 holds one point, so no map into it is ever checked.
    with pytest.raises(ValidationError):
        GeometricMap(domain=X, n=0, points={"a": (), "b": ()})


def test_general_position_decided_by_largest_subsets():
    # Oracle: injective on vertices and every subset of size <= n+1
    # independent.  Coordinates in {0, 1/2, 1} make both outcomes common.
    rng = random.Random(7)
    outcomes = Counter()
    for name in ("single_triangle", "boundary_delta3", "projective_plane_6"):
        X = fixture(name)
        for n in (1, 2, 3):
            for _ in range(40):
                m = GeometricMap(domain=X, n=n, points={
                    v: tuple(F(rng.randint(0, 2), 2) for _ in range(n)) for v in X.vertices})
                pts = list(m.points.values())
                expect = len(set(pts)) == len(pts) and all(
                    affine_rank(list(c)) == k - 1
                    for k in range(2, min(len(pts), n + 1) + 1)
                    for c in itertools.combinations(pts, k))
                assert verify_general_position(m)[0] == expect, (name, m.points)
                outcomes[expect] += 1
    assert outcomes[True] and outcomes[False]


def test_sampler_is_deterministic_and_general():
    X = fixture("boundary_delta3")
    m1 = sample_general_position_map(X, 3, seed=11)
    m2 = sample_general_position_map(X, 3, seed=11)
    assert m1.points == m2.points
    assert verify_general_position(m1) == (True, None)


def test_sampler_pigeonhole_failure():
    X = fixture("projective_plane_6")
    with pytest.raises(RejectionBudgetError):
        sample_general_position_map(X, 3, seed=1, denom_bound=1, max_attempts=20)


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _rank_by_minors(points):
    """Largest r with a nonzero r x r minor of the difference vectors."""
    diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    n = len(points[0])
    for r in range(min(len(diffs), n), 0, -1):
        for rows in itertools.combinations(diffs, r):
            for cols in itertools.combinations(range(n), r):
                if _det([[row[c] for c in cols] for row in rows]) != 0:
                    return r
    return 0


def test_affine_rank_matches_minors():
    rng = random.Random(20261018)
    ranks = []
    for _ in range(1500):
        n = rng.choice((2, 3))
        pts = [tuple(F(rng.randint(0, 2), rng.choice((1, 2))) for _ in range(n))
               for _ in range(rng.randint(1, 5))]
        ranks.append(affine_rank(pts))
        assert ranks[-1] == _rank_by_minors(pts), pts
    assert set(ranks) == {0, 1, 2, 3}
    assert affine_rank([]) == -1
    # Points of R^0 coincide: no rows, yet one unknown per difference.
    assert [affine_rank([()] * k) for k in (1, 2, 3)] == [0, 0, 0]


# -- pairwise intersections ---------------------------------------------------------

def clip_triangles(p, q):
    """Exact intersection of two triangles in R^3 by clipping the line of
    their planes against both: an independent route, the oracle for
    ``simplex_pair_intersection`` on triangle pairs and for
    ``_triangles_meet``.  It divides with ``/``, so it takes Fractions only."""
    assert all(type(x) is F for v in p + q for x in v)
    np_ = vcross(vsub(p[1], p[0]), vsub(p[2], p[0]))
    nq = vcross(vsub(q[1], q[0]), vsub(q[2], q[0]))
    if is_zero_vec(np_) or is_zero_vec(nq):
        raise GeneralPositionError("degenerate triangle")
    dp = [vdot(nq, vsub(x, q[0])) for x in p]
    if all(v > 0 for v in dp) or all(v < 0 for v in dp):
        return EMPTY_INTERSECTION
    direction = vcross(np_, nq)
    if is_zero_vec(direction):
        raise GeneralPositionError("coplanar triangle pair")
    # A point on the line: fix the coordinate with nonzero direction entry.
    k = next(i for i in range(3) if direction[i] != 0)
    idx = [i for i in range(3) if i != k]
    a11, a12 = np_[idx[0]], np_[idx[1]]
    a21, a22 = nq[idx[0]], nq[idx[1]]
    b1 = vdot(np_, p[0])
    b2 = vdot(nq, q[0])
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise GeneralPositionError("parallel plane degeneracy")
    origin = [F(0)] * 3
    origin[idx[0]] = (b1 * a22 - b2 * a12) / det
    origin[idx[1]] = (a11 * b2 - a21 * b1) / det
    origin = tuple(origin)

    def clip(tri, normal, lo, hi):
        for i in range(3):
            a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            inward = vcross(normal, vsub(b, a))
            side_c = vdot(inward, vsub(c, a))
            if side_c == 0:
                raise GeneralPositionError("degenerate triangle edge")
            if side_c < 0:
                inward = vscale(F(-1), inward)
            val0 = vdot(inward, vsub(origin, a))
            slope = vdot(inward, direction)
            if slope == 0:
                if val0 < 0:
                    return None
                continue
            bound = -val0 / slope
            if slope > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
            if lo is not None and hi is not None and lo > hi:
                return None
        return lo, hi

    window = clip(p, np_, None, None)
    if window is None:
        return EMPTY_INTERSECTION
    window = clip(q, nq, *window)
    if window is None:
        return EMPTY_INTERSECTION
    lo, hi = window
    if lo is None or hi is None:
        raise GeneralPositionError("unclipped intersection line")
    if lo > hi:
        return EMPTY_INTERSECTION
    a = vadd(origin, vscale(lo, direction))
    b = vadd(origin, vscale(hi, direction))
    if lo == hi:
        return PairIntersection(kind="point", points=(a,))
    return PairIntersection(kind="segment", points=(a, b))


def test_triangle_intersection_segment_case():
    p = [pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0)]
    q = [pt(1, 1, -1), pt(1, 1, 2), pt(3, 3, 1)]
    got = simplex_pair_intersection(p, q)
    oracle = clip_triangles(p, q)
    assert got.kind == "segment" == oracle.kind
    assert sorted(got.points) == sorted(oracle.points)


def test_triangle_intersection_disjoint():
    p = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)]
    q = [pt(0, 0, 5), pt(1, 0, 5), pt(0, 1, 6)]
    assert simplex_pair_intersection(p, q).kind == "empty"
    assert clip_triangles(p, q).kind == "empty"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=18, max_size=18),
       st.integers(min_value=2, max_value=5))
def test_triangle_intersection_matches_parameter_oracle(vals, denom):
    coords = [F(v, denom) for v in vals]
    p = [tuple(coords[0:3]), tuple(coords[3:6]), tuple(coords[6:9])]
    q = [tuple(coords[9:12]), tuple(coords[12:15]), tuple(coords[15:18])]
    try:
        got = simplex_pair_intersection(p, q)
    except GeneralPositionError:
        return  # degenerate inputs are out of contract
    try:
        oracle = clip_triangles(p, q)
    except GeneralPositionError:
        return
    assert got.kind == oracle.kind
    assert sorted(got.points) == sorted(oracle.points)


def test_point_on_segment():
    assert point_in_simplex(pt(1, 1, 1), [pt(0, 0, 0), pt(2, 2, 2)]) is not None
    assert point_in_simplex(pt(1, 1, 2), [pt(0, 0, 0), pt(2, 2, 2)]) is None
    assert point_in_simplex(pt(3, 3, 3), [pt(0, 0, 0), pt(2, 2, 2)]) is None


def test_kernels_keep_integer_input_exact():
    """Integer coordinates stay exact: a ``/`` on two ints would yield a
    float and miss these incidences."""
    got = simplex_pair_intersection([(-4, -1, -5), (1, 4, -1), (5, 2, -1)],
                                    [(3, 2, 0), (5, 2, -1), (3, -3, 1)])
    assert got == PairIntersection(kind="point", points=((5, 2, -1),))
    assert all(type(x) is F for x in got.points[0])
    assert point_in_simplex((1, 3, 7), [(0, 0, 0), (49, 147, 343)]) is not None


# -- singular sets --------------------------------------------------------------------

def test_two_disjoint_triangles_crossing_give_one_segment_record():
    X = validate_complex([["a", "b", "c"], ["x", "y", "z"]])
    m = GeometricMap(domain=X, n=3, points={
        "a": pt(0, 0, 0), "b": pt(4, 0, 0), "c": pt(0, 4, 0),
        "x": pt(1, 1, -1), "y": pt(F(5, 4), F(7, 6), 2), "z": pt(3, F(14, 5), 1),
    })
    assert verify_general_position(m) == (True, None)
    S = singular_set(m)
    assert len(S.records) == 1
    assert S.records[0].kind == "segment"


def test_triangles_sharing_edge_no_record():
    X = fixture("two_triangles_shared_edge")
    m = sample_general_position_map(X, 3, seed=3)
    S = singular_set(m)
    assert S.records == ()


@pytest.mark.parametrize("seed", range(6))
def test_general_position_into_r5_embeds(seed):
    X = fixture("projective_plane_6")
    m = sample_general_position_map(X, 5, seed=seed)
    S = singular_set(m)
    assert S.records == ()
    assert S.dim() == -1


@pytest.mark.parametrize("name", ["boundary_delta3", "projective_plane_6"])
def test_singular_records_in_r3_have_dim_at_most_one(name):
    X = fixture(name)
    m = sample_general_position_map(X, 3, seed=9)
    S = singular_set(m)
    assert S.dim() <= 1
    for r in S.records:
        assert r.dim <= len(r.simplex_i) + len(r.simplex_j) - 5


@pytest.mark.parametrize("n", [3, 5])
def test_pairs_meet_as_general_position_predicts(n):
    """Oracle for the pair logic of ``singular_set`` on twelve sampled maps
    per ambient dimension (seeds 0-11, two per thickening fixture).  Every
    pair of simplices with at most n+1 joint vertices meets exactly in its
    shared face, and a pair of maximal simplices is recorded, with sorted
    endpoints, exactly when the images meet outside that face.  Triangle
    pairs in R^3 are intersected by the clipping oracle."""
    for seed in range(12):
        X = fixture(THICKENING_FIXTURES[seed % len(THICKENING_FIXTURES)])
        m = sample_general_position_map(X, n, seed=seed)
        maximal = set(X.maximal_simplices)
        expected = {}
        simplices = sorted((s for s in X.simplices if len(s) > 1), key=simplex_key)
        for s1, s2 in itertools.combinations(simplices, 2):
            v1, v2 = set(s1), set(s2)
            near = len(v1 | v2) <= n + 1
            if v1 <= v2 or v2 <= v1 or not (near or {s1, s2} <= maximal):
                continue
            kernel = clip_triangles if n == 3 and len(s1) == len(s2) == 3 \
                else simplex_pair_intersection
            got = tuple(sorted(kernel(m.simplex_points(s1), m.simplex_points(s2)).points))
            face = tuple(sorted(m.points[v] for v in v1 & v2))
            if near:
                assert got == face, (s1, s2)
            elif got != face:
                expected[(s1, s2)] = got
        records = singular_set(m).records
        assert {(r.simplex_i, r.simplex_j): r.ambient for r in records} == expected
        assert all(r.ambient == tuple(sorted(r.ambient)) for r in records)


# -- spine embedding -------------------------------------------------------------------

def test_single_triangle_spine_embedding_trivial():
    X = fixture("single_triangle")
    m = sample_general_position_map(X, 3, seed=5)
    se = choose_spine_barycenters(m, seed=5)
    assert se.singular.records == ()
    assert len(se.spine.vertices) == 4
    assert all(a == 1 for a in se.attempts.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sphere_spine_embedding(seed):
    X = fixture("boundary_delta3")
    m = sample_general_position_map(X, 3, seed=seed)
    se = choose_spine_barycenters(m, seed=seed)
    assert len(se.spine.vertices) == 10
    assert len(se.spine.by_dim(1)) == 12


@pytest.mark.parametrize("seed", [0, 7])
def test_projective_plane_spine_embedding(seed):
    X = fixture("projective_plane_6")
    m = sample_general_position_map(X, 3, seed=seed)
    se = choose_spine_barycenters(m, seed=seed)
    assert len(se.spine.vertices) == 25
    assert len(se.spine.by_dim(1)) == 30


def test_barycenters_strictly_interior():
    X = fixture("boundary_delta3")
    m = sample_general_position_map(X, 3, seed=4)
    se = choose_spine_barycenters(m, seed=4)
    for s, w in se.weights.items():
        assert all(x > 0 for x in w.values())
        assert sum(w.values()) == 1


def test_adversarial_candidate_is_rejected_and_resampled():
    X = validate_complex([["a", "b", "c"], ["x", "y", "z"]])
    m = GeometricMap(domain=X, n=3, points={
        "a": pt(0, 0, 0), "b": pt(4, 0, 0), "c": pt(0, 4, 0),
        "x": pt(1, 1, -1), "y": pt(F(5, 4), F(7, 6), 2), "z": pt(3, F(14, 5), 1),
    })
    S = singular_set(m)
    (record,) = S.records
    # Place the first candidate barycenter of the edge carrying the record
    # segment right on the segment; the sampler must reject it and succeed
    # on a later attempt.
    seg_mid = tuple((u + v) / 2 for u, v in zip(*record.ambient))
    bad = {}

    def hook(rng, s):
        pts = m.simplex_points(s)
        if len(s) == 3 and s not in bad:
            bad[s] = True
            # First candidate: apex whose cone would pass through the
            # record; craft weights so f(apex) sits on the segment when
            # possible, otherwise fall back to a fixed degenerate-ish pick.
            sol = None
            try:
                sol = point_in_simplex(seg_mid, pts)
            except GeneralPositionError:
                sol = None
            if sol is not None and all(x > 0 for x in sol):
                return dict(zip(s, sol))
        return None

    se = choose_spine_barycenters(m, seed=2, candidate_hook=hook)
    crafted = [s for s, flag in bad.items()]
    assert crafted
    assert any(se.attempts[s] > 1 for s in crafted)


def test_touching_far_cells_resample_the_later_apex():
    """Far spine cells meeting at a record crossing are a meeting far pair;
    the apex of the later top is resampled until the spine check passes."""
    X = validate_complex([["a", "b", "c"], ["x", "y", "z"]])
    m = GeometricMap(domain=X, n=3, points={
        "a": pt(0, 0, 0), "b": pt(4, 0, 0), "c": pt(0, 4, 0),
        "x": pt(1, 1, -1), "y": pt(F(5, 4), F(7, 6), 2), "z": pt(3, F(14, 5), 1),
    })
    (record,) = singular_set(m).records
    first, later = sorted(X.by_dim(2))
    centroid = {v: F(1, 3) for v in first}

    def edge_weights(e):
        return dict(zip(e, (F(2, 5), F(3, 5))))

    def at(s, w):
        return geometry._combine(m.simplex_points(s), [w[v] for v in s])

    # With these edge barycenters and the first top's centroid, one leg of
    # the first top's spine crosses the record at q.
    apex1 = at(first, centroid)
    (q,) = [x for e in facets(first) for x in simplex_pair_intersection(
        [at(e, edge_weights(e)), apex1], record.ambient).points]
    # The later top's first apex lies on the line from one of its edge
    # barycenters through q, just beyond q, so that leg passes through q.
    wq = dict(zip(later, point_in_simplex(q, m.simplex_points(later))))
    t = F(11, 10)
    crafted = next(w for e in facets(later)
                   for w in [{v: (1 - t) * edge_weights(e).get(v, 0) + t * wq[v]
                              for v in later}]
                   if min(w.values()) > 0)
    crafted_apex = at(later, crafted)
    assert point_in_simplex(crafted_apex, record.ambient) is None
    calls = Counter()

    def hook(rng, s):
        calls[s] += 1
        if len(s) == 2:
            return edge_weights(s)
        if s == first:
            return centroid
        return crafted if calls[s] == 1 else None

    se = choose_spine_barycenters(m, seed=2, candidate_hook=hook)
    assert se.attempts[first] == 1
    assert se.attempts[later] > 1
    assert se.barycenters[later] != crafted_apex
    assert spine_meeting_pair(se) is None
    assert_spine_embedded(se)


@pytest.mark.parametrize("first,total", [(F(0), 1), (F(-1), 1), (F(1, 2), 2)])
def test_candidate_hook_weights_must_be_interior(first, total):
    """The embedding argument needs strictly interior barycenters: a hook
    weight <= 0, or weights not summing to 1, is rejected."""
    m = sample_general_position_map(fixture("single_triangle"), 3, seed=0)

    def hook(rng, s):
        rest = (total - first) / (len(s) - 1)
        return {v: first if i == 0 else rest for i, v in enumerate(s)}

    with pytest.raises(ValidationError, match="not interior"):
        choose_spine_barycenters(m, seed=0, candidate_hook=hook)


def spine_meeting_pair(se):
    """The spine check of ``choose_spine_barycenters`` on its result."""
    cells = GeometricMap(domain=se.spine, n=se.base.n,
                         points={v: se.spine_point(v) for v in se.spine.vertices})
    return _meeting_far_pair(cells, se.subdivision.carrier)


def assert_spine_embedded(se):
    """The exhaustive oracle for the spine certificate: every pair of
    maximal spine cells meets exactly in the image of their shared
    vertices, and distinct spine vertices have distinct images."""
    cells = se.spine.maximal_simplices
    for c1, c2 in itertools.combinations(cells, 2):
        shared = set(c1) & set(c2)
        inter = simplex_pair_intersection(se.cell_points(c1), se.cell_points(c2))
        assert sorted(inter.points) == sorted(se.spine_point(v) for v in shared), (c1, c2)
    images = [se.spine_point(v) for v in se.spine.vertices]
    assert len(set(images)) == len(images)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_spine_embedding_matches_pairwise_oracle(embedded_collar_cache, name, seed):
    assert_spine_embedded(embedded_collar_cache(name, seed))


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_embedded_collar_is_the_combinatorial_collar(embedded_collar_cache, name):
    """The spine and collar that ``thicken`` builds from X alone are the
    complexes the sampled map embeds in R^3."""
    se = embedded_collar_cache(name, 0)
    c = spine_collar(fixture(name))
    assert se.subdivision.carrier == c.B.carrier
    assert se.spine.simplices == c.K.simplices
    assert se.nbhd_sub.carrier == c.nbhd_sub.carrier
    assert se.nbhd.domain.simplices == c.N.simplices
    assert se.frontier.simplices == c.frontier.simplices


@pytest.mark.parametrize("name,seed", [
    ("single_triangle", 0),
    ("two_triangles_shared_edge", 1),
    ("two_triangles_shared_vertex", 2),
    ("boundary_delta3", 0),
])
def test_epsilon_neighborhood_certified(name, seed):
    X = fixture(name)
    m = sample_general_position_map(X, 3, seed=seed)
    se = choose_spine_barycenters(m, seed=seed)
    se = epsilon_neighborhood_embedding(se)
    assert se.epsilon is not None and se.epsilon > 0
    assert se.nbhd is not None
    # The frontier decomposes into one piece per original vertex.
    comps = se.frontier.connected_components()
    assert len(comps) >= len(X.vertices) if name == "two_triangles_shared_vertex" \
        else len(comps) == len(X.vertices)


def collar_points_sha256(points):
    """sha256 of the lines "label x y z", in label order, of a collar's
    exact vertex positions."""
    text = "".join("%s %s\n" % (v, " ".join(format_rational(x) for x in p))
                   for v, p in sorted(points.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def collar_at(se, epsilon):
    """The collar map of ``epsilon_neighborhood_embedding`` at the given
    epsilon, and the carriers in X of its maximal simplices."""
    kverts = set(se.spine.vertices)
    points = {}
    for v in se.nbhd.domain.vertices:
        if v in kverts:
            points[v] = se.spine_point(v)
            continue
        tau = se.nbhd_sub.carrier_of_label(v)
        ka = [se.spine_point(u) for u in tau if u in kverts]
        oa = [se.spine_point(u) for u in tau if u not in kverts]
        points[v] = vadd(vscale((1 - epsilon) / len(ka), functools.reduce(vadd, ka)),
                         vscale(epsilon / len(oa), functools.reduce(vadd, oa)))
    carriers = {s: se.subdivision.carrier[se.nbhd_sub.carrier[s]]
                for s in se.nbhd.domain.maximal_simplices}
    return GeometricMap(domain=se.nbhd.domain, n=se.base.n, points=points), carriers


def test_collar_vertices_sit_at_weight_epsilon(embedded_collar_cache):
    """No canonical artifact records the collar's coordinates, and the
    topology of P does not depend on them, so they are pinned here: each
    new vertex, the barycenter of a simplex tau of sd X meeting the spine,
    sits at weight epsilon towards the mean of tau's non-spine vertices.
    The digest was taken on two_triangles_shared_vertex at seed 0, where
    epsilon is 1/4."""
    se = embedded_collar_cache("two_triangles_shared_vertex", 0)
    assert se.epsilon == F(1, 4)
    assert set(se.nbhd.points) > set(se.spine.vertices)
    assert collar_at(se, se.epsilon)[0].points == se.nbhd.points
    assert collar_points_sha256(se.nbhd.points) == (
        "481a9c14769a2804ed3212ba4452b696c1a7eb74f784db6ad787a22f7c1f580d")


def test_epsilon_neighborhood_counts_for_sphere():
    X = fixture("boundary_delta3")
    m = sample_general_position_map(X, 3, seed=1)
    se = epsilon_neighborhood_embedding(choose_spine_barycenters(m, seed=1))
    # 4 frontier circles, one per original vertex.
    comps = se.frontier.connected_components()
    assert len(comps) == 4
    # 3 collar triangles per flag (vertex, edge, triangle) of the sphere.
    assert len(se.nbhd.domain.by_dim(2)) == 72


# Thickening inputs with far spine cells: tops that share at most one vertex.
DELTA_CASES = [("two_triangles_shared_vertex", 0), ("two_triangles_shared_vertex", 3),
               ("projective_plane_6", 0), ("two_triangles_shared_vertex", 7),
               ("projective_plane_6", 1)]

EPSILON_CASES = sorted(set(DELTA_CASES) | {(name, seed) for name in THICKENING_FIXTURES
                                           for seed in range(5)})


@pytest.mark.parametrize("name,seed", EPSILON_CASES)
def test_epsilon_is_the_first_passing_square_power(embedded_collar_cache, name, seed):
    """Epsilon is one of 2^-2, 2^-4, 2^-8, ...; the collar check passes at
    epsilon and finds a meeting far pair at its square root, the epsilon
    tried before, unless epsilon is 1/4; and the spine check passes."""
    se = embedded_collar_cache(name, seed)
    eps = se.epsilon
    k = eps.denominator.bit_length() - 1
    assert eps.numerator == 1 and eps.denominator == 1 << k and k >= 2 and k & (k - 1) == 0
    nbhd, carriers = collar_at(se, eps)
    assert nbhd.points == se.nbhd.points
    assert _meeting_far_pair(nbhd, carriers) is None
    if eps < F(1, 4):
        assert _meeting_far_pair(collar_at(se, F(1, 1 << (k // 2)))[0], carriers) is not None
    assert spine_meeting_pair(se) is None


@pytest.mark.parametrize("name,seed", DELTA_CASES)
def test_collar_coordinates_stay_short(embedded_collar_cache, name, seed):
    se = embedded_collar_cache(name, seed)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for p in se.nbhd.points.values() for x in p)
    assert bits <= 64


def test_determinism_of_embedding():
    X = fixture("boundary_delta3")
    a = epsilon_neighborhood_embedding(
        choose_spine_barycenters(sample_general_position_map(X, 3, seed=6), seed=6))
    b = epsilon_neighborhood_embedding(
        choose_spine_barycenters(sample_general_position_map(X, 3, seed=6), seed=6))
    assert a.barycenters == b.barycenters
    assert a.epsilon == b.epsilon
    assert a.nbhd.points == b.nbhd.points


def test_spine_embedding_rejects_wrong_codomain():
    X = fixture("single_triangle")
    m = sample_general_position_map(X, 5, seed=0)
    with pytest.raises(ValidationError):
        choose_spine_barycenters(m, seed=0)


# -- integer kernels against their Fraction oracles --------------------------------------

def fraction_solve_affine(rows, rhs, n):
    """Gauss-Jordan elimination over Fractions: the oracle for the
    fraction-free ``solve_affine``."""
    m = len(rows)
    a = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [v / pv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(a[i][n] != 0 for i in range(r, m)):
        return None
    particular = [F(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = a[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[fc] = F(1)
        for i, c in enumerate(pivots):
            vec[c] = -a[i][fc]
        basis.append(tuple(vec))
    return tuple(particular), basis


def assert_solves_like_oracle(rows, rhs, n):
    got = solve_affine(rows, rhs, n)
    assert got == fraction_solve_affine(rows, rhs, n)
    if got is not None:
        particular, basis = got
        assert all(type(x) is F for vec in (particular, *basis) for x in vec)
    return got


def random_system(rng):
    """A small system with rational entries: rows are often combinations of
    a few base rows (rank-deficient, possibly zero), wide or tall."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    base = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(rng.randint(0, min(m, n)))]
    rows = []
    for _ in range(m):
        if base and rng.random() < 0.7:
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(k * b[c] for k, b in zip(coeffs, base)) for c in range(n)])
        else:
            rows.append([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
    rhs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
    if rng.random() < 0.3:
        # Consistent by construction: the right-hand side of a known point.
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    return rows, rhs


def test_solve_affine_matches_fraction_oracle_on_random_systems():
    rng = random.Random(1401)
    seen = Counter()
    for _ in range(2000):
        rows, rhs = random_system(rng)
        m, n = len(rows), len(rows[0])
        got = assert_solves_like_oracle(rows, rhs, n)
        seen["inconsistent" if got is None else "consistent"] += 1
        seen["rank-deficient"] += got is not None and len(got[1]) > max(0, n - m)
        seen["zero row"] += any(all(v == 0 for v in row) for row in rows)
        seen["wide" if n > m else "tall" if m > n else "square"] += 1
    assert min(seen.values()) >= 100, seen


def test_solve_affine_edge_cases_match_fraction_oracle():
    for rows, rhs, n in [([], [], 0), ([], [], 2), ([[0, 0]], [0], 2), ([[0, 0]], [1], 2),
                         ([[2, 4], [1, 2]], [6, 3], 2), ([[2, 4], [1, 2]], [6, 4], 2),
                         ([[F(1, 3)]], [F(2, 7)], 1),
                         ([[0, 1, 0], [0, 0, 0], [0, 2, 0]], [5, 0, 10], 3)]:
        assert_solves_like_oracle(rows, rhs, n)
    assert solve_affine([], [], 2) == ((F(0), F(0)), [(F(1), F(0)), (F(0), F(1))])


@pytest.mark.parametrize("name", ["projective_plane_6", "torus_7"])
def test_solve_affine_matches_fraction_oracle_on_thickening_calls(monkeypatch, name):
    """Every system the sampler and ``singular_set`` solve on a map of a
    thickening fixture into R^3, recorded and solved again against the
    oracle."""
    calls = []

    def recording(rows, rhs, n):
        calls.append((rows, rhs, n))
        return solve_affine(rows, rhs, n)

    monkeypatch.setattr(geometry, "solve_affine", recording)
    m = sample_general_position_map(fixture(name), 3, seed=0)
    assert singular_set(m).records
    # Both kinds of system: the rank of 4 points (3 unknowns) and the
    # barycentric parameters of a simplex pair (5 or 6 unknowns).
    assert {n for _, _, n in calls} == {3, 5, 6}
    for rows, rhs, n in calls:
        assert_solves_like_oracle(rows, rhs, n)


def outcome(fn, *args):
    """A predicate's value, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the type of any failure is part of the outcome
        return type(exc)


def as_fractions(tri):
    return [tuple(F(x) for x in p) for p in tri]


def triangles_meet_oracle(p, q):
    return clip_triangles(as_fractions(p), as_fractions(q)).kind != "empty"


def random_triangle_pair(rng, mode):
    """Small-integer triangles; ``mode`` forces a shared vertex, a shared
    edge, a common plane or a plane one step away."""
    k = rng.choice([1, 2, 3, 5])

    def point():
        return tuple(rng.randint(-k, k) for _ in range(3))

    p = [point() for _ in range(3)]
    q = [point() for _ in range(3)]
    if mode == "vertex":
        q[0] = rng.choice(p)
    elif mode == "edge":
        q[0], q[1] = rng.sample(p, 2)
    elif mode in ("coplanar", "parallel"):
        z = p[0][2]
        p = [(x, y, z) for x, y, _ in p]
        q = [(x, y, z + (mode == "parallel")) for x, y, _ in q]
    rng.shuffle(q)
    return p, q


def test_triangles_meet_matches_intersection_on_random_pairs():
    rng = random.Random(1402)
    seen = Counter()
    for t in range(3000):
        mode = ("free", "vertex", "edge", "coplanar", "parallel")[t % 5]
        p, q = random_triangle_pair(rng, mode)
        expected = outcome(triangles_meet_oracle, p, q)
        assert outcome(_triangles_meet, p, q) == expected, (p, q)
        seen[mode, expected] += 1
    assert seen["free", True] and seen["free", False] and seen["vertex", True]
    assert seen["edge", True] and seen["parallel", False]
    assert seen["free", GeneralPositionError] and seen["coplanar", GeneralPositionError]


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_triangles_meet_matches_intersection_on_collar_pairs(embedded_collar_cache, name):
    """Every collar triangle pair whose boxes meet, near carriers included,
    on the integer points the collar check uses."""
    nbhd = embedded_collar_cache(name, 0).nbhd
    maximal = nbhd.domain.maximal_simplices
    assert all(len(s) == 3 for s in maximal)
    ipoints = _integer_points(nbhd.points)
    pts = [[ipoints[v] for v in s] for s in maximal]
    pairs = _box_overlaps([_bbox(p) for p in pts])
    assert pairs
    for i, j in pairs:
        expected = outcome(triangles_meet_oracle, pts[i], pts[j])
        assert outcome(_triangles_meet, pts[i], pts[j]) == expected


def all_pairs_overlaps(boxes):
    return [(i, j) for i, j in itertools.combinations(range(len(boxes)), 2)
            if all(a <= d and c <= b for a, b, c, d in zip(*boxes[i], *boxes[j]))]


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_sweep_visits_exactly_the_overlapping_boxes(dim):
    rng = random.Random(1403 + dim)
    for _ in range(50):
        boxes = []
        for _ in range(rng.randint(0, 30)):
            a = [rng.randint(0, 8) for _ in range(dim)]
            b = [rng.randint(0, 8) for _ in range(dim)]
            boxes.append((tuple(map(min, a, b)), tuple(map(max, a, b))))
        assert _box_overlaps(boxes) == all_pairs_overlaps(boxes)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_sweep_visits_exactly_the_overlapping_collar_boxes(embedded_collar_cache, name):
    nbhd = embedded_collar_cache(name, 0).nbhd
    boxes = [_bbox(nbhd.simplex_points(s)) for s in nbhd.domain.maximal_simplices]
    assert _box_overlaps(boxes) == all_pairs_overlaps(boxes)


# -- the collar check fires ----------------------------------------------------------------

def two_triangle_collar(p, q):
    """Collar triangles abc and def with far carriers: disjoint triangles of
    the domain, so their images must be disjoint."""
    N = validate_complex([["a", "b", "c"], ["d", "e", "f"]])
    points = dict(zip("abcdef", as_fractions(p) + as_fractions(q)))
    far = {"a": simplex("x0", "x1", "x2"), "d": simplex("y0", "y1", "y2")}
    carriers = {s: far[s[0]] for s in N.maximal_simplices}
    return GeometricMap(domain=N, n=3, points=points), carriers


P_TRI = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]


def test_collar_check_rejects_crossing_far_triangles():
    nbhd, carriers = two_triangle_collar(P_TRI, [(1, 1, -1), (1, 1, 2), (3, 3, 1)])
    assert _meeting_far_pair(nbhd, carriers) == (("a", "b", "c"), ("d", "e", "f"))


def test_collar_check_rejects_touching_far_triangles():
    # q touches p in the single point (2, 2, 0) on p's edge.
    nbhd, carriers = two_triangle_collar(P_TRI, [(2, 2, 0), (3, 3, 1), (3, 2, 2)])
    assert _meeting_far_pair(nbhd, carriers) == (("a", "b", "c"), ("d", "e", "f"))


def test_collar_check_rejects_coplanar_far_triangles():
    # Disjoint but coplanar, with meeting boxes.
    nbhd, carriers = two_triangle_collar(P_TRI, [(3, 3, 0), (5, 3, 0), (3, 5, 0)])
    with pytest.raises(GeneralPositionError):
        _meeting_far_pair(nbhd, carriers)


def segment_triangle_collar(segment):
    """Collar triangle abc and collar segment de with far carriers."""
    N = validate_complex([["a", "b", "c"], ["d", "e"]])
    points = dict(zip("abcde", as_fractions(P_TRI) + as_fractions(segment)))
    far = {"a": simplex("x0", "x1", "x2"), "d": simplex("y0", "y1", "y2")}
    carriers = {s: far[s[0]] for s in N.maximal_simplices}
    return GeometricMap(domain=N, n=3, points=points), carriers


def test_collar_check_decides_a_segment_pair_by_exact_intersection():
    # Both segments have boxes meeting the triangle's; one pierces it at
    # (1, 1, 0), the other passes (3, 3, 0), outside it.
    nbhd, carriers = segment_triangle_collar([(1, 1, -1), (1, 1, 1)])
    assert _meeting_far_pair(nbhd, carriers) == (("d", "e"), ("a", "b", "c"))
    nbhd, carriers = segment_triangle_collar([(3, 3, -1), (3, 3, 1)])
    assert _meeting_far_pair(nbhd, carriers) is None


def test_three_dimensional_collar_reaches_the_general_pair_test(monkeypatch):
    """Two tetrahedra sharing a vertex, mapped to R^5: their far collar
    pairs are tetrahedra, which the pure 2-dimensional thickening never
    produces, and they are decided by the parameter-space intersection."""
    X = validate_complex([["a", "b", "c", "d"], ["a", "e", "f", "g"]])
    se = choose_spine_barycenters(sample_general_position_map(X, 5, seed=0), seed=0)
    dims = Counter()

    def recording(pts1, pts2):
        dims[len(pts1) - 1, len(pts2) - 1] += 1
        return simplex_pair_intersection(pts1, pts2)

    monkeypatch.setattr(embedded_collar, "simplex_pair_intersection", recording)
    epsilon_neighborhood_embedding(se)
    assert set(dims) == {(3, 3)}


def test_collar_check_accepts_skew_triangles_separated_by_an_edge_axis():
    # Boxes meet and neither normal separates the pair; an edge-edge cross
    # product does.
    p, q = [(0, 3, 1), (3, 1, 0), (2, 2, 4)], [(2, 0, 3), (0, 4, 3), (0, 2, 4)]
    assert triangles_meet_oracle(p, q) is False
    nbhd, carriers = two_triangle_collar(p, q)
    assert _meeting_far_pair(nbhd, carriers) is None
