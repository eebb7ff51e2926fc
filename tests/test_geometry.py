import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plthick.complex_core import simplex, validate_complex
from plthick.errors import (
    ConstructionError,
    GeneralPositionError,
    RejectionBudgetError,
    ValidationError,
)
from plthick.fixtures import THICKENING_FIXTURES, fixture
from plthick.geometry import (
    GeometricMap,
    affine_rank,
    choose_spine_barycenters,
    dyadic_floor_sqrt,
    epsilon_neighborhood_embedding,
    format_rational,
    parse_rational,
    point_on_segment,
    sample_general_position_map,
    simplex_pair_intersection,
    simplex_pair_sqdist,
    singular_set,
    triangle_triangle_intersection,
    verify_general_position,
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


def is_dyadic_at_most_quarter(r):
    return r.numerator == 1 and r.denominator >= 4 and r.denominator & (r.denominator - 1) == 0


def test_dyadic_floor_sqrt_is_largest_power_of_two_below():
    for x in (F(2), F(9), F(1, 4), F(7, 3), F(1, 16), F(1, 17), F(1, 64), F(3, 10 ** 9)):
        r = dyadic_floor_sqrt(x)
        assert is_dyadic_at_most_quarter(r)
        assert r * r <= x
        assert r == F(1, 4) or (2 * r) ** 2 > x
    assert dyadic_floor_sqrt(F(1, 64)) == F(1, 8)
    for x in (F(0), F(-1, 3)):
        with pytest.raises(ValidationError):
            dyadic_floor_sqrt(x)


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
    assert not ok


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


# -- pairwise intersections ---------------------------------------------------------

def tri_pair_oracle(p, q):
    """Independent route: barycentric parameter-space solve."""
    return simplex_pair_intersection(p, q)


def test_triangle_intersection_segment_case():
    p = [pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0)]
    q = [pt(1, 1, -1), pt(1, 1, 2), pt(3, 3, 1)]
    got = triangle_triangle_intersection(p, q)
    oracle = tri_pair_oracle(p, q)
    assert got.kind == "segment" == oracle.kind
    assert sorted(got.points) == sorted(oracle.points)


def test_triangle_intersection_disjoint():
    p = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)]
    q = [pt(0, 0, 5), pt(1, 0, 5), pt(0, 1, 6)]
    assert triangle_triangle_intersection(p, q).kind == "empty"
    assert tri_pair_oracle(p, q).kind == "empty"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=18, max_size=18),
       st.integers(min_value=2, max_value=5))
def test_triangle_intersection_matches_parameter_oracle(vals, denom):
    coords = [F(v, denom) for v in vals]
    p = [tuple(coords[0:3]), tuple(coords[3:6]), tuple(coords[6:9])]
    q = [tuple(coords[9:12]), tuple(coords[12:15]), tuple(coords[15:18])]
    try:
        got = triangle_triangle_intersection(p, q)
    except GeneralPositionError:
        return  # degenerate inputs are out of contract
    try:
        oracle = tri_pair_oracle(p, q)
    except GeneralPositionError:
        return
    assert got.kind == oracle.kind
    assert sorted(got.points) == sorted(oracle.points)


def test_point_on_segment():
    assert point_on_segment(pt(1, 1, 1), pt(0, 0, 0), pt(2, 2, 2))
    assert not point_on_segment(pt(1, 1, 2), pt(0, 0, 0), pt(2, 2, 2))
    assert not point_on_segment(pt(3, 3, 3), pt(0, 0, 0), pt(2, 2, 2))


def test_segment_distance_cases():
    # parallel
    assert simplex_pair_sqdist([pt(0, 0, 0), pt(1, 0, 0)],
                               [pt(0, 1, 0), pt(1, 1, 0)]) == 1
    # crossing closest at interior points
    assert simplex_pair_sqdist([pt(0, 0, 0), pt(2, 0, 0)],
                               [pt(1, -1, 1), pt(1, 1, 1)]) == 1
    # endpoint to endpoint
    assert simplex_pair_sqdist([pt(0, 0, 0), pt(1, 0, 0)],
                               [pt(3, 0, 0), pt(4, 0, 0)]) == 4


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
        assert r.dim <= r.simplex_i.dim + r.simplex_j.dim - 3


@pytest.mark.parametrize("n", [3, 5])
def test_pairs_meet_as_general_position_predicts(n):
    """Oracle for the pair logic of ``singular_set`` on twelve sampled maps
    per ambient dimension (seeds 0-11, two per thickening fixture).  Every
    pair of simplices with at most n+1 joint vertices meets exactly in its
    shared face, and a pair of maximal simplices is recorded exactly when
    the images meet outside that face."""
    for seed in range(12):
        X = fixture(THICKENING_FIXTURES[seed % len(THICKENING_FIXTURES)])
        m = sample_general_position_map(X, n, seed=seed)
        maximal = set(X.maximal_simplices)
        expected = {}
        for s1, s2 in itertools.combinations(sorted(s for s in X.simplices if s.dim >= 1), 2):
            v1, v2 = set(s1.vertices), set(s2.vertices)
            near = len(v1 | v2) <= n + 1
            if v1 <= v2 or v2 <= v1 or not (near or {s1, s2} <= maximal):
                continue
            inter = simplex_pair_intersection(m.simplex_points(s1), m.simplex_points(s2))
            got = tuple(sorted(inter.points))
            face = tuple(sorted(m.points[v] for v in v1 & v2))
            if near:
                assert got == face, (s1, s2)
            elif got != face:
                expected[(s1, s2)] = got
        records = singular_set(m).records
        assert {(r.simplex_i, r.simplex_j): tuple(sorted(r.ambient))
                for r in records} == expected


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
        if s.dim == 2 and s not in bad:
            bad[s] = True
            # First candidate: apex whose cone would pass through the
            # record; craft weights so f(apex) sits on the segment when
            # possible, otherwise fall back to a fixed degenerate-ish pick.
            sol = None
            try:
                from plthick.geometry import point_in_simplex
                sol = point_in_simplex(seg_mid, pts)
            except GeneralPositionError:
                sol = None
            if sol is not None and all(x > 0 for x in sol):
                return dict(zip(s.vertices, sol))
        return None

    se = choose_spine_barycenters(m, seed=2, candidate_hook=hook)
    crafted = [s for s, flag in bad.items()]
    assert crafted
    assert any(se.attempts[s] > 1 for s in crafted)


@pytest.mark.parametrize("first,total", [(F(0), 1), (F(-1), 1), (F(1, 2), 2)])
def test_candidate_hook_weights_must_be_interior(first, total):
    """The embedding argument needs strictly interior barycenters: a hook
    weight <= 0, or weights not summing to 1, is rejected."""
    m = sample_general_position_map(fixture("single_triangle"), 3, seed=0)

    def hook(rng, s):
        rest = (total - first) / (len(s) - 1)
        return {v: first if i == 0 else rest for i, v in enumerate(s.vertices)}

    with pytest.raises(ValidationError, match="not interior"):
        choose_spine_barycenters(m, seed=0, candidate_hook=hook)


def assert_spine_embedded(se):
    """The exhaustive oracle for the delta certificate: every pair of
    maximal spine cells meets exactly in the image of their shared
    vertices, and distinct spine vertices have distinct images."""
    cells = se.spine.maximal_simplices
    for c1, c2 in itertools.combinations(cells, 2):
        shared = set(c1.vertices) & set(c2.vertices)
        inter = simplex_pair_intersection(se.cell_points(c1), se.cell_points(c2))
        assert sorted(inter.points) == sorted(se.spine_point(v) for v in shared), (c1, c2)
    images = [se.spine_point(v) for v in se.spine.vertices]
    assert len(set(images)) == len(images)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_spine_embedding_matches_pairwise_oracle(pipeline_cache, name, seed):
    assert_spine_embedded(pipeline_cache(name, seed)[0].spine_embedding)


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


def test_epsilon_neighborhood_counts_for_sphere():
    X = fixture("boundary_delta3")
    m = sample_general_position_map(X, 3, seed=1)
    se = epsilon_neighborhood_embedding(choose_spine_barycenters(m, seed=1))
    # 4 frontier circles, one per original vertex.
    comps = se.frontier.connected_components()
    assert len(comps) == 4
    # 3 collar triangles per flag (vertex, edge, triangle) of the sphere.
    assert len(se.nbhd.complex.by_dim(2)) == 72


def brute_force_delta_sq(se):
    """Least squared distance over every spine-cell pair carried by two
    top simplices that share at most one vertex, with no pruning."""
    tops = sorted(se.base.domain.maximal_simplices)
    vals = [simplex_pair_sqdist(se.cell_points(c1), se.cell_points(c2))
            for s1, s2 in itertools.combinations(tops, 2)
            if len(set(s1.vertices) & set(s2.vertices)) <= 1
            for c1 in se.spine_cells_in(s1)
            for c2 in se.spine_cells_in(s2)]
    return min(vals, default=None)


def lipschitz_sq(m):
    out = F(0)
    for s in m.domain.maximal_simplices:
        pts = m.simplex_points(s)
        out = max(out, sum(sum((a - b) ** 2 for a, b in zip(p, pts[0])) for p in pts[1:]))
    return out


# Thickening inputs on which delta exists.  On the last two the closest
# pair is not the one with the closest boxes, so a search that stops too
# early misses it.
DELTA_CASES = [("two_triangles_shared_vertex", 0), ("two_triangles_shared_vertex", 3),
               ("projective_plane_6", 0), ("two_triangles_shared_vertex", 7),
               ("projective_plane_6", 1)]


@pytest.mark.parametrize("name,seed", DELTA_CASES)
def test_delta_is_exact_and_epsilon_is_largest_dyadic(pipeline_cache, name, seed):
    se = pipeline_cache(name, seed)[0].spine_embedding
    delta_sq = brute_force_delta_sq(se)
    assert delta_sq is not None and delta_sq > 0
    assert se.delta_sq == delta_sq
    eps = se.epsilon
    assert is_dyadic_at_most_quarter(eps)
    bound = 16 * lipschitz_sq(se.base)
    assert bound * eps ** 2 <= delta_sq
    assert eps == F(1, 4) or bound * (2 * eps) ** 2 > delta_sq


@pytest.mark.parametrize("name,seed", DELTA_CASES)
def test_collar_coordinates_stay_short(pipeline_cache, name, seed):
    se = pipeline_cache(name, seed)[0].spine_embedding
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
