import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from plthick.complex_core import (
    _pair_off,
    barycentric_subdivision,
    boundary_and_free_faces,
    complex_from_maximal,
    cone_off,
    facets,
)
from plthick.errors import ConstructionError
from plthick.fixtures import FIXTURE_NAMES, THICKENING_FIXTURES, fixture
from plthick.homology import (
    ChainComplex,
    HomologyResult,
    _snf_diagonal_sparse,
    boundary_matrices,
    coreduce,
    homology_groups,
    smith_normal_form,
)
from plthick.pseudomanifold import check_pseudomanifold
from conftest import moore_space
from test_complex_core import small_complexes
from test_pseudomanifold import _random_three_pseudomanifold


def snf_oracle(matrix):
    """Naive Smith normal form by full-matrix reduction, for cross-checks."""
    m = [list(row) for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag = []
    t = 0
    while t < min(nr, nc):
        # find smallest nonzero entry
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(best[0])):
                    best = (m[i][j], i, j)
        if best is None:
            break
        _, bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(nr):
                if i != t and m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(nc):
                if j != t and m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                off = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if m[i][j] % m[t][t]:
                            off = i
                            break
                    if off is not None:
                        break
                if off is not None:
                    m[t] = [a + b for a, b in zip(m[t], m[off])]
                    dirty = True
        diag.append(abs(m[t][t]))
        t += 1
    return [d for d in diag if d]


def test_snf_reference_example():
    diag, rank = smith_normal_form([[2, 4], [6, 8]])
    assert diag == snf_oracle([[2, 4], [6, 8]]) == [2, 4]
    assert rank == 2


def test_snf_identity():
    diag, rank = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == [1, 1, 1] and rank == 3


def test_snf_zero_matrix():
    diag, rank = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [] and rank == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_matches_oracle(rows):
    diag, rank = smith_normal_form(rows)
    assert diag == snf_oracle(rows)
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0
    # product of diagonal = gcd of maximal minors; spot-check rank only
    assert rank == len(diag)


def test_boundary_matrix_of_cycle_has_rank_two():
    cc = boundary_matrices(fixture("three_cycle"))
    diag, rank = smith_normal_form(_dense(cc, 1))
    assert rank == 2


def _dense(cc, k):
    nrows = cc.rank(k - 1)
    cols = cc.matrices[k]
    out = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r][j] = v
    return out


def test_relative_chain_complex_of_disc():
    X = fixture("single_triangle")
    _, boundary = boundary_and_free_faces(X)
    cc = boundary_matrices(X, rel=boundary)
    assert cc.rank(2) == 1 and cc.rank(1) == 0 and cc.rank(0) == 0
    assert cc.matrices[2][0] == {}


def boundary_squared(cc):
    """The nonzero entries (k, column, row) of ∂_{k-1} ∂_k, computed from the
    sparse columns: the oracle of ∂∂ = 0, which ``boundary_matrices`` has by
    construction."""
    bad = []
    for k in range(2, max(cc.matrices, default=1) + 1):
        lower = cc.matrices[k - 1]
        for j, col in enumerate(cc.matrices[k]):
            acc = {}
            for row, coeff in col.items():
                for row2, coeff2 in lower[row].items():
                    acc[row2] = acc.get(row2, 0) + coeff * coeff2
            bad.extend((k, j, r) for r, v in acc.items() if v)
    return bad


def test_boundary_squared_zero_checked_on_build():
    cc = boundary_matrices(fixture("boundary_delta3"))
    assert boundary_squared(cc) == []
    # The oracle sees a single flipped sign.
    cc.matrices[2][0] = {r: -v if r == min(cc.matrices[2][0]) else v
                         for r, v in cc.matrices[2][0].items()}
    assert boundary_squared(cc) != []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_boundary_squared_zero_on_every_fixture(name):
    """Absolute chains, chains relative to the boundary (the closure of the
    free faces), and chains relative to the closed star of the first
    vertex."""
    X = fixture(name)
    _, boundary = boundary_and_free_faces(X)
    star = complex_from_maximal(X.incident(X.vertices[0]))
    for rel in (None, boundary, star):
        assert boundary_squared(boundary_matrices(X, rel=rel)) == [], rel


def test_homology_of_sphere():
    H = homology_groups(fixture("boundary_delta3"))
    assert H.betti == (1, 0, 1)
    assert all(not t for t in H.torsion)


def test_homology_of_projective_plane():
    H = homology_groups(fixture("projective_plane_6"))
    assert H.betti == (1, 0, 0)
    assert H.torsion[1] == (2,)


def test_homology_of_torus():
    H = homology_groups(fixture("torus_7"))
    assert H.betti == (1, 2, 1)
    assert all(not t for t in H.torsion)


def test_homology_of_pinched_spheres():
    H = homology_groups(fixture("pinched_spheres"))
    assert H.betti == (1, 0, 2)


def test_relative_homology_of_disc():
    X = fixture("single_triangle")
    _, boundary = boundary_and_free_faces(X)
    H = homology_groups(X, rel=boundary)
    assert H.betti[2] == 1


def test_homology_of_cone_is_trivial():
    X = fixture("projective_plane_6")
    cone = cone_off(X, X, "w")
    H = homology_groups(cone)
    assert H.betti == (1, 0, 0, 0)
    assert all(not t for t in H.torsion)


@pytest.mark.parametrize("name", ["single_triangle", "three_cycle",
                                  "boundary_delta3", "projective_plane_6",
                                  "torus_7", "pinched_spheres",
                                  "two_triangles_shared_vertex", "book_of_three"])
def test_subdivision_preserves_homology(name):
    X = fixture(name)
    B = barycentric_subdivision(X)
    assert homology_groups(B.child) == homology_groups(X)


@pytest.mark.parametrize("name", ["single_triangle", "boundary_delta3",
                                  "projective_plane_6", "torus_7"])
def test_euler_characteristic_consistency(name):
    X = fixture(name)
    H = homology_groups(X)
    assert H.euler() == X.euler_characteristic()


# -- cleared top-down reduction against the per-dimension one ---------------------------


def homology_oracle(X, rel=None):
    """The former per-dimension reduction: every boundary map on its own,
    bottom-up, with no column cleared."""
    if X.dim < 0:
        return HomologyResult(betti=(), torsion=())
    cc = boundary_matrices(X, rel=rel)
    top = X.dim
    snf = {k: _snf_diagonal_sparse([dict(col) for col in cc.matrices.get(k, [])])[0]
           for k in range(1, top + 1)}
    ranks = {k: len(snf.get(k, [])) for k in range(0, top + 2)}
    betti = []
    torsion = []
    for k in range(top + 1):
        b = cc.rank(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        tor = tuple(d for d in snf.get(k + 1, []) if d > 1)
        betti.append(b)
        torsion.append(tor)
    return HomologyResult(betti=tuple(betti), torsion=tuple(torsion))


def assert_matches_oracle(X, rel=None):
    H = homology_groups(X, rel=rel)
    assert H == homology_oracle(X, rel=rel), (X.maximal_simplices, rel)
    return H


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cleared_homology_matches_oracle_on_fixtures(name):
    X = fixture(name)
    assert_matches_oracle(X)
    assert_matches_oracle(X, rel=boundary_and_free_faces(X)[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_complexes())
def test_cleared_homology_matches_oracle_on_random_complexes(X):
    assert_matches_oracle(X)
    assert_matches_oracle(X, rel=boundary_and_free_faces(X)[1])


def test_cleared_homology_matches_oracle_on_random_three_pseudomanifolds():
    rng = random.Random(20261021)
    for _ in range(200):
        X = _random_three_pseudomanifold(rng)
        assert_matches_oracle(X)
        assert_matches_oracle(X, rel=check_pseudomanifold(X).boundary)


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_cleared_homology_matches_oracle_on_thickenings(pipeline_cache, name):
    out, rep = pipeline_cache(name, 0)
    assert assert_matches_oracle(out.P) == rep.homology_P
    assert_matches_oracle(out.P, rel=rep.pseudomanifold.boundary)


def test_cleared_homology_matches_oracle_on_closed_octahedral_ball(octahedral_closure):
    H = assert_matches_oracle(octahedral_closure.Q.complex)
    assert H == octahedral_closure.homology
    assert H.betti == (1, 3, 3, 1)


def test_suspension_of_projective_plane():
    """H_2 = Z/2 comes from the Smith diagonal of the top boundary map,
    whose unit pivots clear most columns of the next one down."""
    RP2 = fixture("projective_plane_6")
    suspension = cone_off(cone_off(RP2, RP2, "n"), RP2, "s")
    H = assert_matches_oracle(suspension)
    assert H.betti == (1, 0, 0, 0)
    assert H.torsion == ((), (), (2,), ())


def test_relative_euler_check_catches_a_wrong_betti(monkeypatch):
    X = fixture("single_triangle")
    _, boundary = boundary_and_free_faces(X)
    assert homology_groups(X, rel=boundary).betti == (0, 0, 1)
    # One triangle too many in the basis count: b_2 reads 2.
    monkeypatch.setattr(ChainComplex, "rank",
                        lambda self, k: len(self.bases.get(k, ())) + (k == 2))
    with pytest.raises(ConstructionError, match="Euler"):
        homology_groups(X, rel=boundary)


# -- non-unit Smith paths ----------------------------------------------------------------


@pytest.mark.parametrize("matrix, expected", [
    # No unit entry: the dense residue is all of it.  The pivot 2 does not
    # divide 3, so the divisibility repair adds a row and the column
    # elimination swaps columns.
    ([[2, 0], [0, 3]], [1, 6]),
    # The row elimination leaves a remainder and swaps rows.
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
])
def test_snf_non_unit_paths(matrix, expected):
    diag, rank = smith_normal_form(matrix)
    assert diag == snf_oracle(matrix) == expected
    assert rank == len(expected)


# -- coreduction ----------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 6])
def test_moore_space_torsion(q):
    """H_1 = Z/q from a disc glued along a degree-q map; relative to the
    circle the pair is a 2-sphere, X/C = D/S^1."""
    X, circle = moore_space(q)
    H = assert_matches_oracle(X)
    assert H.betti == (1, 0, 0) and H.torsion == ((), (q,), ())
    H_rel = assert_matches_oracle(X, rel=circle)
    assert H_rel.betti == (0, 0, 1) and H_rel.torsion == ((), (), ())


def replay_coreduction(X, rel=None):
    """Run the shared pairing loop on X's cells as ``coreduce`` does and
    replay its pairs one by one, asserting that each removes a live cell
    whose only live face is its partner and that what is left is
    ``coreduce``'s remainder; returns the pairs as (cell, face) simplices."""
    ix = X.incidence()
    cells, excluded = ix.cells, rel.simplices if rel is not None else frozenset()
    dead = [x for x, s in enumerate(cells) if s in excluded]
    first = 0 if rel is None else None
    _, pairs = _pair_off((ix.facet_start, ix.facets), (ix.coface_start, ix.cofaces),
                         dead=dead, first=first)
    live = set(cells) - {cells[0]} if rel is None else set(cells) - excluded
    pairs = [(cells[b], cells[a]) for b, a in pairs]
    for b, a in pairs:
        assert b in live and [f for f in facets(b) if f in live] == [a], (b, a)
        live -= {a, b}
    cc, _ = coreduce(X, rel=rel)
    assert live == {s for basis in cc.bases.values() for s in basis}
    return pairs


def pairs_digest(pairs):
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


@pytest.mark.parametrize("q", [2, 3, 6])
def test_coreduction_pairs_replay_on_moore_spaces(q):
    X, circle = moore_space(q)
    assert replay_coreduction(X) and replay_coreduction(X, rel=circle)


def test_coreduction_pairs_replay_on_octahedral_closure(octahedral_closure):
    assert replay_coreduction(octahedral_closure.Q.complex)


def test_coreduction_pair_order_is_pinned_on_octahedral_closure(octahedral_closure):
    """The pairs, in the order removed, are a function of the basis order
    alone; a change of cell numbering or face order would show here."""
    pairs = replay_coreduction(octahedral_closure.Q.complex)
    assert pairs_digest(pairs) == (
        "9219ee994c424c099a7a7ea1b7cb35f8b7da17df3c276a85e283dff7e28c33b0")


def test_relative_coreduction_pair_order_is_pinned(pipeline_cache):
    P = pipeline_cache("single_triangle")[0].P
    pairs = replay_coreduction(P, rel=check_pseudomanifold(P).boundary)
    assert pairs_digest(pairs) == (
        "df27c82ab2aea7941b23cceb9a923c271113ce5e686e5bfa0ca3ae81051e68de")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_complexes())
def test_coreduction_pairs_replay_on_random_complexes(X):
    replay_coreduction(X)
    replay_coreduction(X, rel=check_pseudomanifold(X).boundary)


def test_coreduced_remainder_of_octahedral_closure(octahedral_closure):
    """Coreduction leaves at most a quarter of Q's cells, the same ones on
    every call, and the homology of the remainder (plus the removed vertex)
    is that of Q."""
    Q = octahedral_closure.Q.complex
    cc, removed = coreduce(Q)
    assert removed == 1
    assert 4 * sum(map(len, cc.bases.values())) <= len(Q)
    assert coreduce(Q) == (cc, removed)
    H = homology_groups(Q)
    assert H == homology_oracle(Q) == octahedral_closure.homology


def test_coreduced_remainder_is_the_restricted_complex():
    """The remainder's bases are cells of X in basis order, and its boundary
    columns are those of the full chain complex restricted to them."""
    X, circle = moore_space(3)
    for rel in (None, circle):
        full = boundary_matrices(X, rel=rel)
        cc, removed = coreduce(X, rel=rel)
        assert removed == (rel is None)
        for k in range(1, X.dim + 1):
            rows = {s: i for i, s in enumerate(full.bases[k - 1])}
            cols = {s: j for j, s in enumerate(full.bases[k])}
            assert list(cc.bases[k]) == sorted(cc.bases[k], key=cols.get)
            for s, col in zip(cc.bases[k], cc.matrices[k]):
                kept = {rows[cc.bases[k - 1][r]]: v for r, v in col.items()}
                assert kept == {r: v for r, v in full.matrices[k][cols[s]].items()
                                if full.bases[k - 1][r] in cc.bases[k - 1]}
