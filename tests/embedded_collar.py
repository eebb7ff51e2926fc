"""The embedded spine and collar: the map-based construction that
``thicken`` no longer runs, kept as the oracle of its combinatorial collar.

``thicken`` builds the spine K of X and its collar N in sd(sd X rel K)
from X alone (``thicken3.spine_collar``).  The paper places both in R^3
under a general-position map f of X; this module does so exactly, with
the certificates the thickening once ran: ``choose_spine_barycenters``
picks interior barycenters that make f embed K, and
``epsilon_neighborhood_embedding`` fixes the first epsilon of 1/4, 1/16,
1/256, ... at which f embeds N.  The tests check that the embedded
collar is the combinatorial one, so on every fixture the complex
``thicken`` thickens is realised in R^3 by the sampled map.

Every predicate is decided exactly, as in ``plthick.geometry``.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from plthick.complex_core import Complex, regular_neighborhood, simplex_key, spine
from plthick.errors import GeneralPositionError, RejectionBudgetError, ValidationError
from plthick.geometry import (
    ONE,
    ZERO,
    GeometricMap,
    SingularSet,
    _bbox,
    _box_overlaps,
    _combine,
    derive_seed,
    is_zero_vec,
    simplex_pair_intersection,
    singular_set,
    solve_affine,
    vadd,
    vcross,
    vscale,
    vsub,
)


def _separated(axis, p, q):
    """The projections of the closed triangles p and q onto ``axis`` are
    disjoint intervals."""
    a0, a1, a2 = axis
    sp = [a0 * x + a1 * y + a2 * z for x, y, z in p]
    sq = [a0 * x + a1 * y + a2 * z for x, y, z in q]
    return max(sp) < min(sq) or max(sq) < min(sp)


def _triangles_meet(p, q):
    """Whether two closed triangles in R^3 with integer vertices meet,
    decided by a separating-axis test on integers.

    Agrees with the tests' oracle, which clips the line of the two planes
    against both triangles, errors included: a degenerate triangle, and a
    coplanar pair, raise ``GeneralPositionError``; a pair in distinct
    parallel planes is separated by their normal.

    Otherwise the planes cross and the difference body p - q is a
    3-polytope.  The triangles are disjoint exactly when 0 lies outside it,
    and then one of its facets separates 0 strictly.  A facet of p - q is
    a face of p minus a face of q; it is 2-dimensional only as a triangle
    minus a point (normal n_p), a point minus a triangle (normal n_q), or
    an edge e_i minus a non-parallel edge f_j (normal e_i x f_j).  So the
    triangles are disjoint if and only if their projections onto one of
    these 11 axes are disjoint intervals; zero axes are skipped.
    """
    ep = [vsub(p[1], p[0]), vsub(p[2], p[1]), vsub(p[0], p[2])]
    eq = [vsub(q[1], q[0]), vsub(q[2], q[1]), vsub(q[0], q[2])]
    np_ = vcross(ep[0], ep[1])
    nq = vcross(eq[0], eq[1])
    if is_zero_vec(np_) or is_zero_vec(nq):
        raise GeneralPositionError("degenerate triangle")
    if is_zero_vec(vcross(np_, nq)):
        if _separated(np_, p, q):
            return False
        raise GeneralPositionError("coplanar triangle pair")
    axes = [np_, nq] + [vcross(e, f) for e in ep for f in eq]
    return not any(_separated(axis, p, q) for axis in axes if not is_zero_vec(axis))


def point_in_simplex(pt, pts):
    """Exact closed-simplex membership via barycentric solve."""
    n = len(pt)
    rows = [[pts[i][c] for i in range(len(pts))] for c in range(n)]
    rows.append([ONE] * len(pts))
    rhs = list(pt) + [ONE]
    sol = solve_affine(rows, rhs, len(pts))
    if sol is None:
        return None
    particular, basis = sol
    if basis:
        # Degenerate simplex; callers rule this out.
        raise GeneralPositionError("degenerate simplex in membership test")
    if all(x >= 0 for x in particular):
        return tuple(particular)
    return None


# -- spine embedding ------------------------------------------------------------------


@dataclass(frozen=True)
class SpineEmbedding:
    """Chosen interior barycenters making the spine embedded, plus the
    collar neighborhood once epsilon is fixed; ``_meeting_far_pair``
    certifies both."""

    base: GeometricMap
    subdivision: object  # SubdivisionMap of the ambient first subdivision
    spine: Complex
    weights: dict  # parent simplex -> {vertex label: weight}
    barycenters: dict  # parent simplex -> ambient point
    singular: SingularSet
    attempts: dict
    epsilon: Fraction | None = None
    nbhd: GeometricMap | None = None
    nbhd_sub: object | None = None
    frontier: Complex | None = None

    def spine_point(self, label):
        base = self.base
        if label in base.points:
            return base.points[label]
        parent = self.subdivision.carrier_of_label(label)
        return self.barycenters[parent]

    def cell_points(self, s):
        return [self.spine_point(v) for v in s]


# Candidates tried per spine barycenter before a RejectionBudgetError.
_BARYCENTER_ATTEMPTS = 1000


def choose_spine_barycenters(m, seed, candidate_hook=None):
    """Pick interior barycenters so the map embeds the spine, and certify
    the embedding by ``_meeting_far_pair`` on the spine K, with each cell
    carried by its simplex of X.

    Every barycenter, lower-dimensional simplices first and each dimension
    in sorted order, is sampled until it avoids the recorded intersection
    polytopes.

    The embedding is certified pair by pair of maximal spine cells, whose
    carriers s1, s2 span:

    - at most n+1 vertices: these are affinely independent by the
      general-position certificate, so f is an affine injection on the
      simplex they span; both cells lie in one derived subdivision of it
      with interior barycenters, so they embed jointly;
    - more than n+1 vertices (far cells): the cells share no spine vertex,
      since a spine vertex's carrier has at least 2 vertices and would
      make s1, s2 share an edge, spanning at most 2d = n+1 vertices; and
      ``_meeting_far_pair`` checks their images disjoint.

    When a far pair meets, the barycenter of the later of its two carriers
    in ``simplex_key`` order is resampled and the check repeated, within
    the same ``_BARYCENTER_ATTEMPTS`` per simplex.  For d = 2 this moves
    the touching point.  Cells avoid the original vertices, so a point
    where far cells in s1 and s2 meet lies in f(s1) and f(s2) off the
    image of a shared vertex.  As s1 and s2 span more than n+1 vertices,
    ``singular_set`` records their intersection, and the point lies on a
    record.  Lower barycenters avoid every record, so it is no lower
    barycenter.  For d = 2 every other point of a cell lies on a segment
    from a top's barycenter, so both s1 and s2 are tops, and the point
    moves with either apex.

    ``candidate_hook`` lets tests inject adversarial candidates; weights
    not all positive or not summing to 1 are a ``ValidationError``, since
    the argument needs interior barycenters.
    """
    X = m.domain
    d = X.dim
    if d < 2:
        raise ValidationError("spine embedding needs dim >= 2")
    if m.n != 2 * d - 1:
        raise ValidationError("ambient dimension must be 2*dim - 1")
    sing = singular_set(m)
    B, K = spine(X)
    rng = random.Random(derive_seed(seed, "spine-barycenters"))

    def on_any_record(pt):
        return any(point_in_simplex(pt, r.ambient) is not None for r in sing.records)

    weights = {}
    barycenters = {}
    attempts = {}

    def place(s):
        pts = m.simplex_points(s)
        for attempt in range(attempts.get(s, 0) + 1, _BARYCENTER_ATTEMPTS + 1):
            w = _candidate_weights(candidate_hook, rng, s)
            pt = _combine(pts, [w[v] for v in s])
            if not on_any_record(pt):
                weights[s] = w
                barycenters[s] = pt
                attempts[s] = attempt
                return
        raise RejectionBudgetError("no admissible barycenter for %s" % (s,))

    for s in sorted((s for s in X.simplices if len(s) > 1), key=simplex_key):
        place(s)

    # se reads the dicts that a resample updates.
    se = SpineEmbedding(
        base=m, subdivision=B, spine=K, weights=weights, barycenters=barycenters,
        singular=sing, attempts=attempts)
    while True:
        cells = GeometricMap(domain=K, n=m.n,
                             points={v: se.spine_point(v) for v in K.vertices})
        pair = _meeting_far_pair(cells, B.carrier)
        if pair is None:
            return se
        place(max((B.carrier[c] for c in pair), key=simplex_key))


def _candidate_weights(candidate_hook, rng, s):
    """Interior weights on s: the hook's candidate if it offers one, else a sample."""
    w = candidate_hook(rng, s) if candidate_hook else None
    if not w:
        raw = {v: rng.randint(1, 64) for v in s}
        total = sum(raw.values())
        return {v: Fraction(a, total) for v, a in raw.items()}
    if set(w) != set(s) or min(w.values()) <= 0 or sum(w.values()) != 1:
        raise ValidationError("candidate weights %r for %s are not interior" % (w, s))
    return w


def epsilon_neighborhood_embedding(se):
    """Fix epsilon, build the collar neighborhood of the spine and certify
    that the map embeds it, by exact checks on the far collar pairs.

    The collar N is the simplicial neighborhood of the spine K in
    sd(Y rel K), Y = sd X.  A vertex of N outside K is the barycenter of a
    simplex tau of Y outside K that meets K, since N holds only simplices
    meeting K; as K is full in Y, tau also has a vertex outside K.  So it
    sits at (1 - epsilon) times the mean of tau's K-vertices plus epsilon
    times the mean of its other vertices.

    ``epsilon`` is the first of 1/4, 1/16, 1/256, ..., each the square of
    the one before, at which ``_meeting_far_pair`` finds no far pair of
    collar simplices meeting; a power of two keeps the collar coordinates
    short.  The search ends.  A maximal collar simplex s is a chain of
    simplices of Y ending at its carrier tau; its K-vertices lie in the
    spine face k = tau ∩ K, and each other vertex, the barycenter of some
    tau' ⊆ tau, lies within epsilon D of the mean of tau' ∩ K, a point of
    f(k), where D is the largest diameter of the image of a top of X.  So
    f(s) lies within epsilon D of the convex set f(k).  The largest element
    of the chain tau, its carrier c in X, has dimension at least 1 as tau
    meets K, so its barycenter lies in k: k is carried by c, and so is
    every maximal spine cell containing k by a coface of c.  Collar
    simplices with far carriers c1, c2 thus lie near spine faces k1, k2
    inside maximal spine cells with far carriers, which
    ``choose_spine_barycenters`` checked disjoint; f(k1) and f(k2) are
    compact, at a positive distance.  Over the finitely many far pairs the
    least such distance is some delta > 0, and the check passes once
    2 epsilon D < delta, which squaring reaches.  A coplanar far triangle
    pair raises ``GeneralPositionError`` at any epsilon, as ever.
    """
    Y = se.subdivision.child
    K = se.spine
    ycoords = {v: se.spine_point(v) for v in Y.vertices}
    kverts = set(K.vertices)
    N, Ndot, sub = regular_neighborhood(Y, K)
    means = {}
    for v in N.vertices:
        if v not in kverts:
            tau = sub.carrier_of_label(v)
            means[v] = (_avg([ycoords[u] for u in tau if u in kverts]),
                        _avg([ycoords[u] for u in tau if u not in kverts]))
    carriers = {s: se.subdivision.carrier[sub.carrier[s]] for s in N.maximal_simplices}

    epsilon = Fraction(1, 4)
    while True:
        npoints = {v: ycoords[v] for v in kverts}
        for v, (ka, oa) in means.items():
            npoints[v] = vadd(vscale(1 - epsilon, ka), vscale(epsilon, oa))
        nbhd = GeometricMap(domain=N, n=se.base.n, points=npoints)
        if _meeting_far_pair(nbhd, carriers) is None:
            return replace(se, epsilon=epsilon, nbhd=nbhd, nbhd_sub=sub, frontier=Ndot)
        epsilon *= epsilon


def _avg(pts):
    acc = tuple(ZERO for _ in pts[0])
    for p in pts:
        acc = vadd(acc, p)
    return vscale(Fraction(1, len(pts)), acc)


def _integer_points(points):
    """The points scaled to integers by D, the lcm of all their coordinate
    denominators."""
    scale = math.lcm(*(x.denominator for p in points.values() for x in p))
    return {v: tuple(x.numerator * (scale // x.denominator) for x in p)
            for v, p in points.items()}


def _meeting_far_pair(m, carriers):
    """The first pair of maximal simplices of ``m.domain`` with far
    carriers whose images meet, or None when there is none: the one
    certificate of the spine and of the collar.

    ``carriers`` maps each maximal simplex to its carrier in X.  A pair is
    far when the carriers span more than n+1 vertices; nearer pairs are
    embedded jointly because their carrier union stays within general
    position, and are skipped.

    The points are scaled to integers by D, the lcm of their coordinate
    denominators; D > 0 keeps every box overlap and every intersection.
    Only pairs whose boxes meet can intersect: ``_box_overlaps`` finds them
    and they are visited in the order of ``m.domain.maximal_simplices``, so
    the pair returned is the one an all-pairs loop would find first.
    Triangle pairs in R^3, the only pairs of a pure 2-dimensional input's
    collar, are decided by ``_triangles_meet``; every other pair, the spine
    cells and the tetrahedra of a 3-dimensional input's collar in R^5
    among them, by ``simplex_pair_intersection``.
    """
    n = m.n
    maximal = m.domain.maximal_simplices
    ipoints = _integer_points(m.points)
    pts = [[ipoints[v] for v in s] for s in maximal]
    for i, j in _box_overlaps([_bbox(p) for p in pts]):
        s1, s2 = maximal[i], maximal[j]
        c1, c2 = carriers[s1], carriers[s2]
        if len(set(c1).union(c2)) <= n + 1:
            continue
        if n == 3 and len(s1) == 3 and len(s2) == 3:
            meet = _triangles_meet(pts[i], pts[j])
        else:
            meet = simplex_pair_intersection(pts[i], pts[j]).kind != "empty"
        if meet:
            return s1, s2
    return None
