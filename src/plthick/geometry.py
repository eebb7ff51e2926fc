"""Exact rational geometry: general-position maps, singular sets, and the
embedded spine with its collar neighborhood.

Every predicate is decided exactly: over rationals, or over integers
after scaling by a common denominator; floating point appears nowhere.
Sampling is seed-deterministic and every accepted sample is certified by
exact checks, so genericity failures cannot ship.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .complex_core import (
    Complex,
    regular_neighborhood,
    simplex_key,
    spine,
)
from .errors import (
    GeneralPositionError,
    RejectionBudgetError,
    ValidationError,
)

# -- rational vectors ---------------------------------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vcross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def is_zero_vec(a):
    return all(x == 0 for x in a)


def format_rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def parse_rational(text):
    """Parse a rational in the canonical form ``format_rational`` writes:
    an integer, or p/q in lowest terms with q >= 2.  Anything else,
    including a value that is not a string, is a ``ValidationError``."""
    if isinstance(text, str):
        try:
            x = Fraction(text)
        except (ValueError, ZeroDivisionError):
            x = None
        if x is not None and format_rational(x) == text:
            return x
    raise ValidationError("non-canonical rational %r" % (text,))


def derive_seed(seed, tag):
    digest = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- exact linear algebra -------------------------------------------------------


def _content_free(row):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(row):
    """A row of rationals scaled to integers by the lcm of its denominators."""
    scale = math.lcm(*(v.denominator for v in row))
    return _content_free([v.numerator * (scale // v.denominator) for v in row])


def solve_affine(rows, rhs, n):
    """Solve ``rows * x = rhs`` exactly for x in Q^n.

    The caller gives n: a system with no rows still has n unknowns.
    Returns ``None`` if inconsistent, else ``(particular, null_basis)``:
    the solution that is zero on the free columns, and per free column the
    null vector that is 1 there and 0 on the other free columns.  Both are
    read off the reduced row echelon form, which is unique, so any exact
    elimination gives the same answer.

    The elimination is fraction-free (integer-preserving, after Bareiss):
    each row with its right-hand side is scaled to integers, rows are
    combined Gauss-Jordan style by integer cross-multiplication and divided
    by their content, and only the final entries, each a row entry over the
    row's pivot, become ``Fraction``s.
    """
    m = len(rows)
    a = [_integer_row(list(row) + [b]) for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                a[i] = _content_free([pv * v - f * w for v, w in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(a[i][n] for i in range(r, m)):
        return None
    particular = [ZERO] * n
    for i, c in enumerate(pivots):
        particular[c] = Fraction(a[i][n], a[i][c])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n
        vec[fc] = ONE
        for i, c in enumerate(pivots):
            vec[c] = Fraction(-a[i][fc], a[i][c])
        basis.append(tuple(vec))
    return tuple(particular), basis


def affine_rank(points):
    """Affine rank (dimension of the affine hull) of rational points: the
    number of difference vectors minus the dimension of their null space."""
    if not points:
        return -1
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    _, null = solve_affine([[d[c] for d in diffs] for c in range(len(base))],
                           [ZERO] * len(base), len(diffs))
    return len(diffs) - len(null)


# -- geometric maps ----------------------------------------------------------------


@dataclass(frozen=True)
class GeometricMap:
    """Exact rational coordinates for the vertices of a complex, extended
    linearly over simplices."""

    domain: Complex
    n: int
    points: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("ambient dimension must be >= 1")
        for v in self.domain.vertices:
            p = self.points.get(v)
            if p is None:
                raise ValidationError("vertex %r has no coordinates" % v)
            if len(p) != self.n:
                raise ValidationError("vertex %r has wrong dimension" % v)

    def simplex_points(self, s):
        return [self.points[v] for v in s]

    def bit_length_stats(self):
        num = den = 0
        for p in self.points.values():
            for x in p:
                num = max(num, x.numerator.bit_length())
                den = max(den, x.denominator.bit_length())
        return {"max_numerator_bits": num, "max_denominator_bits": den}


def sample_general_position_map(X, n, seed, denom_bound=1000, max_attempts=200):
    """Seed-deterministic rational coordinates in general position.

    Coordinates are fractions with denominator at most ``denom_bound``;
    sampling retries until ``verify_general_position`` accepts.
    """
    if n < 1:
        raise ValidationError("ambient dimension must be >= 1")
    if denom_bound < 1:
        raise ValidationError("denom_bound must be >= 1")
    rng = random.Random(derive_seed(seed, "gpmap"))
    labels = X.vertices
    for _ in range(max_attempts):
        points = {}
        for v in labels:
            coords = []
            for _ in range(n):
                q = rng.randint(1, denom_bound)
                p = rng.randint(0, q)
                coords.append(Fraction(p, q))
            points[v] = tuple(coords)
        m = GeometricMap(domain=X, n=n, points=points)
        ok, _ = verify_general_position(m)
        if ok:
            return m
    raise RejectionBudgetError(
        "no general-position map found in %d attempts (denom_bound=%d too small?)"
        % (max_attempts, denom_bound))


def verify_general_position(m):
    """Check that the vertices map injectively and every vertex subset of
    size <= n+1 is affinely independent.  Returns ``(ok, witness_subset)``.

    Only the subsets of size k = min(|V|, n+1) are checked.  A subset of an
    affinely independent set is independent, and each smaller subset lies
    in one of size k, so this is the same decision; two vertices on one
    point are a dependent pair, and k >= 2 once |V| >= 2, as n >= 1.
    """
    labels = m.domain.vertices
    k = min(len(labels), m.n + 1)
    for combo in itertools.combinations(labels, k):
        if affine_rank([m.points[v] for v in combo]) != k - 1:
            return False, combo
    return True, None


# -- simplex pair intersections -------------------------------------------------------


@dataclass(frozen=True)
class PairIntersection:
    kind: str  # "empty" | "point" | "segment"
    points: tuple  # ambient points (0, 1 or 2)

    @property
    def dim(self):
        return {"empty": -1, "point": 0, "segment": 1}[self.kind]


EMPTY_INTERSECTION = PairIntersection(kind="empty", points=())


def simplex_pair_intersection(pts1, pts2):
    """Exact intersection of two closed simplices given by vertex points.

    Works in any ambient dimension via the barycentric parameter space;
    raises GeneralPositionError when the intersection has dimension >= 2
    (degenerate for the pairs this toolkit feeds in).
    """
    k1, k2 = len(pts1), len(pts2)
    n = len(pts1[0])
    rows = []
    rhs = []
    for c in range(n):
        rows.append([pts1[i][c] for i in range(k1)] + [-pts2[j][c] for j in range(k2)])
        rhs.append(ZERO)
    rows.append([ONE] * k1 + [ZERO] * k2)
    rhs.append(ONE)
    rows.append([ZERO] * k1 + [ONE] * k2)
    rhs.append(ONE)
    sol = solve_affine(rows, rhs, k1 + k2)
    if sol is None:
        return EMPTY_INTERSECTION
    particular, basis = sol
    if len(basis) == 0:
        if all(x >= 0 for x in particular):
            pt = _combine(pts1, particular[:k1])
            return PairIntersection(kind="point", points=(pt,))
        return EMPTY_INTERSECTION
    if len(basis) == 1:
        direction = basis[0]
        lo, hi = None, None
        for a, b in zip(particular, direction):
            if b == 0:
                if a < 0:
                    return EMPTY_INTERSECTION
                continue
            bound = -a / b
            if b > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None or lo > hi:
            if lo is not None and hi is not None and lo > hi:
                return EMPTY_INTERSECTION
            raise GeneralPositionError("unbounded intersection line (degenerate input)")
        lam_lo = [a + lo * b for a, b in zip(particular, direction)]
        lam_hi = [a + hi * b for a, b in zip(particular, direction)]
        p_lo = _combine(pts1, lam_lo[:k1])
        p_hi = _combine(pts1, lam_hi[:k1])
        if lo == hi:
            return PairIntersection(kind="point", points=(p_lo,))
        return PairIntersection(kind="segment", points=(p_lo, p_hi))
    raise GeneralPositionError(
        "intersection of parameter dimension %d (degenerate configuration)" % len(basis))


def _combine(pts, weights):
    acc = tuple(ZERO for _ in pts[0])
    for w, p in zip(weights, pts):
        if w:
            acc = vadd(acc, vscale(w, p))
    return acc


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


# -- singular sets -----------------------------------------------------------------


@dataclass(frozen=True)
class SingularRecord:
    """One top-simplex pair whose open images intersect."""

    simplex_i: tuple
    simplex_j: tuple
    kind: str  # "point" | "segment"
    ambient: tuple  # 1 or 2 ambient points, sorted

    @property
    def dim(self):
        return 0 if self.kind == "point" else 1


@dataclass(frozen=True)
class SingularSet:
    """All pairwise intersection data of a general-position map."""

    records: tuple

    def dim(self):
        return max((r.dim for r in self.records), default=-1)


def _bbox(pts):
    lo = tuple(min(p[c] for p in pts) for c in range(len(pts[0])))
    hi = tuple(max(p[c] for p in pts) for c in range(len(pts[0])))
    return lo, hi


def singular_set(m):
    """Exact intersection records for every simplex pair, with the
    dimension bounds asserted pair by pair.

    A pair of dimensions d1, d2 sharing a face of dimension d3 spans
    ``d1 + d2 - d3 + 1`` vertices.  When that span is at most n, the joint
    vertices number at most n+1, so by the general-position certificate
    they are affinely independent: both simplices are faces of one
    non-degenerate simplex and meet exactly in their shared face.  Such
    pairs are skipped; the others are intersected exactly.  Recorded
    intersections are those of maximal simplices whose open images overlap.

    Only pairs whose bounding boxes meet can intersect, and pairs sharing a
    vertex always do: ``_box_overlaps`` lists them in the order of the
    sorted simplices, so they are visited as an all-pairs loop would.
    """
    ok, witness = verify_general_position(m)
    if not ok:
        raise GeneralPositionError("map not in general position (witness %s)" % (witness,))
    X = m.domain
    n = m.n
    simplices = sorted((s for s in X.simplices if len(s) > 1), key=simplex_key)
    maximal = set(X.maximal_simplices)
    records = []
    global_bound = 2 * X.dim - n
    for i, j in _box_overlaps([_bbox(m.simplex_points(s)) for s in simplices]):
        s1, s2 = simplices[i], simplices[j]
        v1, v2 = set(s1), set(s2)
        if v1 <= v2 or v2 <= v1:
            continue
        shared = v1 & v2
        d1, d2 = len(s1) - 1, len(s2) - 1
        if d1 + d2 - (len(shared) - 1) <= n:
            continue
        inter = simplex_pair_intersection(m.simplex_points(s1), m.simplex_points(s2))
        if inter.dim > d1 + d2 - n:
            raise GeneralPositionError(
                "intersection of %s and %s exceeds dimension bound" % (s1, s2))
        if inter.kind == "empty":
            continue
        face_points = tuple(sorted(m.points[v] for v in shared))
        inter_points = tuple(sorted(inter.points))
        if inter_points == face_points:
            continue  # pair meets exactly in the shared face
        if s1 in maximal and s2 in maximal:
            records.append(SingularRecord(
                simplex_i=s1, simplex_j=s2, kind=inter.kind, ambient=inter_points))
    result = SingularSet(records=tuple(records))
    if result.dim() > global_bound:
        raise GeneralPositionError("singular set exceeds the global dimension bound")
    return result


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


def _box_overlaps(boxes):
    """Index pairs ``i < j``, in lexicographic order, of the closed boxes
    that meet.

    Sweep and prune: with the boxes sorted by their lower first
    coordinate, the boxes that follow box i in that order meet it in the
    first coordinate exactly up to the first one starting beyond its upper
    end, and only those are compared in the other coordinates.
    """
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    pairs = []
    for a, i in enumerate(order):
        lo1, hi1 = boxes[i]
        for b in range(a + 1, len(order)):
            j = order[b]
            lo2, hi2 = boxes[j]
            if lo2[0] > hi1[0]:
                break
            if all(lo2[c] <= hi1[c] and lo1[c] <= hi2[c] for c in range(1, len(lo1))):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


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
