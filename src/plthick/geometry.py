"""Exact rational geometry: general-position maps, singular sets, and the
embedded spine with its collar neighborhood.

Every predicate is decided over exact rationals; floating point appears
nowhere.  Sampling is seed-deterministic and every accepted sample is
certified by exact checks, so genericity failures cannot ship.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .complex_core import (
    Complex,
    Simplex,
    full_subcomplex,
    regular_neighborhood,
    spine,
)
from .errors import (
    ConstructionError,
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


def vlensq(a):
    return vdot(a, a)


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


def dyadic_floor_sqrt(x):
    """The largest ``2^-k`` with ``k >= 2`` and ``4^-k <= x``, for x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValidationError("non-positive radicand")
    k = 2
    while x.numerator << (2 * k) < x.denominator:
        k += 1
    return Fraction(1, 1 << k)


def derive_seed(seed, tag):
    digest = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- exact linear algebra -------------------------------------------------------


def solve_affine(rows, rhs):
    """Solve ``rows * x = rhs`` exactly.

    Returns ``None`` if inconsistent, else ``(particular, null_basis)``.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if a[i][c] != 0:
                pr = i
                break
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
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    particular = [ZERO] * n
    for i, c in enumerate(pivots):
        particular[c] = a[i][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n
        vec[fc] = ONE
        for i, c in enumerate(pivots):
            vec[c] = -a[i][fc]
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
                           [ZERO] * len(base))
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
        for v in self.domain.vertices:
            p = self.points.get(v)
            if p is None:
                raise ValidationError("vertex %r has no coordinates" % v)
            if len(p) != self.n:
                raise ValidationError("vertex %r has wrong dimension" % v)

    def simplex_points(self, s):
        return [self.points[v] for v in s.vertices]

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
    """Check injectivity on vertices and affine independence of every vertex
    subset of size <= n+1.  Returns ``(ok, witness_subset)``."""
    labels = m.domain.vertices
    seen = {}
    for v in labels:
        p = m.points[v]
        if p in seen:
            return False, (seen[p], v)
        seen[p] = v
    for k in range(2, min(len(labels), m.n + 1) + 1):
        for combo in itertools.combinations(labels, k):
            pts = [m.points[v] for v in combo]
            if affine_rank(pts) != k - 1:
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
    sol = solve_affine(rows, rhs)
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


def triangle_triangle_intersection(p, q):
    """Exact intersection of two triangles in R^3 by clipping the line of
    their planes against both; endpoints are exact rationals."""
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
    x1 = (b1 * a22 - b2 * a12) / det
    x2 = (a11 * b2 - a21 * b1) / det
    origin = [ZERO, ZERO, ZERO]
    origin[idx[0]] = x1
    origin[idx[1]] = x2
    origin = tuple(origin)

    def clip(tri, normal, lo, hi):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            c = tri[(i + 2) % 3]
            inward = vcross(normal, vsub(b, a))
            side_c = vdot(inward, vsub(c, a))
            if side_c == 0:
                raise GeneralPositionError("degenerate triangle edge")
            if side_c < 0:
                inward = vscale(Fraction(-1), inward)
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


def point_on_segment(pt, a, b):
    """Exact closed-segment membership."""
    ab = vsub(b, a)
    ap = vsub(pt, a)
    if vlensq(ab) == 0:
        return pt == a
    # Collinearity: ap must be a multiple t*ab with 0 <= t <= 1.
    t = None
    for x, y in zip(ap, ab):
        if y != 0:
            t = x / y
            break
    if t is None or t < 0 or t > 1:
        return False
    return all(x == t * y for x, y in zip(ap, ab))


def point_in_simplex(pt, pts):
    """Exact closed-simplex membership via barycentric solve."""
    n = len(pt)
    rows = [[pts[i][c] for i in range(len(pts))] for c in range(n)]
    rows.append([ONE] * len(pts))
    rhs = list(pt) + [ONE]
    sol = solve_affine(rows, rhs)
    if sol is None:
        return None
    particular, basis = sol
    if basis:
        # Degenerate simplex; callers rule this out.
        raise GeneralPositionError("degenerate simplex in membership test")
    if all(x >= 0 for x in particular):
        return tuple(particular)
    return None


def simplex_pair_sqdist(pts1, pts2):
    """Exact minimum squared distance between two closed simplices.

    Enumerates face pairs; on each pair the unconstrained affine minimizer
    is kept when feasible, so the closed-polytope minimum is always among
    the candidates.
    """
    best = None
    for r1 in range(1, len(pts1) + 1):
        for f1 in itertools.combinations(pts1, r1):
            for r2 in range(1, len(pts2) + 1):
                for f2 in itertools.combinations(pts2, r2):
                    val = _affine_face_sqdist(f1, f2)
                    if val is not None and (best is None or val < best):
                        best = val
    return best


def _affine_face_sqdist(f1, f2):
    # Minimize |sum λ_i p_i - sum μ_j q_j|^2 subject to affine constraints;
    # stationarity gives a linear system in the barycentric unknowns.
    k1, k2 = len(f1), len(f2)
    if k1 == 1 and k2 == 1:
        return vlensq(vsub(f1[0], f2[0]))
    base1, base2 = f1[0], f2[0]
    dirs1 = [vsub(p, base1) for p in f1[1:]]
    dirs2 = [vsub(q, base2) for q in f2[1:]]
    dirs = dirs1 + [vscale(Fraction(-1), d) for d in dirs2]
    w = vsub(base1, base2)
    m = len(dirs)
    rows = [[vdot(dirs[i], dirs[j]) for j in range(m)] for i in range(m)]
    rhs = [-vdot(dirs[i], w) for i in range(m)]
    sol = solve_affine(rows, rhs)
    if sol is None:
        return None
    # Flat directions leave the minimum value unchanged: take the
    # particular solution.
    coeffs, _ = sol
    c1 = coeffs[:k1 - 1]
    c2 = coeffs[k1 - 1:]
    if any(x < 0 for x in c1) or sum(c1) > 1 or any(x < 0 for x in c2) or sum(c2) > 1:
        return None
    diff = w
    for x, d in zip(c1, dirs1):
        diff = vadd(diff, vscale(x, d))
    for x, d in zip(c2, dirs2):
        diff = vsub(diff, vscale(x, d))
    return vlensq(diff)


# -- singular sets -----------------------------------------------------------------


@dataclass(frozen=True)
class SingularRecord:
    """One top-simplex pair whose open images intersect."""

    simplex_i: Simplex
    simplex_j: Simplex
    kind: str  # "point" | "segment"
    ambient: tuple  # 1 or 2 ambient points

    @property
    def dim(self):
        return 0 if self.kind == "point" else 1


@dataclass(frozen=True)
class SingularSet:
    """All pairwise intersection data of a general-position map."""

    records: tuple

    def dim(self):
        return max((r.dim for r in self.records), default=-1)

    def ambient_polytopes(self):
        return [(r.kind, r.ambient) for r in self.records]


def _bbox(pts):
    lo = tuple(min(p[c] for p in pts) for c in range(len(pts[0])))
    hi = tuple(max(p[c] for p in pts) for c in range(len(pts[0])))
    return lo, hi


def _bbox_sqdist(b1, b2):
    """Exact squared distance between two boxes: a lower bound on the
    squared distance between anything they contain."""
    (lo1, hi1), (lo2, hi2) = b1, b2
    acc = ZERO
    for c in range(len(lo1)):
        gap = max(lo2[c] - hi1[c], lo1[c] - hi2[c])
        if gap > 0:
            acc += gap * gap
    return acc


def _bbox_disjoint(b1, b2):
    (lo1, hi1), (lo2, hi2) = b1, b2
    return any(hi1[c] < lo2[c] or hi2[c] < lo1[c] for c in range(len(lo1)))


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
    """
    ok, witness = verify_general_position(m)
    if not ok:
        raise GeneralPositionError("map not in general position (witness %s)" % (witness,))
    X = m.domain
    n = m.n
    simplices = [s for s in X.simplices if s.dim >= 1]
    maximal = set(X.maximal_simplices)
    boxes = {s: _bbox(m.simplex_points(s)) for s in simplices}
    records = []
    global_bound = 2 * X.dim - n
    for s1, s2 in itertools.combinations(sorted(simplices), 2):
        v1, v2 = set(s1.vertices), set(s2.vertices)
        if v1 <= v2 or v2 <= v1:
            continue
        shared = v1 & v2
        d1, d2 = s1.dim, s2.dim
        if d1 + d2 - (len(shared) - 1) <= n:
            continue
        if _bbox_disjoint(boxes[s1], boxes[s2]) and not shared:
            continue
        pts1, pts2 = m.simplex_points(s1), m.simplex_points(s2)
        if n == 3 and d1 == 2 and d2 == 2:
            inter = triangle_triangle_intersection(pts1, pts2)
        else:
            inter = simplex_pair_intersection(pts1, pts2)
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
                simplex_i=s1, simplex_j=s2, kind=inter.kind, ambient=inter.points))
    result = SingularSet(records=tuple(records))
    if result.dim() > global_bound:
        raise GeneralPositionError("singular set exceeds the global dimension bound")
    return result


# -- spine embedding ------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricComplex:
    """A complex with exact coordinates on its vertices."""

    complex: Complex
    points: dict

    def simplex_points(self, s):
        return [self.points[v] for v in s.vertices]


@dataclass(frozen=True)
class SpineEmbedding:
    """Chosen interior barycenters making the spine embedded, certified by
    ``delta_sq``, plus the certified collar neighborhood once epsilon is fixed."""

    base: GeometricMap
    subdivision: object  # SubdivisionMap of the ambient first subdivision
    spine: Complex
    weights: dict  # parent simplex -> {vertex label: weight}
    barycenters: dict  # parent simplex -> ambient point
    singular: SingularSet
    attempts: dict
    delta_sq: Fraction | None = None
    epsilon: Fraction | None = None
    nbhd: GeometricComplex | None = None
    nbhd_sub: object | None = None
    frontier: Complex | None = None

    def spine_point(self, label):
        base = self.base
        if label in base.points:
            return base.points[label]
        parent = self.subdivision.carrier_of_label(label)
        return self.barycenters[parent]

    def spine_cells_in(self, parent):
        """Maximal spine simplices carried by faces of the given simplex."""
        pv = set(parent.vertices)
        cells = []
        for s in self.spine.maximal_simplices:
            carriers = [self.subdivision.carrier_of_label(v) for v in s.vertices]
            if all(set(c.vertices) <= pv for c in carriers):
                cells.append(s)
        return cells

    def cell_points(self, s):
        return [self.spine_point(v) for v in s.vertices]


# Candidates tried per spine barycenter before a RejectionBudgetError.
_BARYCENTER_ATTEMPTS = 1000


def choose_spine_barycenters(m, seed, candidate_hook=None):
    """Pick interior barycenters so the map embeds the spine, and certify
    the embedding by ``delta_sq``.

    Lower-dimensional barycenters avoid the recorded intersection
    polytopes; top-simplex barycenters are accepted only when the cone over
    the boundary spine meets every recorded segment transversely and
    misses the finitely many points whose images already lie on earlier
    cones.

    The embedding is certified pair by pair of maximal simplices s1, s2:

    - sharing at least 2 vertices, they span at most 2d = n+1 vertices,
      affinely independent by the general-position certificate, so f is an
      affine injection on the simplex they span; their spine cells lie in
      one derived subdivision of it with interior barycenters, so embed;
    - sharing at most 1 vertex, their spine cells share no spine vertex (a
      spine vertex's carrier has at least 2 vertices), and are disjoint
      because ``delta_sq``, their exact least squared distance (None when
      no such pair exists), is positive or a ``ConstructionError``.

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

    ambient_polytopes = sing.ambient_polytopes()

    def on_any_record(pt):
        for kind, amb in ambient_polytopes:
            if kind == "point":
                if pt == amb[0]:
                    return True
            elif point_on_segment(pt, amb[0], amb[1]):
                return True
        return False

    weights = {}
    barycenters = {}
    attempts = {}

    lower = sorted(s for s in X.simplices if 0 < s.dim < d)
    for s in lower:
        pts = m.simplex_points(s)
        for attempt in range(1, _BARYCENTER_ATTEMPTS + 1):
            w = _candidate_weights(candidate_hook, rng, s)
            pt = _combine(pts, [w[v] for v in s.vertices])
            if not on_any_record(pt):
                weights[s] = w
                barycenters[s] = pt
                attempts[s] = attempt
                break
        else:
            raise RejectionBudgetError("no admissible barycenter for %s" % (s,))

    tops = sorted(s for s in X.maximal_simplices if s.dim == d)
    crossing_points = {}  # (top, other) -> list of ambient crossing points
    for i, s in enumerate(tops):
        pts = m.simplex_points(s)
        boundary_cells = _boundary_spine_cells(B, K, s, barycenters, m)
        my_records = [r for r in sing.records
                      if s in (r.simplex_i, r.simplex_j)]
        earlier = set(tops[:i])
        for attempt in range(1, _BARYCENTER_ATTEMPTS + 1):
            w = _candidate_weights(candidate_hook, rng, s)
            apex = _combine(pts, [w[v] for v in s.vertices])
            if on_any_record(apex):
                continue
            ok, crossings = _check_cone(apex, boundary_cells, my_records, s,
                                        earlier, crossing_points)
            if ok:
                weights[s] = w
                barycenters[s] = apex
                attempts[s] = attempt
                for key, pts_list in crossings.items():
                    crossing_points[key] = pts_list
                break
        else:
            raise RejectionBudgetError("no admissible barycenter for %s" % (s,))

    se = SpineEmbedding(
        base=m, subdivision=B, spine=K, weights=weights, barycenters=barycenters,
        singular=sing, attempts=attempts)
    return replace(se, delta_sq=_far_cells_delta_sq(se))


def _candidate_weights(candidate_hook, rng, s):
    """Interior weights on s: the hook's candidate if it offers one, else a sample."""
    w = candidate_hook(rng, s) if candidate_hook else None
    if not w:
        raw = {v: rng.randint(1, 64) for v in s.vertices}
        total = sum(raw.values())
        return {v: Fraction(a, total) for v, a in raw.items()}
    if set(w) != set(s.vertices) or min(w.values()) <= 0 or sum(w.values()) != 1:
        raise ValidationError("candidate weights %r for %s are not interior" % (w, s))
    return w


def _far_cells_delta_sq(se):
    """Least squared distance between spine cells carried by maximal
    simplices that share at most one vertex.

    The cell pairs are visited by the squared distance of their bounding
    boxes, a lower bound on the pair's distance, and the search stops once
    that bound reaches the least distance found, so the minimum is exact.
    """
    tops = se.base.domain.maximal_simplices
    cells = {s: se.spine_cells_in(s) for s in tops}
    points = {c: se.cell_points(c) for cs in cells.values() for c in cs}
    boxes = {c: _bbox(pts) for c, pts in points.items()}
    pairs = []
    for s1, s2 in itertools.combinations(sorted(tops), 2):
        if len(set(s1.vertices) & set(s2.vertices)) > 1:
            continue
        for c1 in cells[s1]:
            for c2 in cells[s2]:
                pairs.append((_bbox_sqdist(boxes[c1], boxes[c2]), len(pairs), c1, c2))
    pairs.sort()
    delta_sq = None
    for bound, _, c1, c2 in pairs:
        if delta_sq is not None and bound >= delta_sq:
            break
        val = simplex_pair_sqdist(points[c1], points[c2])
        if delta_sq is None or val < delta_sq:
            delta_sq = val
    if delta_sq == 0:
        raise ConstructionError("spine cells of far simplices touch (delta = 0)")
    return delta_sq


def _boundary_spine_cells(B, K, top, barycenters, m):
    """Maximal cells of the spine of the boundary of ``top``, as point lists."""
    cells = []
    proper = {f for f in top.faces() if f.dim >= 1}
    labels = {B.barycenter_table[f] for f in proper}
    sub = full_subcomplex(K, labels)
    for s in sub.maximal_simplices:
        pts = []
        for v in s.vertices:
            parent = B.carrier_of_label(v)
            pts.append(barycenters[parent])
        cells.append(pts)
    return cells


def _check_cone(apex, boundary_cells, my_records, top, earlier, old_crossings):
    """Certify one candidate apex: transverse crossings only, none of them
    already on an earlier cone's image."""
    try:
        return _check_cone_inner(apex, boundary_cells, my_records, top,
                                 earlier, old_crossings)
    except GeneralPositionError:
        return False, None


def _check_cone_inner(apex, boundary_cells, my_records, top, earlier, old_crossings):
    crossings = {}
    for r in my_records:
        if r.kind != "segment":
            # Point records: the cone must simply avoid the point.
            for cell in boundary_cells:
                cone = [apex] + cell
                if point_in_simplex(r.ambient[0], cone) is not None:
                    return False, None
            continue
        a, b = r.ambient
        pts_here = []
        for cell in boundary_cells:
            cone = [apex] + cell
            inter = simplex_pair_intersection(cone, [a, b])
            if inter.kind == "empty":
                continue
            if inter.kind == "segment":
                return False, None  # non-transverse: overlapping segment
            pt = inter.points[0]
            if pt == a or pt == b:
                return False, None  # touches a record endpoint
            bary = point_in_simplex(pt, cone)
            if bary is None or any(x == 0 for x in bary):
                return False, None  # crossing on the cone boundary
            pts_here.append(pt)
        other = r.simplex_j if r.simplex_i == top else r.simplex_i
        key = (top, other)
        crossings[key] = pts_here
        if other in earlier:
            # Images of the earlier cone's crossings must be avoided.
            for q in old_crossings.get((other, top), ()):
                for cell in boundary_cells:
                    cone = [apex] + cell
                    if point_in_simplex(q, cone) is not None:
                        return False, None
    return True, crossings


def epsilon_neighborhood_embedding(se):
    """Fix epsilon, build the collar neighborhood of the spine and certify
    that the map embeds it, by exact checks on the far collar pairs.

    ``epsilon`` is the largest ``2^-k <= 1/4`` with
    ``16 L^2 epsilon^2 <= delta_sq``, where ``delta_sq`` is the spine
    certificate of ``choose_spine_barycenters`` and L^2 the largest sum of
    squared edge vectors from a top's first vertex; a power of two keeps the
    collar coordinates short.
    """
    m = se.base
    lip_sq = ZERO
    for s in m.domain.maximal_simplices:
        pts = m.simplex_points(s)
        base = pts[0]
        acc = sum((vlensq(vsub(p, base)) for p in pts[1:]), ZERO)
        if acc > lip_sq:
            lip_sq = acc

    if se.delta_sq is None or lip_sq == 0:
        epsilon = Fraction(1, 4)
    else:
        epsilon = dyadic_floor_sqrt(se.delta_sq / (16 * lip_sq))

    Y = se.subdivision.child
    K = se.spine

    ycoords = {}
    for v in Y.vertices:
        ycoords[v] = se.spine_point(v) if v not in m.points else m.points[v]

    kverts = set(K.vertices)
    N, Ndot, sub = regular_neighborhood(Y, K)
    coords = dict(ycoords)
    for tau, label in sub.barycenter_table.items():
        if tau.dim == 0 or label in coords:
            continue
        kpart = [v for v in tau.vertices if v in kverts]
        opart = [v for v in tau.vertices if v not in kverts]
        if kpart and opart:
            ka = _avg([ycoords[v] for v in kpart])
            oa = _avg([ycoords[v] for v in opart])
            coords[label] = vadd(vscale(1 - epsilon, ka), vscale(epsilon, oa))
        else:
            coords[label] = _avg([ycoords[v] for v in tau.vertices])

    npoints = {v: coords[v] for v in N.vertices}
    nbhd = GeometricComplex(complex=N, points=npoints)

    carriers = {}
    for s in N.simplices:
        tau = sub.carrier[s]
        carriers[s] = se.subdivision.carrier[tau]

    _verify_collar_injective(nbhd, carriers, m.n)

    return replace(se, epsilon=epsilon, nbhd=nbhd, nbhd_sub=sub, frontier=Ndot)


def _avg(pts):
    acc = tuple(ZERO for _ in pts[0])
    for p in pts:
        acc = vadd(acc, p)
    return vscale(Fraction(1, len(pts)), acc)


def _verify_collar_injective(nbhd, carriers, n):
    """Far carrier pairs must have disjoint images; near pairs are embedded
    jointly because their carrier union stays within general position."""
    N = nbhd.complex
    maximal = N.maximal_simplices
    pts = {s: nbhd.simplex_points(s) for s in maximal}
    boxes = {s: _bbox(pts[s]) for s in maximal}
    for s1, s2 in itertools.combinations(maximal, 2):
        c1, c2 = carriers[s1], carriers[s2]
        d3 = len(set(c1.vertices) & set(c2.vertices)) - 1
        if c1.dim + c2.dim - d3 <= n:
            continue
        if _bbox_disjoint(boxes[s1], boxes[s2]):
            continue
        if n == 3 and s1.dim == 2 and s2.dim == 2:
            inter = triangle_triangle_intersection(pts[s1], pts[s2])
        else:
            inter = simplex_pair_intersection(pts[s1], pts[s2])
        if inter.kind != "empty":
            raise ConstructionError(
                "collar simplices %s, %s intersect (carriers %s, %s)"
                % (s1, s2, c1, c2))
