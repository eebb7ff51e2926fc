"""Exact rational geometry: general-position maps and their singular sets.

The paper maps X into R^{2d-1} in general position; ``thicken`` reads
X's rotation system instead and samples nothing.  This module keeps the
general-position lemma as a test oracle: the embedded collar
(``embedded_collar``) and the embedded rotation system are built on its
sampled maps, and the singular-set bounds are checked on them.

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
from dataclasses import dataclass
from fractions import Fraction

from plthick.complex_core import Complex
from plthick.errors import ValidationError


class GeneralPositionError(Exception):
    """A degeneracy was detected that general position rules out."""


class RejectionBudgetError(Exception):
    """Rejection sampling did not find an admissible point in budget."""


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
    positive-dimensional simplices in ``by_dim`` order, so they are visited
    as an all-pairs loop would.
    """
    ok, witness = verify_general_position(m)
    if not ok:
        raise GeneralPositionError("map not in general position (witness %s)" % (witness,))
    X = m.domain
    n = m.n
    simplices = [s for k in range(1, X.dim + 1) for s in X.by_dim(k)]
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
