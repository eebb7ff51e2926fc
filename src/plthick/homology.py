"""Integer simplicial homology via Smith normal form.

All arithmetic is arbitrary-precision integer; torsion coefficients are
exact.  The Smith normal form first exhausts unit pivots (chosen to limit
fill), then finishes the usually tiny remainder with the classic
smallest-pivot algorithm.

The boundary maps are reduced from the top dimension down, with clearing
(Chen-Kerber, "Persistent homology computation with a twist", 2011): a unit
pivot at row sigma of a reduced column c of the (k+1)-th boundary map means
that the boundary of c is +-sigma + sum a_i tau_i over rows tau_i not yet
pivoted, so the boundary of sigma is -+sum a_i (boundary of tau_i).  Column
sigma of the k-th map then lies in the integer span of the remaining
columns, and by induction over the pivots, dropping every such column keeps
the column lattice, hence the rank and the nonzero Smith invariants, of the
k-th map (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004).
Only unit pivots clear: a pivot d > 1 puts just d times a column in the span.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ConstructionError, ValidationError


@dataclass(frozen=True)
class ChainComplex:
    """Ordered simplex bases per dimension and integer boundary columns.

    ``matrices[k]`` holds one ``{row: coeff}`` dict per k-simplex, rows
    indexing the (k-1)-basis.  Relative chains simply omit the subcomplex's
    simplices from the bases.
    """

    bases: dict
    matrices: dict

    def rank(self, k):
        return len(self.bases.get(k, ()))


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion coefficients per dimension."""

    betti: tuple
    torsion: tuple

    def __str__(self):
        parts = []
        for k, b in enumerate(self.betti):
            t = "+".join("Z/%d" % d for d in self.torsion[k])
            parts.append("H%d=Z^%d%s" % (k, b, ("+" + t) if t else ""))
        return " ".join(parts)

    def euler(self):
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def padded(self, n):
        """The same groups listed up to dimension n - 1, zero above."""
        return HomologyResult(betti=self.betti + (0,) * (n - len(self.betti)),
                              torsion=self.torsion + ((),) * (n - len(self.torsion)))

    def agrees_with(self, other):
        """Group-by-group equality, padding the shorter result with zeros."""
        n = max(len(self.betti), len(other.betti))
        return self.padded(n) == other.padded(n)


def boundary_matrices(X, rel=None):
    """Chain complex of X, optionally relative to a subcomplex.

    ∂∂ = 0 holds by construction.  The face that drops position i of a
    k-simplex gets sign (-1)^i, so a (k-2)-face missing positions i < l is
    reached twice, with signs (-1)^(i + l - 1) and (-1)^(l + i), which
    cancel.  The relative subcomplex is closed under faces: a dropped
    (k-1)-face has only dropped faces, so on the kept rows and columns the
    product is the absolute ∂∂ restricted.  The tests compute ∂∂ as the
    oracle.
    """
    if rel is not None and not rel.is_subcomplex_of(X):
        raise ValidationError("relative subcomplex is not contained in X")
    excluded = rel.simplices if rel is not None else frozenset()
    bases = {k: tuple(s for s in X.by_dim(k) if s not in excluded) for k in range(X.dim + 1)}
    matrices = {}
    for k in range(1, X.dim + 1):
        # A facet of the relative subcomplex has no row and is skipped.
        index = {s: i for i, s in enumerate(bases[k - 1])}
        # combinations(vs, k) drops position k first, then k - 1, ..., 0.
        signs = tuple((-1) ** (k - j) for j in range(k + 1))
        matrices[k] = [
            {r: sign for r, sign in zip(map(index.get, combinations(s, k)), signs)
             if r is not None}
            for s in bases[k]]
    return ChainComplex(bases=bases, matrices=matrices)


# -- Smith normal form -------------------------------------------------------


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form and the rank.

    ``matrix`` is a dense list of integer rows, all of the same length.
    Returns ``(diagonal, rank)`` with positive diagonal entries satisfying
    d1 | d2 | ... .
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows and matrix[0] is not None and len(matrix[0]) else 0
    cols = []
    for c in range(ncols):
        col = {}
        for r in range(nrows):
            v = matrix[r][c]
            if v:
                col[r] = v
        cols.append(col)
    diag, _ = _snf_diagonal_sparse(cols)
    return diag, len(diag)


def _snf_diagonal_sparse(cols):
    """Smith diagonal of a sparse column collection (destructive), and the
    set of rows used as unit pivots of its reduced columns."""
    live = {c: col for c, col in enumerate(cols) if col}
    row_cols = {}
    for c, col in live.items():
        for r in set(col):
            if col[r] == 0:
                del col[r]
                continue
            row_cols.setdefault(r, set()).add(c)

    def score(r, c):
        return (len(row_cols[r]) - 1) * (len(live[c]) - 1)

    heap = []
    for c, col in live.items():
        for r, v in col.items():
            if v in (1, -1):
                heapq.heappush(heap, (score(r, c), r, c))

    pivot_rows = set()
    while heap:
        sc, r, c = heapq.heappop(heap)
        col = live.get(c)
        if col is None or r not in col or col[r] not in (1, -1):
            continue
        if sc != score(r, c):
            heapq.heappush(heap, (score(r, c), r, c))
            continue
        pivot = col[r]
        pivot_rows.add(r)
        piv_entries = list(col.items())
        for c2 in list(row_cols[r]):
            if c2 == c:
                continue
            col2 = live[c2]
            factor = col2[r] * pivot
            for rr, vv in piv_entries:
                cur = col2.get(rr, 0) - factor * vv
                if cur:
                    if rr not in col2:
                        row_cols.setdefault(rr, set()).add(c2)
                    col2[rr] = cur
                    if cur in (1, -1):
                        heapq.heappush(heap, (score(rr, c2), rr, c2))
                elif rr in col2:
                    del col2[rr]
                    row_cols[rr].discard(c2)
            if not col2:
                del live[c2]
        for rr in list(col):
            row_cols[rr].discard(c)
        del live[c]
        row_cols.pop(r, None)

    ones = [1] * len(pivot_rows)
    if not live:
        return ones, pivot_rows

    # Dense fallback for the residue without unit entries.  No pivot here
    # may clear a column: the row operations mix rows, so a diagonal entry
    # names no single row, and a pivot d > 1 puts only d times a boundary
    # in the span, so clearing there could invent or lose torsion.
    rows = sorted({r for col in live.values() for r in col})
    rindex = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(live) for _ in rows]
    for j, (c, col) in enumerate(sorted(live.items())):
        for r, v in col.items():
            dense[rindex[r]][j] = v
    return _normalize_divisibility(ones + _dense_snf(dense)), pivot_rows


def _dense_snf(m):
    """Classic Smith normal form on a small dense matrix; returns diagonal."""
    m = [row[:] for row in m]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag = []
    t = 0
    while True:
        pr = pc = -1
        best = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if best is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = m[t][t]
            done = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // pivot
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // pivot
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # Ensure the pivot divides the rest of the submatrix.
        pivot = m[t][t]
        offender = None
        for i in range(t + 1, nr):
            row = m[i]
            for j in range(t + 1, nc):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        diag.append(abs(pivot))
        t += 1
        if t >= nr or t >= nc:
            break
    return diag


def _normalize_divisibility(diag):
    diag = [abs(d) for d in diag if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def homology_groups(X, rel=None):
    """Betti numbers and torsion coefficients of X (or of (X, rel)).

    The boundary maps are reduced top-down; the unit pivot rows of the
    (k+1)-th map clear the matching columns of the k-th (module docstring).
    """
    if X.dim < 0:
        return HomologyResult(betti=(), torsion=())
    cc = boundary_matrices(X, rel=rel)
    top = X.dim
    snf = {}
    cleared = set()
    for k in range(top, 0, -1):
        # cc is private to this call, so its columns are reduced in place.
        cols = [col for j, col in enumerate(cc.matrices[k]) if j not in cleared]
        snf[k], cleared = _snf_diagonal_sparse(cols)
    betti = []
    torsion = []
    for k in range(top + 1):
        b = cc.rank(k) - len(snf.get(k, ())) - len(snf.get(k + 1, ()))
        tor = tuple(d for d in snf.get(k + 1, ()) if d > 1)
        betti.append(b)
        torsion.append(tor)
    result = HomologyResult(betti=tuple(betti), torsion=tuple(torsion))
    chi = X.euler_characteristic() - (rel.euler_characteristic() if rel is not None else 0)
    if result.euler() != chi:
        raise ConstructionError("homology Euler characteristic mismatch")
    return result
