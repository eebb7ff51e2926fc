"""Integer simplicial homology: coreduction, then a Smith normal form.

All arithmetic is arbitrary-precision integer; torsion coefficients are
exact.

Coreduction (Mrozek-Batko, "Coreduction homology algorithm", DCG 2009)
first shrinks the chain complex without any arithmetic.  A coreduction
pair is a live cell b whose boundary, restricted to the live cells, is
one face: ∂b = ±a.  Deleting a and b keeps the homology, and the boundary
of what is left is the old one restricted.  This is the elementary
reduction of Kaczynski-Mischaikow-Mrozek (*Computational Homology*, 2004):
write ∂_{k+1} in blocks, with row a and column b first,

    ∂_{k+1} = [[e, β], [γ, δ]],  e = ±1,

then the chain complex without a and b, with ∂_{k+1} replaced by
δ - γ e β, ∂_{k+2} restricted to the rows other than b and ∂_k to the
columns other than a, is chain homotopy equivalent to the old one.  For a
coreduction pair γ = 0, so every map is a restriction.  By induction each
remainder is the original complex restricted to its cells, and its
boundary columns are built directly, with no fill.

In the absolute case one vertex v goes first.  ∂v = 0, so ⟨v⟩ is a
subcomplex.  The augmentation sends [v] to 1, so Z[v] is a direct summand
of H_0(X), and the long exact sequence of 0 -> ⟨v⟩ -> C -> C/⟨v⟩ -> 0
gives H_*(X) = H_*(C/⟨v⟩) plus one Z in dimension 0.  A relative complex
loses no vertex: [v] may vanish in H_0(X, A), and then H_0(⟨v⟩) ->
H_0(X, A) is not injective.

The Smith normal form of the remainder first exhausts unit pivots (first
in, first out), then finishes the usually tiny rest with the classic
smallest-pivot algorithm.  The boundary maps are reduced from the top
dimension down, with clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011): a unit pivot at row sigma of a reduced
column c of the (k+1)-th boundary map means that the boundary of c is
+-sigma + sum a_i tau_i over rows tau_i not yet pivoted, so the boundary of
sigma is -+sum a_i (boundary of tau_i).  Column sigma of the k-th map then
lies in the integer span of the remaining columns, and by induction over
the pivots, dropping every such column keeps the column lattice, hence the
rank and the nonzero Smith invariants, of the k-th map
(Kaczynski-Mischaikow-Mrozek).  Only unit pivots clear: a pivot d > 1 puts
just d times a column in the span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex_core import _pair_off
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
    ix = X.incidence()
    excluded = _excluded(X, rel)
    return _chain_complex(ix, [[x for x in ix.ids(k) if ix.cells[x] not in excluded]
                               for k in range(X.dim + 1)])


def _excluded(X, rel):
    if rel is not None and not rel.is_subcomplex_of(X):
        raise ValidationError("relative subcomplex is not contained in X")
    return rel.simplices if rel is not None else frozenset()


def _chain_complex(ix, bases):
    """The chain complex on the given cell ids of the incidence index ix,
    ascending per dimension.  A facet outside the (k-1)-basis has no row and
    is dropped, so a subset of cells gets the restricted map."""
    matrices = {}
    for k in range(1, len(bases)):
        row = dict(zip(bases[k - 1], range(len(bases[k - 1]))))
        # Facet rows run in combinations order: entry j drops position k - j.
        signs = tuple((-1) ** (k - j) for j in range(k + 1))
        matrices[k] = [
            {r: sign for r, sign in zip(map(row.get, ix.down(x)), signs) if r is not None}
            for x in bases[k]]
    return ChainComplex(bases={k: tuple(map(ix.cells.__getitem__, b))
                               for k, b in enumerate(bases)},
                        matrices=matrices)


def coreduce(X, rel=None):
    """Coreduce the chain complex of X (or of (X, rel)) and return the
    remainder with the number of vertices removed (module docstring).

    ``_pair_off`` pairs each cell with its faces on X's incidence index,
    with the cells of ``rel`` dead from the start: a cell whose count of
    live faces drops to 1 joins a FIFO queue, so the pairs, and the
    remainder, depend on id order only.  Returns ``(cc, removed)``: cc is
    the original chain complex restricted to the cells left, and
    ``removed`` is 1 when a vertex was taken out of an absolute complex (it
    adds 1 to b_0), else 0.
    """
    excluded = _excluded(X, rel)
    ix = X.incidence()
    # (X, ∅) is absolute; a relative complex never loses a vertex.  Id 0 is
    # the first vertex.
    removed = int(bool(ix.cells) and not excluded)
    dead = [x for x, s in enumerate(ix.cells) if s in excluded] if excluded else ()
    alive, _ = _pair_off((ix.facet_start, ix.facets), (ix.coface_start, ix.cofaces),
                         dead=dead, first=0 if removed else None)
    return _chain_complex(ix, [[x for x in ix.ids(k) if alive[x]]
                               for k in range(X.dim + 1)]), removed


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
    set of rows used as unit pivots of its reduced columns.

    Unit entries are pivots first in, first out: the queue starts with
    every ±1 entry in column order, elimination appends each entry it turns
    into ±1, and an entry whose column is gone or whose value is no longer
    ±1 is skipped.  Any order gives the same diagonal, because column
    operations clear the pivot's row and row operations then clear its
    column without touching any other, so the matrix splits as ±1 plus the
    rest; the clearing argument (module docstring) holds pivot by pivot.
    """
    live = {c: col for c, col in enumerate(cols) if col}
    row_cols = {}
    queue = []
    for c, col in live.items():
        for r, v in col.items():
            row_cols.setdefault(r, set()).add(c)
            if v in (1, -1):
                queue.append((r, c))

    pivot_rows = set()
    for r, c in queue:
        col = live.get(c)
        if col is None or col.get(r) not in (1, -1):
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
                        queue.append((rr, c2))
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
    return ones + _dense_snf(dense), pivot_rows


def _dense_snf(m):
    """Classic Smith normal form on a small dense matrix; returns diagonal.

    The diagonal is a divisibility chain as it comes out: the repair loop
    leaves the pivot d_t dividing every entry right of and below it, later
    steps only add integer multiples of those entries to each other, so
    every later pivot is a multiple of d_t.
    """
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


def homology_groups(X, rel=None):
    """Betti numbers and torsion coefficients of X (or of (X, rel)).

    The chain complex is coreduced first; the boundary maps of the
    remainder are reduced top-down, and the unit pivot rows of the (k+1)-th
    map clear the matching columns of the k-th (module docstring).
    """
    if X.dim < 0:
        return HomologyResult(betti=(), torsion=())
    cc, removed = coreduce(X, rel=rel)
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
    betti[0] += removed
    result = HomologyResult(betti=tuple(betti), torsion=tuple(torsion))
    chi = X.euler_characteristic() - (rel.euler_characteristic() if rel is not None else 0)
    if result.euler() != chi:
        raise ConstructionError("homology Euler characteristic mismatch")
    return result
