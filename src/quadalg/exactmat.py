"""Small exact linear algebra over Q or Q(sqrt k).

Matrices are tuples of tuples of field elements: exact rationals in the
canonical form of `scalars` (an int when integral, else a Fraction) or
QuadExtScalar.  A fixed matrix is written as its nonzeros: `from_nonzeros`
places them and puts the int 0 everywhere else, and `diagonal` and
`identity` are built on it, so no other module fills rows of zeros.  A
Gram form v^T g w is evaluated in one place, `pairing`.  `det`,
`mat_inv`, `rank` and `independent` share one Gauss-Jordan elimination,
and its one division is `scalars.div`.

Every kernel skips zeros.  `mat_mul` combines rows (Gustavson's order),
so a product costs one multiplication per nonzero product a[i][j] b[j][c]
besides one pass over each factor.  The elimination holds each row as a
dict of its nonzero entries and touches only those.  Most 8x8 and 27x27
maps this package builds are monomial, so a product of two of them makes
n multiplications, its determinant n and its inverse 2n, with no second
matrix type.  A zero entry of a result may come back as the int 0
where the dense sum gave QuadExtScalar(0, 0, k); the two are equal and
hash alike, so matrices compare with `==`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .scalars import div, exact_sum, rat

Matrix = tuple[tuple, ...]
Vector = tuple


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def from_nonzeros(n: int, m: int, entries) -> Matrix:
    """The n x m matrix with x at each (r, c, x) of `entries` and the int 0
    everywhere else; a later entry at a place replaces an earlier one."""
    rows = [[0] * m for _ in range(n)]
    for r, c, x in entries:
        rows[r][c] = x
    return freeze(rows)


def diagonal(entries: Sequence) -> Matrix:
    n = len(entries)
    return from_nonzeros(n, n, [(i, i, x) for i, x in enumerate(entries)])


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    """The n x n identity, built once per n: the tuples are immutable."""
    return diagonal([1] * n)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _nonzeros(v: Sequence) -> list:
    return [(j, x) for j, x in enumerate(v) if x]


def _dot(row: Sequence, nonzeros: list):
    """The sum of row[j] * x over the (j, x) in `nonzeros` with row[j]
    nonzero, in canonical form; 0 when there is no such term."""
    out = None
    for j, x in nonzeros:
        y = row[j]
        if y:
            out = y * x if out is None else out + y * x
    return 0 if out is None else rat(out)


def pairing(g: Matrix, v: Sequence, w: Sequence):
    """v^T g w: the products g[r][c] (v[r] w[c]) of nonzero factors, summed
    once by `exact_sum`, so the int 0 when there are none."""
    ws = _nonzeros(w)
    terms = []
    for r, x in _nonzeros(v):
        row = g[r]
        terms += [row[c] * (x * y) for c, y in ws if row[c]]
    return exact_sum(terms)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b by rows: each nonzero a[i][j], j ascending, adds b[j][c] * a[i][j]
    for the nonzero b[j][c] to row i, so each entry is the sum `_dot` gives."""
    b_rows = [_nonzeros(row) for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = {}
        for j, x in enumerate(row):
            if x:
                for c, y in b_rows[j]:
                    v = acc.get(c)
                    acc[c] = y * x if v is None else v + y * x
        dense = [0] * width
        for c, v in acc.items():
            dense[c] = rat(v)
        out.append(tuple(dense))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    nz = _nonzeros(v)
    return tuple(_dot(row, nz) for row in a)


def scal_mul(c, a: Matrix) -> Matrix:
    return freeze([[rat(c * x) for x in row] for row in a])


def pullback(a: Matrix, g: Matrix) -> Matrix:
    """a^T g a: the Gram matrix g pulled back along a."""
    return mat_mul(transpose(a), mat_mul(g, a))


def ratio(a: Matrix, b: Matrix):
    """The scalar c with a = c b, or None when there is none or b is 0."""
    c = None
    for r, s in zip(a, b):
        for x, y in zip(r, s):
            if not y:
                if x:
                    return None
            elif c is None:
                c = div(x, y)
            elif x != c * y:
                return None
    return c


def _reduce(rows: Sequence[Sequence], ncols: int) -> tuple[list[int], object, list[dict]]:
    """Gauss-Jordan elimination of `rows` over the first `ncols` columns:
    each pivot row is scaled to 1 and its column cleared in every other
    row.  Returns the pivot columns, the determinant of the leading square
    block (0 as soon as a column has no pivot) and the reduced rows.

    Each row is held as a dict {column: value} of its nonzero entries, so
    a pivot is found by membership and only nonzeros are scaled and
    cleared: on a monomial matrix a column costs one multiplication for
    the determinant and one per other nonzero of the pivot row."""
    nz = [dict(_nonzeros(row)) for row in rows]
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(nz):
            break
        piv = next((i for i in range(r, len(nz)) if col in nz[i]), None)
        if piv is None:
            d = d * 0
            continue
        if piv != r:
            nz[r], nz[piv] = nz[piv], nz[r]
            d = -d
        row = nz[r]
        p = row.pop(col)
        d = rat(d * p)
        inv = div(1, p)
        for c, x in row.items():
            row[c] = rat(x * inv)
        for other in nz:
            f = other.pop(col, None)
            if f is None:
                continue
            for c, y in row.items():
                v = rat(other.get(c, 0) - f * y)
                if v:
                    other[c] = v
                else:
                    other.pop(c, None)
        row[col] = 1
        pivots.append(col)
    return pivots, d, nz


def det(a: Matrix):
    return _reduce(a, len(a))[1]


def mat_inv(a: Matrix) -> Matrix:
    """The inverse, read off the right half of [a | 1] reduced and written
    back dense, with the int 0 for every zero."""
    n = len(a)
    pivots, _, rows = _reduce([[*row, *e] for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row.get(c, 0) for c in range(n, 2 * n)) for row in rows)


def rank(a: Matrix) -> int:
    return len(_reduce(a, len(a[0]) if a else 0)[0])


def independent(vecs: Sequence[Vector]) -> list[Vector]:
    """The vectors not in the span of the ones before them: the pivot
    columns of the matrix whose columns are `vecs`."""
    pivots, _, _ = _reduce(list(zip(*vecs)), len(vecs))
    return [vecs[c] for c in pivots]
