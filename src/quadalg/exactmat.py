"""Small exact linear algebra over Q or Q(sqrt k).

Matrices are tuples of tuples of field elements: exact rationals in the
canonical form of `scalars` (an int when integral, else a Fraction) or
QuadExtScalar.  `det`, `mat_inv`, `rank` and `independent` share one
Gauss-Jordan elimination, and its one division is `scalars.div`.

Every kernel skips zeros: products and inner sums multiply only pairs of
nonzero entries, and the elimination scales and clears only nonzero
entries.  Most 8x8 and 27x27 maps this package builds are monomial, so a
product of two of them costs n multiplications instead of n^3, with no
second matrix type: a matrix is the same dense tuple whatever its shape.
A zero entry of a result may come back as the int 0 where the dense sum
gave QuadExtScalar(0, 0, k); the two are equal and hash alike.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scalars import div, rat

Matrix = tuple[tuple, ...]
Vector = tuple


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return freeze([[int(i == j) for j in range(n)] for i in range(n)])


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


def dot(v: Sequence, w: Sequence):
    return _dot(v, _nonzeros(w))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(col, nz) for col in bt) for nz in map(_nonzeros, a))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    nz = _nonzeros(v)
    return tuple(_dot(row, nz) for row in a)


def scal_mul(c, a: Matrix) -> Matrix:
    return freeze([[rat(c * x) for x in row] for row in a])


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


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


def _reduce(rows: list[list], ncols: int) -> tuple[list[int], object]:
    """Gauss-Jordan elimination of `rows`, in place, over the first `ncols`
    columns: each pivot row is scaled to 1 and its column cleared in every
    other row.  Returns the pivot columns and the determinant of the
    leading square block (0 as soon as a column has no pivot)."""
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            d = d * 0
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            d = -d
        p = rows[r][col]
        d = rat(d * p)
        inv = div(1, p)
        rows[r] = [rat(x * inv) if x else x for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [rat(x - f * y) if y else x for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots, d


def det(a: Matrix):
    return _reduce([list(row) for row in a], len(a))[1]


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    m = [list(row) + list(e) for row, e in zip(a, identity(n))]
    if len(_reduce(m, n)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    return freeze([row[n:] for row in m])


def rank(a: Matrix) -> int:
    return len(_reduce([list(row) for row in a], len(a[0]) if a else 0)[0])


def independent(vecs: Sequence[Vector]) -> list[Vector]:
    """The vectors not in the span of the ones before them: the pivot
    columns of the matrix whose columns are `vecs`."""
    pivots, _ = _reduce([list(row) for row in zip(*vecs)], len(vecs))
    return [vecs[c] for c in pivots]
