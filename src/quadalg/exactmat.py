"""Small exact linear algebra over Q or Q(sqrt k), on matrices stored as
their nonzeros.

A `Matrix` holds its shape and, for each row, the ascending (column,
value) pairs of its nonzero entries, each in the canonical form of
`scalars` (an int when integral, else a Fraction; or an element of K, or
a Laurent polynomial).  No zero is stored, neither the int 0 nor
QuadExtScalar(0, 0, k), so two matrices are equal, and hash alike, when
their shapes and nonzeros are.  `freeze` is the one way in from dense
rows and `dense` the one way out.  Every other module builds a matrix
from its nonzeros (`from_nonzeros`, `diagonal`, `identity`) and reads one
through `entry`, `row`, `column`, `submatrix`, `nonzeros`, `entrywise`
and `dense`.  Vectors are dense tuples.

Every kernel reads only stored entries, and raises ValueError when the
shapes of its arguments do not fit.  `mat_mul` combines rows (Gustavson,
ACM TOMS 4(3), 1978), so a product makes one multiplication per nonzero
product a[i][j] b[j][c]: a product of two monomial n x n maps makes n.
A Gram form v^T g w is evaluated by `pairing`, and the Gram matrix of a
list of vectors, a^T g a for the matrix a whose columns they are, by
`pullback`.  `det`, `mat_inv`, `rank` and `independent` share one
elimination with row interchanges, which updates only the rows that hold
a pivot's column: the determinant of a monomial n x n map makes n
multiplications and its inverse 2n.  `diagonalize`, the symmetric
elimination of a Gram matrix, clears each pivot from the rows that hold
it by the same row update, `_eliminate`.  Every division is
`scalars.div`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache

from .scalars import _Frozen, as_scalar, div, exact_sum, iota, rat

Vector = tuple


class Matrix(_Frozen):
    """An n x m matrix: its shape (n, m) and `rows`, one tuple per row of
    the ascending (column, value) pairs of its nonzero entries.  The
    constructor stores what it is given; the functions of this module
    build every matrix, and they alone read `rows`."""

    __slots__ = ("shape", "rows")

    def __hash__(self):
        return hash(self._key())

    def __bool__(self) -> bool:
        """Whether some entry is nonzero."""
        return any(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.shape}, {self.rows})"


class _Coords(_Frozen):
    """A vector of `DIM` exact coordinates (`scalars.as_scalar` applied to
    each) with its linear structure, the base of the octonions and the
    Albert elements, which add their own products."""

    __slots__ = ("coords",)
    DIM = 0

    def __init__(self, coords: Sequence):
        if len(coords) != self.DIM:
            raise ValueError(f"{type(self).__name__} needs {self.DIM} coordinates")
        super().__init__(tuple(as_scalar(c) for c in coords))

    def __add__(self, other):
        return type(self)([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return type(self)([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return type(self)([-a for a in self.coords])

    def __rmul__(self, scalar):
        return type(self)([scalar * a for a in self.coords])

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self) -> bool:
        return any(bool(c) for c in self.coords)

    def iota(self):
        """Entrywise Galois conjugation of the coordinates."""
        return type(self)([iota(c) for c in self.coords])


def _size(a: Matrix) -> str:
    return "x".join(map(str, a.shape))


def _pairs(row: dict) -> tuple:
    """The ascending (column, value) pairs of a row held as a dict
    {column: value}, canonical, with the zeros left out."""
    return tuple(sorted([(c, rat(x)) for c, x in row.items() if x]))


def freeze(rows: Sequence[Sequence]) -> Matrix:
    """The matrix with the given dense rows, which must have one length."""
    rows = [tuple(row) for row in rows]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("the rows of a matrix must have one length")
    stored = tuple(tuple([(c, rat(x)) for c, x in enumerate(row) if x]) for row in rows)
    return Matrix((len(rows), width), stored)


def _written_out(pairs, m: int) -> Vector:
    full = [0] * m
    for c, x in pairs:
        full[c] = x
    return tuple(full)


def dense(a: Matrix) -> tuple[tuple, ...]:
    """The rows of a written out, with the int 0 where a stores nothing."""
    return tuple(_written_out(pairs, a.shape[1]) for pairs in a.rows)


def from_nonzeros(n: int, m: int, entries) -> Matrix:
    """The n x m matrix with x at each (r, c, x) of `entries` and zero
    everywhere else; a later entry at a place replaces an earlier one."""
    placed = {}
    for r, c, x in entries:
        if not (0 <= r < n and 0 <= c < m):
            raise IndexError(f"({r}, {c}) lies outside the {n}x{m} matrix")
        placed[r, c] = x
    rows = [[] for _ in range(n)]
    for r, c in sorted(placed):
        if x := placed[r, c]:
            rows[r].append((c, rat(x)))
    return Matrix((n, m), tuple(map(tuple, rows)))


def diagonal(entries: Sequence) -> Matrix:
    n = len(entries)
    return from_nonzeros(n, n, [(i, i, x) for i, x in enumerate(entries)])


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    """The n x n identity, built once per n: matrices are immutable."""
    return diagonal([1] * n)


# --------------------------------------------------------------------------
# reading a matrix


def nonzeros(a: Matrix) -> Iterator[tuple]:
    """The (r, c, x) of the nonzero entries, row by row, columns ascending."""
    return ((r, c, x) for r, pairs in enumerate(a.rows) for c, x in pairs)


def _check_place(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> None:
    n, m = a.shape
    if any(not 0 <= r < n for r in rows) or any(not 0 <= c < m for c in cols):
        raise IndexError(f"an index lies outside the {_size(a)} matrix")


def entry(a: Matrix, r: int, c: int):
    """a[r][c]: the int 0 where a stores nothing."""
    _check_place(a, (r,), (c,))
    return next((x for j, x in a.rows[r] if j == c), 0)


def row(a: Matrix, r: int) -> Vector:
    _check_place(a, (r,), ())
    return _written_out(a.rows[r], a.shape[1])


def column(a: Matrix, c: int) -> Vector:
    _check_place(a, (), (c,))
    return tuple(next((x for j, x in pairs if j == c), 0) for pairs in a.rows)


def submatrix(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    """The matrix of a's entries in the given rows and the given distinct
    columns, in the order given."""
    _check_place(a, rows, cols)
    place = {c: j for j, c in enumerate(cols)}
    if len(place) != len(cols):
        raise ValueError("the columns of a submatrix must be distinct")
    picked = tuple(tuple(sorted((place[c], x) for c, x in a.rows[r] if c in place)) for r in rows)
    return Matrix((len(picked), len(place)), picked)


def entrywise(f: Callable, a: Matrix) -> Matrix:
    """The matrix f(a[r][c]), for an f that sends zero to zero: f is
    applied to the stored entries only."""
    stored = tuple(tuple([(c, y) for c, x in pairs if (y := rat(f(x)))]) for pairs in a.rows)
    return Matrix(a.shape, stored)


# --------------------------------------------------------------------------
# products and Gram forms


def transpose(a: Matrix) -> Matrix:
    n, m = a.shape
    cols = [[] for _ in range(m)]
    for r, pairs in enumerate(a.rows):
        for c, x in pairs:
            cols[c].append((r, x))
    return Matrix((m, n), tuple(map(tuple, cols)))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    if len(v) != a.shape[1]:
        raise ValueError(f"cannot apply a {_size(a)} matrix to {len(v)} coordinates")
    return tuple(exact_sum([x * y for c, x in pairs if (y := v[c])]) for pairs in a.rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b by rows: each nonzero a[i][j], j ascending, adds b[j][c] * a[i][j]
    for the nonzero b[j][c] to row i, and the sums that cancel are left
    out."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {_size(a)} by {_size(b)}")
    b_rows = b.rows
    out = []
    for pairs in a.rows:
        if len(pairs) == 1:
            # row j of b times a[i][j]: no product is zero, as the scalars form a domain
            ((j, x),) = pairs
            out.append(tuple([(c, rat(y * x)) for c, y in b_rows[j]]))
            continue
        acc = {}
        for j, x in pairs:
            for c, y in b_rows[j]:
                v = acc.get(c)
                acc[c] = y * x if v is None else v + y * x
        out.append(_pairs(acc))
    return Matrix((a.shape[0], b.shape[1]), tuple(out))


def scal_mul(c, a: Matrix) -> Matrix:
    return entrywise(lambda x: c * x, a)


def pullback(a: Matrix, g: Matrix) -> Matrix:
    """a^T g a: the Gram matrix g pulled back along a."""
    return mat_mul(transpose(a), mat_mul(g, a))


def pairing(g: Matrix, v: Sequence, w: Sequence):
    """v^T g w: the products g[r][c] (v[r] w[c]) of nonzero factors, summed
    once by `exact_sum`, so the int 0 when there are none."""
    if (len(v), len(w)) != g.shape:
        raise ValueError(f"cannot pair {len(v)} and {len(w)} coordinates by a {_size(g)} form")
    terms = []
    for x, pairs in zip(v, g.rows):
        if x:
            terms += [y * (x * z) for c, y in pairs if (z := w[c])]
    return exact_sum(terms)


def ratio(a: Matrix, b: Matrix):
    """The scalar c with a = c b, or None when there is none or b is 0."""
    if a.shape != b.shape:
        raise ValueError(f"cannot compare {_size(a)} with {_size(b)}")
    c = None
    for pa, pb in zip(a.rows, b.rows):
        if pb and c is None:
            col, y = pb[0]
            c = div(next((x for j, x in pa if j == col), 0), y)
        if not c:  # a must be zero: c is 0, or no entry of b is seen yet
            if pa:
                return None
        elif len(pa) != len(pb) or any(i != j or x != c * y for (i, x), (j, y) in zip(pa, pb)):
            return None
    return c


# --------------------------------------------------------------------------
# elimination


def _eliminate(other: dict, col: int, p, pivot_row: dict) -> None:
    """Subtract other[col] / p times `pivot_row`, which does not hold col,
    from `other`, a row that does, clearing col: for a pivot p at col,
    `pivot_row` is the pivot's row with p left out."""
    f = div(other.pop(col), p)
    for c, y in pivot_row.items():
        v = rat(other.get(c, 0) - f * y)
        if v:
            other[c] = v
        else:
            other.pop(c, None)


def _reduce(rows: list[dict], ncols: int, back: bool = False) -> tuple[list[int], object]:
    """Gaussian elimination with row interchanges (Golub and Van Loan,
    Matrix Computations, 3.4), in place, of `rows`, each a dict {column:
    value} of a row's nonzero entries, over the columns 0..ncols-1.  Step
    t swaps the first row from t on that holds the next column into place
    t, negating the determinant, and clears the column from the rows after
    t; with `back` (Gauss-Jordan) from every other row, and each pivot row
    is scaled to 1 at the end.  So the rows end in pivot order.  Returns
    the pivot columns and, once every row is a pivot row, the determinant
    (0 as soon as a column has no pivot).

    Only a row that holds the pivot's column is updated: on a monomial
    matrix a column costs one multiplication for the determinant, with
    `back` one more per other nonzero of the pivot row."""
    pivots, d = [], 1
    for col in range(ncols):
        t = len(pivots)
        if t == len(rows):
            break
        piv = next((i for i in range(t, len(rows)) if col in rows[i]), None)
        if piv is None:
            d = d * 0
            continue
        if piv != t:
            rows[t], rows[piv] = rows[piv], rows[t]
            d = -d
        pivot_row = rows[t]
        p = pivot_row.pop(col)
        d = rat(d * p)
        for other in rows if back else rows[t + 1 :]:
            if col in other:  # never the pivot row, which p has left
                _eliminate(other, col, p, pivot_row)
        pivot_row[col] = p
        pivots.append(col)
    if back:
        for i, col in enumerate(pivots):
            inv = div(1, rows[i][col])
            rows[i] = {c: 1 if c == col else rat(x * inv) for c, x in rows[i].items()}
    return pivots, d


def _square(a: Matrix) -> int:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a {_size(a)} matrix is not square")
    return a.shape[0]


def det(a: Matrix):
    return _reduce([dict(pairs) for pairs in a.rows], _square(a))[1]


def mat_inv(a: Matrix) -> Matrix:
    """The inverse: each row i of a, with 1 at column n + i, reduced, and
    the inverse read off the columns past n."""
    n = _square(a)
    rows = [dict((*pairs, (n + i, 1))) for i, pairs in enumerate(a.rows)]
    if len(_reduce(rows, n, back=True)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    inverse = tuple(tuple(sorted((c - n, x) for c, x in r.items() if c >= n)) for r in rows)
    return Matrix((n, n), inverse)


def rank(a: Matrix) -> int:
    return len(_reduce([dict(pairs) for pairs in a.rows], a.shape[1])[0])


def independent(vecs: Sequence[Vector]) -> list[Vector]:
    """The vectors not in the span of the ones before them: the pivot
    columns of the matrix whose columns are `vecs`."""
    columns = transpose(freeze(vecs))
    pivots, _ = _reduce([dict(pairs) for pairs in columns.rows], len(vecs))
    return [vecs[c] for c in pivots]


def diagonalize(g: Matrix) -> list:
    """The diagonal of a diagonal matrix congruent to the symmetric g, by
    symmetric elimination on g's stored rows: step t pivots on the first
    place from t on with a nonzero diagonal entry and clears its column,
    and so its row, by `_eliminate`.  When every diagonal entry left is
    zero, row and column j, the first neighbour of the first nonzero row
    i, are first added to row and column i, which makes g[i][i] =
    2 g[i][j] (Lam, Introduction to Quadratic Forms over Fields, I.2); a
    zero block left is a degenerate g, a ValueError.  `order` lists the
    rows by place."""
    n = _square(g)
    rows = [dict(pairs) for pairs in g.rows]
    order = list(range(n))
    out = []
    for t in range(n):
        left = order[t:]
        piv = next((i for i in left if i in rows[i]), None)
        if piv is None:
            piv = next((i for i in left if rows[i]), None)
            if piv is None:
                raise ValueError("degenerate Gram matrix")
            # row piv += row j by `_eliminate`, as g[j][j] = 0, then column
            # piv += column j by symmetry
            pivot_row = rows[piv]
            j = min(pivot_row, key=order.index)
            x = pivot_row[j]
            _eliminate(pivot_row, j, -x, rows[j])
            pivot_row[j], pivot_row[piv] = x, rat(2 * x)
            for m in rows[j].keys() - {piv}:
                if m in pivot_row:
                    rows[m][piv] = pivot_row[m]
                else:
                    rows[m].pop(piv)
        p = order.index(piv)
        order[t], order[p] = piv, order[t]
        pivot_row = rows[piv]
        d = pivot_row.pop(piv)
        out.append(d)
        for i in pivot_row:
            _eliminate(rows[i], piv, d, pivot_row)
    return out
