import ast
import itertools
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import quadalg
from quadalg import albert, cayley, descent, exactmat, forms
from quadalg.exactmat import (
    dense,
    det,
    freeze,
    from_nonzeros,
    identity,
    independent,
    mat_inv,
    mat_mul,
    mat_vec,
    nonzeros,
    pairing,
    pullback,
    rank,
    ratio,
    scal_mul,
    transpose,
)
from quadalg.scalars import QuadExtScalar, as_rational, div, exact_sum, iota, rat, square_class

import reference  # the dense-tuple kernels and the dict-row diagonalization
from test_forms import form_value, split_hyperbolic  # the chain's split, kept as a reference


def K(x, y=0):
    return QuadExtScalar(x, y, 2)


def leibniz_det(a):
    """Reference determinant: the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term = term * a[i][p]
        total = total + term
    return total


def random_matrix(rng, n, quad):
    def entry():
        x = Q(rng.randint(-5, 5), rng.randint(1, 3))
        return K(x, rng.randint(-2, 2)) if quad else x

    return freeze([[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("quad", [False, True], ids=["Q", "Q(sqrt2)"])
def test_dense_det_inv_rank(quad):
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        a = random_matrix(rng, n, quad)
        d = det(a)
        assert d == leibniz_det(dense(a))
        assert (rank(a) == n) == bool(d)
        if d:
            assert mat_mul(a, mat_inv(a)) == identity(n)
            assert mat_mul(mat_inv(a), a) == identity(n)


@pytest.mark.parametrize(
    "scalars",
    [(Q(2), Q(-1, 3), Q(5), Q(-7, 2)), (K(2), K(0, 1), K(1, 1), K(-3, 2))],
    ids=["Q", "Q(sqrt2)"],
)
def test_monomial_det_inv_rank(scalars):
    # row i has its one entry in column perm[i], so the elimination swaps
    # rows as the permutation says, and each swap flips the sign
    for perm in itertools.permutations(range(4)):
        a = freeze([[scalars[i] if c == perm[i] else Q(0) for c in range(4)] for i in range(4)])
        assert det(a) == leibniz_det(dense(a))
        assert rank(a) == 4
        inv = mat_inv(a)
        assert mat_mul(a, inv) == identity(4) == mat_mul(inv, a)
        assert all(dense(inv)[perm[i]][i] == 1 / scalars[i] for i in range(4))


def test_the_pivot_search_passes_over_rows_without_the_column():
    """Rows 0 and 1 lack column 0, row 3 gains column 1 only as fill-in
    from the pivot row 2, and row 0 lacks column 2: three pivots are
    swapped into place past rows that do not hold their column, an odd
    permutation."""
    a = freeze(
        [
            [K(0), K(0), K(0), K(2)],
            [K(0), K(0), K(3), K(0, -1)],
            [K(2, 1), K(1), K(-1), K(1, 2)],
            [K(0, 1), K(0), K(5), K(-2, 1)],
        ]
    )
    assert det(a) == leibniz_det(dense(a)) != 0
    assert rank(a) == 4
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity(4) == mat_mul(inv, a)


@pytest.mark.parametrize(
    "a",
    [
        freeze([[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(0), Q(1), Q(1)]]),
        # the second row is (1 + sqrt2) times the first: dependent over K only
        freeze([[K(1, 1), K(1)], [K(3, 2), K(1, 1)]]),
        freeze([[Q(0), Q(0)], [Q(0), Q(0)]]),
    ],
    ids=["Q", "Q(sqrt2)", "zero"],
)
def test_singular(a):
    assert det(a) == 0
    assert rank(a) < a.shape[0]
    with pytest.raises(ZeroDivisionError):
        mat_inv(a)


def test_rank_empty_and_non_square():
    assert rank(freeze([])) == 0
    assert rank(freeze([[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]])) == 1
    assert rank(freeze([[Q(1), Q(0)], [Q(1), Q(1)], [Q(0), Q(1)]])) == 2
    assert rank(freeze([[K(0, 1), K(2)], [K(1), K(0, 1)], [K(0), K(0)]])) == 1


def test_independent_keeps_order_and_skips_dependent():
    u, v, w = (Q(1), Q(0), Q(2)), (Q(0), Q(1), Q(1)), (Q(0), Q(0), Q(3))
    zero = (Q(0),) * 3
    twice_u = tuple(2 * x for x in u)
    u_plus_v = tuple(x + y for x, y in zip(u, v))
    assert independent([zero, v, twice_u, u_plus_v, u, w, v]) == [v, twice_u, w]
    assert independent([w, u, v]) == [w, u, v]
    assert independent([]) == []


def test_independent_over_k():
    u, v = (K(1), K(0, 1)), (K(0), K(1))
    sqrt2_u = tuple(K(0, 1) * x for x in u)
    assert independent([u, sqrt2_u, v]) == [u, v]


@pytest.mark.parametrize(
    "entries, v, complement",
    [
        # v is supported on {j, k} = {0, 1}, so the projection of e_k is 0
        ([1, -1, 3], (1, 1, 0), [3]),
        # the dropped index k = 2 is not the last coordinate
        ([1, 1, -2, 3], (1, 1, 1, 0), None),
        ([3, 1, 1, -2, 5], (0, 1, 1, 1, 0), None),
    ],
)
def test_split_hyperbolic_complement(entries, v, complement):
    q = forms.form(entries)
    v = tuple(Q(x) for x in v)
    assert form_value(q, v) == 0
    rest = split_hyperbolic(q, v)
    assert rest.dim == q.dim - 2
    assert forms.isometric(forms.direct_sum(forms.hyperbolic(1), rest), q)
    if complement is not None:
        assert forms.isometric(rest, forms.form(complement))
    index, anisotropic = forms.witt_decompose(q)
    assert forms.isometric(forms.direct_sum(forms.hyperbolic(index), anisotropic), q)
    assert not forms.is_isotropic(anisotropic)


def test_split_hyperbolic_rejects_anisotropic_vector():
    with pytest.raises(RuntimeError):
        split_hyperbolic(forms.form([1, -1, 3]), (Q(1), Q(0), Q(0)))


# --------------------------------------------------------------------------
# the zero-skipping kernels against dense references that touch every entry


def dense_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def dense_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_reduce(rows, ncols):
    """Gauss-Jordan on every entry: (reduced rows, pivot columns, det)."""
    rows = [list(r) for r in rows]
    pivots, d = [], Q(1)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            d = Q(0)
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = d * rows[r][col] * (1 if piv == r else -1)
        rows[r] = [div(x, rows[r][col]) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots, d


def sparse_matrix(rng, n, m, density, quad):
    """Seeded n x m matrix with the given share of nonzero entries; row 0
    and the last column are all zero."""

    def entry(i, j):
        if i == 0 or j == m - 1 or rng.random() > density:
            return K(0) if quad else Q(0)
        x = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return K(x, rng.randint(-2, 2)) if quad else x

    return freeze([[entry(i, j) for j in range(m)] for i in range(n)])


def square_cases():
    rng = random.Random(61)
    for quad in (False, True):
        for density in (0.15, 0.4, 1.0):
            for n in (1, 3, 6, 8):
                a = sparse_matrix(rng, n, n, density, quad)
                # the all-zero row and column moved inside, and a copy that
                # is invertible: a unit diagonal added
                perm = rng.sample(range(n), n)
                a = freeze([[dense(a)[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
                yield a
                yield freeze([[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(dense(a))])


def same_entries(got, want):
    """Equal, equally hashed and equally printed, entry by entry."""
    return len(got) == len(want) and all(
        x == y and hash(x) == hash(y) and str(x) == str(y) for x, y in zip(got, want)
    )


def test_products_agree_with_the_dense_reference():
    rng = random.Random(17)
    for a in square_cases():
        n = a.shape[0]
        b = sparse_matrix(rng, n, n + 1, rng.choice([0.2, 0.6, 1.0]), rng.random() < 0.5)
        got, want = mat_mul(a, b), dense_mul(dense(a), dense(b))
        assert all(same_entries(r, s) for r, s in zip(dense(got), want))
        for v in itertools.chain(dense(transpose(b)), dense(identity(n))):
            assert same_entries(mat_vec(a, v), dense_vec(dense(a), v))


def test_elimination_agrees_with_the_dense_reference():
    invertible = 0
    for a in square_cases():
        n = a.shape[0]
        _, pivots, d = dense_reduce(dense(a), n)
        assert det(a) == d
        assert rank(a) == len(pivots)
        vecs = list(dense(transpose(a)))  # the columns of a
        assert independent(vecs) == [vecs[c] for c in pivots]
        if d != 0:
            invertible += 1
            augmented = [list(r) + list(e) for r, e in zip(dense(a), dense(identity(n)))]
            reduced, _, _ = dense_reduce(augmented, n)
            assert mat_inv(a) == freeze(row[n:] for row in reduced)
        else:
            with pytest.raises(ZeroDivisionError):
                mat_inv(a)
    assert invertible >= 12


def test_a_skipped_zero_of_a_k_product_behaves_like_the_zero_of_k():
    zero = K(0)
    a = freeze([[K(1, 1), K(0)], [K(0), K(0)]])
    b = freeze([[K(0), K(2, -1)], [K(3), K(0)]])
    entries = [x for row in dense(mat_mul(a, b)) for x in row] + list(mat_vec(a, (K(0), K(1))))
    skipped = [x for x in entries if type(x) is int]  # no product was summed
    assert len(skipped) == 5
    for x in skipped:
        assert x == zero and zero == x and not x
        assert hash(x) == hash(zero)
        assert iota(x) == iota(zero)
        assert as_rational(x) == as_rational(zero)
        assert str(x) == str(zero)
        assert x + K(1, 1) == K(1, 1) and x * K(1, 1) == zero


class Counting:
    """A rational that counts the multiplications made with it."""

    products = 0

    def __init__(self, v):
        self.v = Q(v)

    def __mul__(self, other):
        Counting.products += 1
        return Counting(self.v * value(other))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return Counting(value(other) / self.v)

    def __add__(self, other):
        return Counting(self.v + value(other))

    __radd__ = __add__

    def __neg__(self):
        return Counting(-self.v)

    def __bool__(self):
        return bool(self.v)


def value(x):
    return x.v if isinstance(x, Counting) else x


def monomial(rng, n):
    perm = rng.sample(range(n), n)
    return freeze(
        [[Counting(rng.randint(1, 9) if j == perm[i] else 0) for j in range(n)] for i in range(n)]
    )


def test_monomial_product_makes_one_multiplication_per_row():
    rng = random.Random(3)
    a, b = monomial(rng, 27), monomial(rng, 27)
    Counting.products = 0
    ab = mat_mul(a, b)
    assert Counting.products == 27
    assert [list(map(value, row)) for row in dense(ab)] == [
        list(map(value, row)) for row in dense_mul(dense(a), dense(b))
    ]


def test_monomial_map_on_a_basis_vector_makes_one_multiplication():
    rng = random.Random(5)
    t = monomial(rng, 8)
    e3 = tuple(Counting(int(j == 3)) for j in range(8))
    Counting.products = 0
    image = mat_vec(t, e3)
    assert Counting.products == 1
    assert list(map(value, image)) == [value(dense(t)[i][3]) for i in range(8)]


def test_monomial_elimination_makes_one_multiplication_per_nonzero():
    rng = random.Random(11)
    a = monomial(rng, 27)
    full = dense(a)
    perm = [next(j for j, x in enumerate(row) if x) for row in full]
    cycles, seen = 0, set()
    for start in range(27):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    want = Q((-1) ** (27 - cycles))
    for i in range(27):
        want *= full[i][perm[i]].v
    Counting.products = 0
    assert value(det(a)) == want
    assert Counting.products == 27  # the determinant's 27 factors
    Counting.products = 0
    inv = mat_inv(a)
    assert Counting.products <= 2 * 27  # and each pivot row's one scaling
    assert [[value(x) for x in row] for row in dense(inv)] == [
        [1 / full[c][r].v if r == perm[c] else 0 for c in range(27)] for r in range(27)
    ]


# --------------------------------------------------------------------------
# the row-combination product against a triple loop, on drawn matrices

FIXED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def triple_loop_mul(a, b):
    """Entry (i, c) as the column-by-column kernel summed it: the products
    b[j][c] * a[i][j] of nonzero factors in ascending j, in canonical form,
    and the int 0 where there is none."""
    out = []
    for row in a:
        new = []
        for c in range(len(b[0]) if b else 0):
            total = None
            for j, x in enumerate(row):
                y = b[j][c]
                if x and y:
                    total = y * x if total is None else total + y * x
            new.append(0 if total is None else rat(total))
        out.append(tuple(new))
    return tuple(out)


def same_matrix_entries(got, want):
    """`same_entries` row by row, and of the same type entry by entry, but
    that a zero, which a matrix does not store, reads as the int 0."""
    return len(got) == len(want) and all(
        same_entries(r, s) and [type(x) for x in r] == [type(y) if y else int for y in s]
        for r, s in zip(got, want)
    )


@st.composite
def products(draw):
    """Two conformable matrices over Q or one Q(sqrt k), with a drawn share
    of zeros; entries of +-1 and +-2 make cancelling sums common."""
    k = draw(st.sampled_from([None, Q(2), Q(-1), Q(5)]))
    n, m, p = (draw(st.integers(1, 6)) for _ in range(3))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    small = st.sampled_from([1, -1, 2, -2, Q(1, 2), Q(-3, 2)])

    def entry():
        if draw(st.integers(0, 9)) < 10 * zeros:
            return 0
        x = draw(small)
        return x if k is None else QuadExtScalar(x, draw(st.sampled_from([0, 0, 1, -1])), k)

    a = freeze([[entry() for _ in range(m)] for _ in range(n)])
    return a, freeze([[entry() for _ in range(p)] for _ in range(m)])


@FIXED
@given(products())
@example((freeze([[1, 1]]), freeze([[1, 2], [-1, -2]])))  # every entry cancels
@example((freeze([[K(1, 1), K(1)]]), freeze([[K(1, -1)], [K(1)]])))  # cancels over K
def test_row_combination_product_matches_the_triple_loop(ab):
    a, b = ab
    got = dense(mat_mul(a, b))
    assert same_matrix_entries(got, triple_loop_mul(dense(a), dense(b)))
    assert got == dense_mul(dense(a), dense(b))


@st.composite
def monomial_maps(draw):
    """A monomial 27x27 map over Q or Q(sqrt 3), and a symmetric Gram."""
    k = draw(st.sampled_from([None, Q(3)]))
    perm = draw(st.permutations(range(27)))
    scale = st.sampled_from([1, -1, 2, Q(1, 3), Q(-5, 2)])

    def value():
        x = draw(scale)
        return x if k is None else QuadExtScalar(x, draw(st.sampled_from([0, 1])), k)

    a = freeze([[value() if c == perm[r] else 0 for c in range(27)] for r in range(27)])
    g = [[0] * 27 for _ in range(27)]
    for i in range(27):
        g[i][26 - i] = g[26 - i][i] = draw(scale)
    return a, freeze(g)


@FIXED
@given(monomial_maps())
def test_pullback_of_a_monomial_map_matches_the_triple_loop(ag):
    a, g = ag
    want = triple_loop_mul(dense(transpose(a)), triple_loop_mul(dense(g), dense(a)))
    assert same_matrix_entries(dense(pullback(a, g)), want)


# --------------------------------------------------------------------------
# matrices written as their nonzeros, and the one Gram pairing


ENTRY = st.sampled_from([1, -2, Q(1, 3), Q(0), K(0), K(1, 1)])


@FIXED
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), ENTRY)),
)
def test_from_nonzeros_puts_the_int_0_where_no_entry_is_given(n, m, entries):
    entries = [(r, c, x) for r, c, x in entries if r < n and c < m]
    last = {(r, c): x for r, c, x in entries}  # a later entry replaces an earlier one
    a = from_nonzeros(n, m, entries)
    assert a.shape == (n, m)
    # no zero is stored, neither Q(0) nor the zero of K
    assert [(r, c) for r, c, _ in nonzeros(a)] == sorted(p for p, x in last.items() if x)
    full = dense(a)
    assert type(full) is tuple and len(full) == n
    for r, row in enumerate(full):
        assert type(row) is tuple and len(row) == m
        for c, x in enumerate(row):
            if last.get((r, c)):
                assert x is last[r, c]
            else:
                assert type(x) is int and x == 0


def double_sum(g, v, w):
    """The sum over r, c of g[r][c] (v[r] w[c]) for the nonzero factors, in
    canonical form, and the int 0 when there is no such product."""
    total = None
    for r, x in enumerate(v):
        for c, y in enumerate(w):
            if x and g[r][c] and y:
                term = g[r][c] * (x * y)
                total = term if total is None else total + term
    return 0 if total is None else rat(total)


@st.composite
def gram_pairings(draw):
    """An n x m matrix g and vectors v, w over Q or Q(sqrt 2), with a drawn
    share of zeros, some of them the zero of K."""
    k = draw(st.sampled_from([None, Q(2)]))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    small = st.sampled_from([1, -1, 2, -2, Q(1, 2), Q(-3, 2)])

    def entry():
        if draw(st.integers(0, 9)) < 10 * zeros:
            return 0 if k is None else draw(st.sampled_from([0, K(0)]))
        x = draw(small)
        return x if k is None else K(x, draw(st.sampled_from([0, 0, 1, -1])))

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    g = from_nonzeros(n, m, [(r, c, x) for r, row in enumerate(rows) for c, x in enumerate(row)])
    return g, tuple(entry() for _ in range(n)), tuple(entry() for _ in range(m))


@FIXED
@given(gram_pairings())
@example((freeze([[1, 1], [1, 1]]), (1, -1), (1, 1)))  # the terms cancel to 0
@example((freeze([[K(1), K(0)]]), (K(0),), (K(1), K(1))))  # no product: the int 0
def test_pairing_is_the_double_sum(gvw):
    g, v, w = gvw
    got, want = pairing(g, v, w), double_sum(dense(g), v, w)
    assert same_entries((got,), (want,)) and type(got) is type(want)


def test_pairing_on_generic_laurent_vectors():
    x, y = cayley.generic_octonion("x").coords, cayley.generic_octonion("y").coords
    gram = cayley.build_cayley_table().gram
    one = (0, 0, 0, 1, 1, 0, 0, 0)
    rng = random.Random(23)
    full = freeze([[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)] for _ in range(8)])
    for g in (gram, cayley.S8, full):
        for v, w in ((x, y), (one, x), (y, one), (x, x)):
            got, want = pairing(g, v, w), double_sum(dense(g), v, w)
            assert got == want and type(got) is type(want)


def octonion_coords():
    k = st.sampled_from([None, Q(2)])
    small = st.sampled_from([0, 0, 1, -1, 2, Q(1, 2), Q(-3, 2)])
    return k.flatmap(
        lambda k: st.tuples(
            *[small if k is None else st.builds(K, small, small) for _ in range(cayley.DIM)]
        )
    )


@FIXED
@given(octonion_coords(), octonion_coords())
def test_norm_pairing_and_a_form_value_match_their_explicit_sums(a, b):
    """The octonion norm pairing and the A-form, against the sums over
    every nonzero Gram entry that they were written as before."""
    g = dense(cayley.build_cayley_table().gram)
    want = exact_sum([g[i][j] * (a[i] * b[j]) for i in range(8) for j in range(8) if g[i][j]])
    assert cayley.Octonion(a).norm_pairing(cayley.Octonion(b)) == want
    v = a + b[:2]
    nz = [(r, x) for r, x in enumerate(v) if x]
    gram = dense(albert.A_GRAM)
    want = exact_sum([gram[r][c] * (x * y) for r, x in nz for c, y in nz if gram[r][c]])
    assert albert.a_form_value(v) == want


# --------------------------------------------------------------------------
# shapes, and the stored nonzeros against the dense-tuple kernels


@pytest.mark.parametrize(
    "call",
    [
        lambda: ratio(identity(3), identity(8)),
        lambda: mat_mul(identity(2), identity(3)),
        lambda: mat_vec(identity(3), (1, 2)),
        lambda: pairing(identity(3), (1, 2), (1, 2, 3)),
        lambda: pullback(identity(2), identity(3)),
        lambda: det(freeze([[1, 2, 3], [4, 5, 6]])),
        lambda: mat_inv(freeze([[1, 2, 3], [4, 5, 6]])),
    ],
    ids=["ratio", "mat_mul", "mat_vec", "pairing", "pullback", "det", "mat_inv"],
)
def test_a_kernel_rejects_mismatched_shapes(call):
    with pytest.raises(ValueError):
        call()


@st.composite
def dense_operands(draw):
    """Dense rows over Q or Q(sqrt 2): an n x m matrix a, an m x p matrix
    b, an n x n matrix c, and vectors u, v of lengths n and m.  A drawn
    share of the entries are zeros, written as the int 0, Q(0) or the zero
    of K; entries of +-1 and +-2 make cancelling sums common."""
    k = draw(st.sampled_from([None, Q(2)]))
    n, m, p = (draw(st.integers(1, 5)) for _ in range(3))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    small = st.sampled_from([1, -1, 2, -2, Q(1, 2), Q(-3, 2)])

    def entry():
        if draw(st.integers(0, 9)) < 10 * zeros:
            return draw(st.sampled_from([0, Q(0)] if k is None else [0, K(0)]))
        x = draw(small)
        return x if k is None else K(x, draw(st.sampled_from([0, 0, 1, -1])))

    def rows(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    return rows(n, m), rows(m, p), rows(n, n), [entry() for _ in range(n)], [entry() for _ in range(m)]


def stored_like(got, want) -> bool:
    """A matrix against the dense rows a dense-tuple kernel gave: no zero
    stored, and `same_matrix_entries` written out."""
    return all(x for *_, x in nonzeros(got)) and same_matrix_entries(dense(got), want)


def same_scalar(got, want) -> bool:
    return got == want and type(got) is type(want)


@FIXED
@given(dense_operands())
@example(([[1, 1]], [[1, 2], [-1, -2]], [[1]], [1], [1, -1]))  # every product entry cancels
@example(
    (
        [[K(1, 1), K(0)], [K(0), K(0)]],
        [[K(1, -1), K(3)], [K(1), K(0)]],
        [[K(1, 1), K(1)], [K(1), K(1, -1)]],  # singular: (1 + sqrt 2)(1 - sqrt 2) = -1
        [K(0), K(1)],
        [K(1, 1), K(-1, -1)],
    )
)
def test_the_kernels_agree_with_the_dense_tuple_kernels(operands):
    a, b, c, u, v = operands
    sa, sb, sc = freeze(a), freeze(b), freeze(c)
    assert stored_like(sa, a) and stored_like(sb, b) and stored_like(sc, c)
    assert stored_like(mat_mul(sa, sb), reference.mat_mul(a, b))
    assert stored_like(transpose(sa), reference.transpose(a))
    assert stored_like(scal_mul(Q(-1, 2), sa), reference.scal_mul(Q(-1, 2), a))
    assert stored_like(pullback(sa, sc), reference.pullback(a, c))
    got, want = mat_vec(sa, v), reference.mat_vec(a, v)
    assert len(got) == len(want) and all(map(same_scalar, got, want))
    assert same_scalar(pairing(sa, u, v), reference.pairing(a, u, v))
    assert same_scalar(det(sc), reference.det(c))
    if det(sc):
        assert stored_like(mat_inv(sc), reference.mat_inv(c))
    assert same_scalar(ratio(scal_mul(3, sc), sc), reference.ratio(reference.scal_mul(3, c), c))
    assert ratio(sa, sa) == reference.ratio(a, a)
    assert (rank(sa), rank(sb)) == (reference.rank(a), reference.rank(b))
    vecs = [tuple(row) for row in b]
    assert independent(vecs) == reference.independent(vecs)


def test_the_readers_agree_with_the_dense_rows():
    a = sparse_matrix(random.Random(31), 4, 6, 0.5, True)
    full = dense(a)
    assert [exactmat.row(a, r) for r in range(4)] == list(full)
    assert [exactmat.column(a, c) for c in range(6)] == list(zip(*full))
    assert all(exactmat.entry(a, r, c) == full[r][c] for r in range(4) for c in range(6))
    assert list(nonzeros(a)) == [(r, c, x) for r, xs in enumerate(full) for c, x in enumerate(xs) if x]
    picked = exactmat.submatrix(a, (3, 0), (5, 1, 2))
    assert dense(picked) == tuple(tuple(full[r][c] for c in (5, 1, 2)) for r in (3, 0))
    outside = [
        lambda: exactmat.entry(a, 4, 0),
        lambda: exactmat.row(a, -1),
        lambda: exactmat.column(a, 6),
        lambda: exactmat.submatrix(a, (0,), (6,)),
        lambda: from_nonzeros(2, 2, [(0, 2, 1)]),
    ]
    for call in outside:
        with pytest.raises(IndexError):
            call()
    with pytest.raises(ValueError):
        exactmat.submatrix(a, (0,), (1, 1))
    with pytest.raises(ValueError):
        freeze([[1, 2], [3]])


def test_a_gram_matrix_is_its_pairings():
    """The Gram matrix of vectors under a symmetric form, as
    `descent.span_form` forms it: the form pulled back along the matrix
    whose columns are the vectors."""
    rng = random.Random(29)
    for quad in (False, True):
        for n in (1, 4, 10):
            g = sparse_matrix(rng, n, n, 0.4, quad)
            form = mat_mul(g, transpose(g))
            vectors = [tuple(row) for row in dense(sparse_matrix(rng, 5, n, 0.5, quad))]
            want = [[pairing(form, v, w) for w in vectors] for v in vectors]
            assert stored_like(pullback(transpose(freeze(vectors)), form), want)


def gram_cases(rng):
    """Seeded symmetric Grams over Q, up to 8 x 8: block sums of hyperbolic
    planes [[0, b], [b, 0]], zero-diagonal 3 x 3 blocks, random blocks
    whose diagonals are mostly zero past 1 x 1, and a few zero blocks,
    permuted.  Every third is made degenerate by a row and column repeated
    (scaled) in another place."""
    sizes = {"hyperbolic": (2, 2), "hollow": (3, 3), "random": (1, 3), "zero": (1, 2)}
    for case in range(3000):
        n = rng.randint(1, 8)
        g, at = [[Q(0)] * n for _ in range(n)], 0
        while at < n:
            kind = rng.choice(["hyperbolic", "hollow", "random", "random"] * 4 + ["zero"])
            m = min(rng.randint(*sizes[kind]), n - at)
            for i in range(at, at + m):
                for j in range(i, at + m):
                    if kind == "zero" or i == j and (kind != "random" or m > 1 and rng.random() < 0.6):
                        continue
                    x = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
                    g[i][j] = g[j][i] = x
            at += m
        if case % 3 == 0 and n > 1:
            i, j, c = *rng.sample(range(n), 2), Q(rng.choice([-2, 1, 3]))
            for m in range(n):
                g[j][m] = c * g[i][m]
            for m in range(n):
                g[m][j] = c * g[m][i]
        perm = rng.sample(range(n), n)
        yield [[g[a][b] for b in perm] for a in perm]


def classes_or_error(diagonalize, g):
    try:
        return [square_class(x) for x in diagonalize(g)]
    except ValueError as e:
        return str(e)


def test_diagonalize_agrees_with_the_reference_diagonalization():
    """The square classes of `diagonalize`, or its ValueError, are those of
    the sparse-row diagonalization `forms` had before, pivot for pivot."""
    seen = set()
    for g in gram_cases(random.Random(37)):
        got = classes_or_error(exactmat.diagonalize, freeze(g))
        assert got == classes_or_error(reference._diagonalize_gram, g), g
        hollow = not any(g[i][i] for i in range(len(g)))  # the first pivot needs the repair
        seen.add("degenerate" if isinstance(got, str) else "hollow" if hollow else "diagonal")
    assert seen == {"degenerate", "hollow", "diagonal"}


# --------------------------------------------------------------------------
# what the elimination and the descended Gram visit


def test_eliminating_a_monomial_map_updates_no_other_row(monkeypatch):
    """A pivot clears its column only in the rows that hold it: on a
    monomial map no row does, so no row is updated at all; on a dense map
    every updated row held the pivot column."""
    updated = []
    real = exactmat._eliminate

    def eliminate(other, col, p, pivot_row):
        updated.append(col in other)
        real(other, col, p, pivot_row)

    monkeypatch.setattr(exactmat, "_eliminate", eliminate)
    a = monomial(random.Random(13), 27)
    det(a), mat_inv(a), rank(a)
    assert updated == []
    full = random_matrix(random.Random(19), 6, quad=True)
    det(full), rank(full)
    assert updated and all(updated)


def test_span_form_evaluates_only_the_upper_triangle(monkeypatch):
    """The descended Gram of P30's (k, a) = (2, 3): 55 entries of 100, as
    the A-form is symmetric, each one `exact_sum`."""
    z = descent.special_cocycle_on_A(2, 3)
    basis = descent.fixed_subspace(z)
    want = descent.span_form(albert.A_GRAM, basis)
    sums = []
    real = exactmat.exact_sum
    monkeypatch.setattr(exactmat, "exact_sum", lambda values: sums.append(1) or real(values))
    assert descent.span_form(albert.A_GRAM, basis) == want
    assert len(basis) == 10 and len(sums) <= 55


def test_span_form_eliminates_on_the_stored_rows(monkeypatch):
    """The descended Gram of P30's (k, a) = (2, 3) is diagonalized by
    `_eliminate` on its stored rows, with no dense round trip."""
    basis = descent.fixed_subspace(descent.special_cocycle_on_A(2, 3))
    want = descent.span_form(albert.A_GRAM, basis)
    cleared, real = [], exactmat._eliminate
    monkeypatch.setattr(exactmat, "_eliminate", lambda *args: cleared.append(args[1]) or real(*args))
    for module in (exactmat, descent):
        monkeypatch.setattr(module, "dense", lambda a: pytest.fail("a dense round trip"))
    assert descent.span_form(albert.A_GRAM, basis) == want
    assert cleared


def _is_zero(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 0


def _zero_list_times(node, part) -> bool:
    """`[p, ...] * n` or `n * [p, ...]` with every p satisfying `part`."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.List) and side.elts and all(map(part, side.elts))
        for side in (node.left, node.right)
    )


def _zero_row(node) -> bool:
    """`[0] * m` or `[0 for _ in ...]`: one row of zeros."""
    return _zero_list_times(node, _is_zero) or isinstance(node, ast.ListComp) and _is_zero(node.elt)


def _zero_rows(node) -> bool:
    """A list of zero-filled rows: `[[0] * m for _ in ...]` or `[[0] * m] * n`."""
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _zero_row(node.elt)
    return _zero_list_times(node, _zero_row)


@pytest.mark.parametrize(
    "code, rows",
    [
        ("[[0] * m for _ in range(n)]", True),
        ("[m * [0] for _ in range(n)]", True),
        ("[[0] * m] * n", True),
        ("list([0 for _ in range(m)] for _ in range(n))", True),
        ("[0] * n", False),
        ("[[None] * m for _ in range(n)]", False),
        ("[[1] * m for _ in range(n)]", False),
    ],
)
def test_the_zero_rows_gate_reads_the_code(code, rows):
    assert any(map(_zero_rows, ast.walk(ast.parse(code)))) is rows


def test_only_exactmat_fills_rows_of_zeros():
    """A fixed matrix is written as its nonzeros (`from_nonzeros`), so no
    other module builds a list of zero-filled rows; a zero vector such as
    `[0] * n` is allowed."""
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    built = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "exactmat.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _zero_rows(node)
    ]
    assert built == []


def test_only_exactmat_reads_the_stored_rows():
    """A matrix's storage is exactmat's own: every other module reads a
    matrix through `entry`, `row`, `column`, `submatrix`, `nonzeros` or
    `dense`, so no other module names the `rows` attribute."""
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    read = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "exactmat.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert read == []
