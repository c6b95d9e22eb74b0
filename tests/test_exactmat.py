import itertools
import random
from fractions import Fraction as Q

import pytest

from quadalg import forms
from quadalg.exactmat import det, freeze, identity, independent, mat_eq, mat_inv, mat_mul, rank
from quadalg.scalars import QuadExtScalar


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
        assert d == leibniz_det(a)
        assert (rank(a) == n) == bool(d)
        if d:
            assert mat_eq(mat_mul(a, mat_inv(a)), identity(n))
            assert mat_eq(mat_mul(mat_inv(a), a), identity(n))


@pytest.mark.parametrize(
    "scalars", [(Q(2), Q(-1, 3), Q(5)), (K(2), K(0, 1), K(1, 1))], ids=["Q", "Q(sqrt2)"]
)
def test_monomial_det_inv_rank(scalars):
    # row i has its one entry in column perm[i]; (0 1 2) is an even permutation
    perm = (1, 2, 0)
    a = freeze([[scalars[i] if c == perm[i] else Q(0) for c in range(3)] for i in range(3)])
    assert det(a) == scalars[0] * scalars[1] * scalars[2]
    assert rank(a) == 3
    inv = mat_inv(a)
    assert mat_eq(mat_mul(a, inv), identity(3))
    assert all(inv[perm[i]][i] == 1 / scalars[i] for i in range(3))


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
    assert rank(a) < len(a)
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
    assert q.value(v) == 0
    rest = forms._split_hyperbolic(q, v)
    assert rest.dim == q.dim - 2
    assert forms.isometric(forms.direct_sum(forms.hyperbolic(1), rest), q)
    if complement is not None:
        assert forms.isometric(rest, forms.form(complement))
    index, anisotropic = forms.witt_decompose(q)
    assert forms.isometric(forms.direct_sum(forms.hyperbolic(index), anisotropic), q)
    assert not forms.is_isotropic(anisotropic)


def test_split_hyperbolic_rejects_anisotropic_vector():
    with pytest.raises(RuntimeError):
        forms._split_hyperbolic(forms.form([1, -1, 3]), (Q(1), Q(0), Q(0)))
