"""Galois descent for quadratic spaces along K = F(sqrt k): the fixed
F-form of a K-space twisted by an explicit semilinear cocycle.

The twisted action is a -> Z(iota a); fixed vectors are produced by the
averaging trick (w + Z iota w and sqrt(k)(w - Z iota w)), and the basis
kept is the candidates outside the span of the ones before them, found by
one elimination.  The two flagship pipelines, the e0-stabilizer descent
(4H + <-2,2k>) and the special-cocycle computation
(2H + <2,-2k,-2a,2ak,-2a,2ak>), are computed here; `verify` judges
them, the Arason class <2><<a,k,-1>> of q_z - q included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import albert, cayley, forms
from .exactmat import (
    Matrix,
    dense,
    diagonalize,
    entrywise,
    freeze,
    from_nonzeros,
    identity,
    independent,
    mat_mul,
    mat_vec,
    pullback,
    transpose,
)
from .scalars import _Frozen, as_rat, as_rational, div, field_parameter, iota, sqrt_k, square_class


def _iota_mat(m: Matrix) -> Matrix:
    return entrywise(iota, m)


class SemilinearCocycle(_Frozen):
    """A matrix Z over K with Z iota(Z) = 1, acting semilinearly by
    a -> Z(iota a)."""

    __slots__ = ("k", "matrix")

    def __init__(self, k: int | Fraction, matrix: Matrix):
        k = field_parameter(k)
        n, m = matrix.shape
        if n != m:
            raise ValueError("a cocycle matrix is square")
        if mat_mul(matrix, _iota_mat(matrix)) != identity(n):
            raise ValueError("cocycle condition Z iota(Z) = 1 fails")
        super().__init__(k, matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def twisted(self, v):
        """The semilinear action v -> Z(iota v)."""
        return mat_vec(self.matrix, tuple(iota(x) for x in v))

    def is_fixed(self, v) -> bool:
        return all(a == b for a, b in zip(self.twisted(v), v))


def fixed_subspace(z: SemilinearCocycle) -> list[tuple]:
    """An F-basis of the fixed points of the twisted action: n vectors
    over K that are fixed and K-linearly independent (an F-form basis).
    The 2n candidates w + Z iota w and sqrt(k)(w - Z iota w) are built
    from integer unit vectors w, so Z iota w is column w of Z, and the
    candidates keep int zeros that the elimination skips."""
    n = z.dim
    rt = sqrt_k(z.k)
    cands = []
    for w, tw in zip(dense(identity(n)), dense(transpose(z.matrix))):
        cands.append(tuple(a + b for a, b in zip(w, tw)))
        cands.append(tuple(rt * d if (d := a - b) else 0 for a, b in zip(w, tw)))
    found = independent(cands)
    if len(found) != n:
        raise RuntimeError("fixed subspace has deficient rank")
    if not all(z.is_fixed(v) for v in found):
        raise RuntimeError("averaging produced a non-fixed vector")
    return found


def descend_form(form: Matrix, z: SemilinearCocycle) -> forms.DiagonalForm:
    """Restrict a rational Gram matrix `form` (a form defined over F,
    extended to K) to the fixed F-span of the cocycle; Z must be a
    K-isometry of the form.  Returns the diagonalized F-form."""
    if form.shape != (z.dim, z.dim):
        raise ValueError("Gram and cocycle dimensions differ")
    if form != transpose(form):
        raise ValueError("Gram matrix is not symmetric")
    if pullback(z.matrix, form) != form:
        raise ValueError("cocycle is not an isometry of the form")
    return span_form(form, fixed_subspace(z))


def span_form(form: Matrix, vectors) -> forms.DiagonalForm:
    """The diagonalized F-form of the symmetric Gram matrix `form` pulled
    back to the span of vectors over K; as_rational raises if a pairing is
    not F-rational."""
    diag = diagonalize(entrywise(as_rational, pullback(transpose(freeze(vectors)), form)))
    return forms.DiagonalForm("Q", tuple(map(square_class, diag)))


# --------------------------------------------------------------------------
# the two pipelines from the source computations


def dagger_cocycle_matrix() -> Matrix:
    """M = diag(1_4, -S2, 1_4) on the A-coordinates: the cocycle whose
    twist computes the F-form of the e0-stabilizer's 10-dimensional
    representation."""
    ones = [(i, i, 1) for i in (0, 1, 2, 3, 6, 7, 8, 9)]
    return from_nonzeros(10, 10, ones + [(4, 5, -1), (5, 4, -1)])


def twist_a_cocycle(k: int | Fraction) -> SemilinearCocycle:
    return SemilinearCocycle(k, dagger_cocycle_matrix())


def twist_a_descend(k: int | Fraction) -> forms.DiagonalForm:
    """Descend the 10-dimensional A-form along M; equals 4H + <-2, 2k>."""
    return descend_form(albert.A_GRAM, twist_a_cocycle(k))


def twist_a_expected(k: int | Fraction) -> forms.DiagonalForm:
    return forms.direct_sum(
        forms.hyperbolic(4), forms.form([-2, 2 * as_rat(k)])
    )


@lru_cache(maxsize=None)
def special_cocycle_on_A(k: int | Fraction, a: int | Fraction) -> SemilinearCocycle:
    """The cocycle z_iota M on A for z = z_{K,(1,a,1/a)}; its fixed form
    computes the image q_z of the special cocycle in H^1(F, SO(q)).  It is
    built once per (k, a) and shared, as the cocycle is immutable."""
    if a == 0:
        raise ValueError("a must be nonzero")
    triple = cayley.special_cocycle((1, a, div(1, a)))
    za = albert.restrict_to_A(albert.g_map(triple))
    return SemilinearCocycle(k, mat_mul(za, dagger_cocycle_matrix()))


def rostcalc_expected_qz(k: int | Fraction, a: int | Fraction) -> forms.DiagonalForm:
    k, a = as_rat(k), as_rat(a)
    return forms.direct_sum(
        forms.hyperbolic(2),
        forms.form([2, -2 * k, -2 * a, 2 * a * k, -2 * a, 2 * a * k]),
    )


def rostcalc_qz(k: int | Fraction, a: int | Fraction) -> forms.DiagonalForm:
    """The image q_z of the special cocycle: the A-form descended along
    z_iota M."""
    return descend_form(albert.A_GRAM, special_cocycle_on_A(k, a))


def rostcalc_table_rows(k: int | Fraction, a: int | Fraction) -> list[dict]:
    """The four subspaces of the descent table as data: for each, the
    fixed vectors it displays, their stated A-form values, and the form
    it contributes to q_z (2H from the complementary totally isotropic
    pair)."""
    k, a = as_rat(k), as_rat(a)
    rt = sqrt_k(k)

    def avec(*pairs):
        v = [0] * 10
        for pos, val in pairs:
            v[pos] = val
        return tuple(v)

    # A-coordinate order: u1,u2,u3,u4,e1,e2,u5..u8 -> indices 0..9
    return [
        {
            "subspace": "(u1,u2) with (u7,u8)",
            "contribution": forms.hyperbolic(2),
            "vectors": [
                avec((0, 1), (1, 1)),
                avec((0, rt), (1, -rt)),
                avec((8, 1), (9, 1)),
                avec((8, rt), (9, -rt)),
            ],
            "values": [0, 0, 0, 0],
        },
        {
            "subspace": "(u3,u6)",
            "contribution": forms.form([2, -2 * k]),
            "vectors": [avec((2, 1), (7, -1)), avec((2, rt), (7, rt))],
            "values": [2, -2 * k],
        },
        {
            "subspace": "(u4,u5)",
            "contribution": forms.form([-2 * a, 2 * a * k]),
            "vectors": [avec((3, a), (6, 1)), avec((3, -a * rt), (6, rt))],
            "values": [-2 * a, 2 * a * k],
        },
        {
            "subspace": "(e1,e2)",
            "contribution": forms.form([-2 * a, 2 * a * k]),
            "vectors": [avec((4, -1), (5, a)), avec((4, rt), (5, a * rt))],
            "values": [-2 * a, 2 * a * k],
        },
    ]
