"""The 27-dimensional Albert algebra H3(C): Jordan product, trace form
(written out once, as its Gram `_t_gram`), cubic norm, cross product,
sharp map, the action of related triples, the trace-form adjoint
(dagger), Freudenthal's psi maps, and the subspace A with its
10-dimensional quadratic form.

Elements are (eps0, eps1, eps2; c0, c1, c2) for the hermitian matrix with
c_i in the (i+1, i+2) slot, stored as one flat tuple of 27 coordinates:
the three eps_i, then the eight of each c_i.  `eps` and `c` are views of
it, and every linear map is one matrix on it.  The cubic norm has the
closed form

    N(x) = eps0 eps1 eps2 - sum_i eps_i n(c_i) + t((c0 c1) c2)

and the adjoint the closed form

    (x#)_{eps_i} = eps_{i+1} eps_{i+2} - n(c_i)
    (x#)_{c_i}   = conj(c_{i+2}) conj(c_{i+1}) - eps_i c_i.

The cross product, pinned by T-duality T(x cross y, z) = 6 N(x, y, z), is
that closed form polarized and written down, and sharp(x) = (x cross x)/2.
The test suite holds N and sharp, so `cross` too, to the matrix route (x#
the degree-2 characteristic coefficient, 3N = T(x, x#)), and the psi maps
and the slot swap, each the identity plus a few blocks of octonion
products with basis elements, to the map built from its action on the 27
basis elements (`tests/reference.py`).  The ledger (P26) states the Moving
Lemma's frame identities on `moving_lemma_data`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .cayley import (
    BASIS,
    Octonion,
    SimilitudeTriple,
    build_cayley_table,
    is_related_triple,
)
from .exactmat import (
    Matrix,
    _Coords,
    column,
    det,
    from_nonzeros,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    nonzeros,
    pairing,
    pullback,
    row,
    scal_mul,
    submatrix,
    transpose,
)
from .scalars import QuadExtScalar, _Frozen, div, rat, variable

ADIM = 27


class AlbertElement(_Coords):
    """(eps0, eps1, eps2; c0, c1, c2) as its 27 exact coordinates: the
    three diagonal scalars, then the eight of each octonion c_i."""

    __slots__ = ()
    DIM = ADIM

    @property
    def eps(self) -> tuple:
        return self.coords[:3]

    @property
    def c(self) -> tuple[Octonion, Octonion, Octonion]:
        return tuple(Octonion(self.coords[_slot(i) : _slot(i + 1)]) for i in range(3))

    def __repr__(self) -> str:
        return f"albert(eps={self.eps}, c={self.c})"


def element(eps: Sequence[int | Fraction | QuadExtScalar], c: Sequence[Octonion]) -> AlbertElement:
    """The element of three diagonal scalars eps and three octonions c."""
    if len(eps) != 3 or len(c) != 3:
        raise ValueError("need three diagonal scalars and three octonions")
    return AlbertElement([*eps, *(t for x in c for t in x.coords)])


ZERO = AlbertElement([0] * ADIM)
IDENTITY = AlbertElement([1, 1, 1] + [0] * (ADIM - 3))


def e_idem(i: int) -> AlbertElement:
    """The diagonal idempotent e_i (1 in the (i+1,i+1) slot), i = 0,1,2."""
    return AlbertElement([int(m == i) for m in range(ADIM)])


def generic_element(prefix: str) -> AlbertElement:
    """The element with independent coordinates prefix0..prefix26."""
    return AlbertElement([variable(f"{prefix}{m}") for m in range(ADIM)])


@lru_cache(maxsize=1)
def generic_norm():
    """N(X) of the generic element X = generic_element("x"), formed once
    per process."""
    return norm_N(generic_element("x"))


def c_only(i: int, x: Octonion) -> AlbertElement:
    """Element supported on the c_i slot."""
    v = [0] * ADIM
    v[_slot(i) : _slot(i + 1)] = x.coords
    return AlbertElement(v)


# --------------------------------------------------------------------------
# products and forms


def trace_form_T(x: AlbertElement, y: AlbertElement):
    """T(x,y) = trace(x . y), evaluated on its Gram `_t_gram`."""
    return pairing(_t_gram(), x.coords, y.coords)


def norm_N(x: AlbertElement):
    """The cubic norm eps0 eps1 eps2 - sum_i eps_i n(c_i) + t((c0 c1) c2),
    with the trace read as t(ab) = 2 n(a, conj b): one octonion product."""
    e0, e1, e2 = x.eps
    c0, c1, c2 = x.c
    out = e0 * e1 * e2
    out = out - e0 * c0.norm() - e1 * c1.norm() - e2 * c2.norm()
    return rat(out + 2 * (c0 * c1).norm_pairing(c2.conj()))


def trilinear_N(x: AlbertElement, y: AlbertElement, z: AlbertElement):
    """The full polarization normalized so that N(x,x,x) = N(x)."""
    n = (
        norm_N(x + y + z)
        - norm_N(x + y)
        - norm_N(x + z)
        - norm_N(y + z)
        + norm_N(x)
        + norm_N(y)
        + norm_N(z)
    )
    return div(n, 6)


def sharp(x: AlbertElement) -> AlbertElement:
    """The adjoint, sharp(x) = (x cross x)/2."""
    return Fraction(1, 2) * cross(x, x)


def cross(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """Freudenthal cross product, pinned by T(x cross y, z) = 6 N(x,y,z):
    the polarization of the adjoint's closed form, written down.
    For x = (e; c), y = (f; d) and s mod 3,

        (x cross y)_{eps_s} = e_{s+1} f_{s+2} + f_{s+1} e_{s+2} - 2 n(c_s, d_s)
        (x cross y)_{c_s}   = conj(c_{s+2}) conj(d_{s+1})
                              + conj(d_{s+2}) conj(c_{s+1}) - e_s d_s - f_s c_s."""
    e, f = x.eps, y.eps
    c, d = x.c, y.c
    cb, db = [t.conj() for t in c], [t.conj() for t in d]
    eps, octs = [], []
    for s in range(3):
        s1, s2 = (s + 1) % 3, (s + 2) % 3
        eps.append(e[s1] * f[s2] + f[s1] * e[s2] - 2 * c[s].norm_pairing(d[s]))
        octs.append(cb[s2] * db[s1] + db[s2] * cb[s1] - e[s] * d[s] - f[s] * c[s])
    return element(eps, octs)


def _slot(i: int) -> int:
    """The first of the eight coordinates of the octonion slot c_i."""
    return 3 + 8 * i


def _block_diagonal(
    eps: Sequence[int | Fraction | QuadExtScalar], blocks: Sequence[Matrix]
) -> Matrix:
    """The 27x27 matrix diag(eps0, eps1, eps2) + block0 + block1 + block2,
    each 8x8 block on the coordinates of its octonion slot."""
    entries = [(i, i, eps[i]) for i in range(3)]
    for i, block in enumerate(blocks):
        s = _slot(i)
        entries += [(s + r, s + c, x) for r, c, x in nonzeros(block)]
    return from_nonzeros(ADIM, ADIM, entries)


@lru_cache(maxsize=1)
def _t_gram() -> Matrix:
    """T(x, y) = trace(x . y) on the basis in closed form (Springer and
    Veldkamp 2000, 5.1), diag(1, 1, 1) + 2G + 2G + 2G with G the octonion
    norm Gram: the diagonal slots pair by products and each octonion slot
    by twice the norm pairing."""
    g2 = scal_mul(2, build_cayley_table().gram)
    return _block_diagonal((1, 1, 1), (g2, g2, g2))


@lru_cache(maxsize=1)
def _t_gram_inv() -> Matrix:
    return mat_inv(_t_gram())


# --------------------------------------------------------------------------
# maps of the algebra


class AlbertMap(_Frozen):
    """A linear map in the 27 coordinates.  The constructor checks only
    the shape: `dagger` and `in_subgroup_H` need an invertible map and
    raise ValueError on a singular one."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if matrix.shape != (ADIM, ADIM):
            raise ValueError("Albert maps are 27x27")
        super().__init__(matrix)

    def __call__(self, x: AlbertElement) -> AlbertElement:
        return AlbertElement(mat_vec(self.matrix, x.coords))

    def dagger(self) -> "AlbertMap":
        """The unique map with T(f(j), dagger(f)(j')) = T(j, j');
        singular maps are rejected."""
        try:
            inv_t = mat_inv(transpose(self.matrix))
        except ZeroDivisionError:
            raise ValueError("dagger needs an invertible map") from None
        return AlbertMap(mat_mul(_t_gram_inv(), mat_mul(inv_t, _t_gram())))

    def preserves_norm(self) -> bool:
        """Whether N(f(X)) = N(X) for the generic element X: a polynomial
        identity in the 27 coordinates, so f preserves N on every element."""
        return norm_N(self(generic_element("x"))) == generic_norm()

    def __repr__(self) -> str:
        return "albert_map(27x27)"


def identity_map() -> AlbertMap:
    return AlbertMap(identity(ADIM))


# --------------------------------------------------------------------------
# the embedding of related triples


def g_map(T: SimilitudeTriple) -> AlbertMap:
    """The norm isometry g_t: eps_i -> mu(t_i)^{-1} eps_i, c_i -> t_i(c_i).
    Unrelated triples are rejected."""
    if not is_related_triple(T):
        raise ValueError("triple is not related; g-action undefined")
    return AlbertMap(
        _block_diagonal([div(1, t.mu) for t in T.t], [t.matrix for t in T.t])
    )


# --------------------------------------------------------------------------
# Freudenthal's psi maps


def psi(i: int, j: int, x: Octonion) -> AlbertMap:
    """psi_ij(x): a -> (1 + x E_ij) a (1 + x E_ij)^*, indices in 1..3,
    written down.  With I = i - 1, J = j - 1, K the third index, and y = x
    when the (I, J) entry of the hermitian matrix is c_K, y = conj(x) when
    it is conj(c_K), psi_ij(x) is the identity plus

        eps_I gains n(x) eps_J + 2 n(y, c_K),
        c_K   gains eps_J y,
        c_J   gains conj(x c_I) when J = I + 1 mod 3, else x conj(c_I),

    which is the matrix product expanded: the (I, I) entry gains
    x a_JI + a_IJ conj(x) + x a_JJ conj(x), the (I, J) entry x a_JJ and the
    (I, K) entry x a_JK."""
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("need distinct indices in 1..3")
    I, J = i - 1, j - 1
    K = 3 - I - J
    forward = J == (I + 1) % 3  # the (I, J) entry is c_K
    y = x if forward else x.conj()
    if forward:
        cols = [(x * b).conj().coords for b in BASIS]
    else:
        cols = [(x * b.conj()).coords for b in BASIS]
    gy = mat_vec(build_cayley_table().gram, y.coords)
    entries = [(m, m, 1) for m in range(ADIM)] + [(I, J, x.norm())]
    entries += [(I, _slot(K) + c, rat(2 * v)) for c, v in enumerate(gy)]
    entries += [(_slot(K) + a, J, v) for a, v in enumerate(y.coords)]
    entries += [
        (_slot(J) + a, _slot(I) + b, v) for b, col in enumerate(cols) for a, v in enumerate(col)
    ]
    return AlbertMap(from_nonzeros(ADIM, ADIM, entries))


# --------------------------------------------------------------------------
# the 10-dimensional subspace A = e0 x J


# positions of the A basis (u1..u4, e1, e2, u5..u8) inside the 27 coords,
# and the other seventeen
A_COORD_INDICES = (3, 4, 5, 6, 1, 2, 7, 8, 9, 10)
_OFF_A = tuple(m for m in range(ADIM) if m not in A_COORD_INDICES)
# e0's coordinates
_E0 = tuple(int(m == 0) for m in range(ADIM))


# the displayed Gram of the A-form: -S4 pairs u1..u4 with u5..u8 and S2
# pairs e1 with e2, so it is antidiagonal, -1 but at the e-entries
A_GRAM = from_nonzeros(10, 10, [(r, 9 - r, 1 if r in (4, 5) else -1) for r in range(10)])


def a_project(x: AlbertElement) -> tuple:
    """Albert element -> A-coordinates; rejects elements outside A."""
    coords = x.coords
    for m in range(ADIM):
        if m not in A_COORD_INDICES and bool(coords[m]):
            raise ValueError("element does not lie in the subspace A")
    return tuple(coords[pos] for pos in A_COORD_INDICES)


def a_form_value(v: Sequence[int | Fraction | QuadExtScalar]):
    """The quadratic form N_A of the subspace, from its displayed Gram."""
    return pairing(A_GRAM, v, v)


def in_subgroup_H(f: AlbertMap) -> bool:
    """Membership in H: f and f.dagger() = T^-1 f^-T T both fix e0.  As the
    trace-form Gram T fixes e0, that is column 0 and row 0 of f being e0;
    a singular map that fixes e0 has no dagger and is rejected."""
    m = f.matrix
    if column(m, 0) != _E0:
        return False
    if not det(m):
        raise ValueError("dagger needs an invertible map")
    return row(m, 0) == _E0


def restrict_to_A(f: AlbertMap) -> Matrix:
    """The 10x10 restriction of an H-element to A (it stabilizes A since
    f(e0 x j) = f.dagger()(e0) x f.dagger()(j)): the block of f on the A
    coordinates.  Maps outside H, or whose image of A leaves A, are
    rejected."""
    if not in_subgroup_H(f):
        raise ValueError("map is not in H (does not fix e0 with its dagger)")
    m = f.matrix
    if submatrix(m, _OFF_A, A_COORD_INDICES):
        raise ValueError("element does not lie in the subspace A")
    return submatrix(m, A_COORD_INDICES, A_COORD_INDICES)


def preserves_a_form(r10: Matrix) -> bool:
    return pullback(r10, A_GRAM) == A_GRAM


def swap_map() -> AlbertMap:
    """The hermitian congruence by the permutation swapping the last two
    rows and columns: (eps0,eps1,eps2;c0,c1,c2) ->
    (eps0,eps2,eps1; conj c0, conj c2, conj c1).

    This is the norm-preserving form of the displayed slot swap (the
    bar-less version is not a norm isometry).  Note its A-restriction has
    determinant +1: the entry conjugations contribute a second sign, so
    the stated determinant -1 belongs to the bar-less display only; the
    verification ledger records this discrepancy.  Written down, it is the
    permutation of eps1 and eps2 and of the slots c1 and c2, with the
    conjugation's 8x8 matrix on each slot.
    """
    entries = [(0, 0, 1), (1, 2, 1), (2, 1, 1)]
    for src, dst in ((0, 0), (2, 1), (1, 2)):
        entries += [
            (_slot(dst) + a, _slot(src) + b, v)
            for b, u in enumerate(BASIS)
            for a, v in enumerate(u.conj().coords)
        ]
    return AlbertMap(from_nonzeros(ADIM, ADIM, entries))


# --------------------------------------------------------------------------
# Moving Lemma arithmetic


def moving_lemma_data(T: SimilitudeTriple, j: AlbertElement) -> tuple:
    """(r, j') for a rank-one j in e0 x J and the cocycle value
    eta_iota = g_T: j' = eta_iota(iota j) and r = T(j, j'), which the
    repositioning argument for special cocycles needs nonzero.  A j
    outside A, of rank other than one, or with r = 0 is rejected."""
    a_project(j)  # raises if j is outside A = e0 x J
    if sharp(j) != ZERO:
        raise ValueError("j must be rank one (sharp j = 0)")
    j_prime = g_map(T)(j.iota())
    r = trace_form_T(j, j_prime)
    if not bool(r):
        raise ValueError("hypothesis fails: T(j, eta_iota iota j) = 0")
    return r, j_prime
