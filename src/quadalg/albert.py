"""The 27-dimensional Albert algebra H3(C): Jordan product, trace form,
cubic norm, cross product, sharp map, the action of related triples, the
trace-form adjoint (dagger), Freudenthal's psi maps, and the subspace A
with its 10-dimensional quadratic form.

Elements are (eps0, eps1, eps2; c0, c1, c2) for the hermitian matrix with
c_i in the (i+1, i+2) slot.  The cubic norm has the closed form

    N(x) = eps0 eps1 eps2 - sum_i eps_i n(c_i) + t((c0 c1) c2)

and the adjoint the closed form

    (x#)_{eps_i} = eps_{i+1} eps_{i+2} - n(c_i)
    (x#)_{c_i}   = conj(c_{i+2}) conj(c_{i+1}) - eps_i c_i,

both validated against the matrix-representation route (x# as the
degree-2 characteristic coefficient, 3N as T(x, x#)) in the test suite.
The cross product is pinned by T-duality, T(x cross y, z) = 6 N(x, y, z),
and computed by linearizing the adjoint; sharp(x) = (x cross x)/2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .cayley import (
    DIM as ODIM,
    Octonion,
    ONE,
    SimilitudeTriple,
    build_cayley_table,
    is_related_triple,
)
from .exactmat import (
    Matrix,
    det,
    freeze,
    identity,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_vec,
    pullback,
    transpose,
)
from .scalars import QuadExtScalar, as_scalar, div, exact_sum, iota, rat, variable

ADIM = 27

ZERO_OCT = Octonion([0] * ODIM)


class AlbertElement:
    """(eps0, eps1, eps2; c0, c1, c2) with exact scalar entries."""

    __slots__ = ("eps", "c")

    def __init__(self, eps: Sequence[int | Fraction | QuadExtScalar], c: Sequence[Octonion]):
        if len(eps) != 3 or len(c) != 3:
            raise ValueError("need three diagonal scalars and three octonions")
        object.__setattr__(self, "eps", tuple(as_scalar(e) for e in eps))
        object.__setattr__(self, "c", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("AlbertElement is immutable")

    def __reduce__(self):  # pickle and copy through the constructor
        return AlbertElement, (self.eps, self.c)

    # -- linear structure -------------------------------------------------
    def __add__(self, other: "AlbertElement") -> "AlbertElement":
        return AlbertElement(
            [a + b for a, b in zip(self.eps, other.eps)],
            [a + b for a, b in zip(self.c, other.c)],
        )

    def __sub__(self, other: "AlbertElement") -> "AlbertElement":
        return AlbertElement(
            [a - b for a, b in zip(self.eps, other.eps)],
            [a - b for a, b in zip(self.c, other.c)],
        )

    def __neg__(self) -> "AlbertElement":
        return AlbertElement([-a for a in self.eps], [-a for a in self.c])

    def __rmul__(self, scalar) -> "AlbertElement":
        return AlbertElement(
            [scalar * a for a in self.eps], [scalar * x for x in self.c]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlbertElement)
            and all(a == b for a, b in zip(self.eps, other.eps))
            and all(a == b for a, b in zip(self.c, other.c))
        )

    def __hash__(self):
        return hash((self.eps, tuple(x.coords for x in self.c)))

    def __bool__(self) -> bool:
        return any(bool(e) for e in self.eps) or any(bool(x) for x in self.c)

    def iota(self) -> "AlbertElement":
        """Entrywise Galois conjugation of all 27 coordinates."""
        return AlbertElement([iota(e) for e in self.eps], [x.iota() for x in self.c])

    def coords(self) -> tuple:
        out = list(self.eps)
        for x in self.c:
            out.extend(x.coords)
        return tuple(out)

    @staticmethod
    def from_coords(v: Sequence[int | Fraction | QuadExtScalar]) -> "AlbertElement":
        if len(v) != ADIM:
            raise ValueError("need 27 coordinates")
        return AlbertElement(
            v[:3],
            [Octonion(v[3 + 8 * i : 11 + 8 * i]) for i in range(3)],
        )

    def __repr__(self) -> str:
        return f"albert(eps={self.eps}, c={self.c})"


ZERO = AlbertElement((0, 0, 0), (ZERO_OCT, ZERO_OCT, ZERO_OCT))
IDENTITY = AlbertElement((1, 1, 1), (ZERO_OCT, ZERO_OCT, ZERO_OCT))


def e_idem(i: int) -> AlbertElement:
    """The diagonal idempotent e_i (1 in the (i+1,i+1) slot), i = 0,1,2."""
    eps = [0, 0, 0]
    eps[i] = 1
    return AlbertElement(eps, (ZERO_OCT, ZERO_OCT, ZERO_OCT))


def basis_element(m: int) -> AlbertElement:
    v = [0] * ADIM
    v[m] = 1
    return AlbertElement.from_coords(v)


ALBERT_BASIS = tuple(basis_element(m) for m in range(ADIM))


def generic_element(prefix: str) -> AlbertElement:
    """The element with independent coordinates prefix0..prefix26."""
    return AlbertElement.from_coords([variable(f"{prefix}{m}") for m in range(ADIM)])


def c_only(i: int, x: Octonion) -> AlbertElement:
    """Element supported on the c_i slot."""
    c = [ZERO_OCT, ZERO_OCT, ZERO_OCT]
    c[i] = x
    return AlbertElement((0, 0, 0), c)


# --------------------------------------------------------------------------
# products and forms


def _to_matrix(x: AlbertElement):
    m = [[ZERO_OCT] * 3 for _ in range(3)]
    for i in range(3):
        m[i][i] = x.eps[i] * ONE
        m[(i + 1) % 3][(i + 2) % 3] = x.c[i]
        m[(i + 2) % 3][(i + 1) % 3] = x.c[i].conj()
    return m


def _from_matrix(m) -> AlbertElement:
    eps = []
    for i in range(3):
        d = m[i][i]
        if d.coords[3] != d.coords[4] or any(
            bool(d.coords[t]) for t in (0, 1, 2, 5, 6, 7)
        ):
            raise ValueError("matrix is not hermitian: diagonal not scalar")
        eps.append(d.coords[3])
    c = [m[1][2], m[2][0], m[0][1]]
    for i in range(3):
        if m[(i + 2) % 3][(i + 1) % 3] != c[i].conj():
            raise ValueError("matrix is not hermitian")
    return AlbertElement(eps, c)


def trace_form_T(x: AlbertElement, y: AlbertElement):
    """T(x,y) = trace(x . y): diagonal products plus the full norm
    polarizations of the c-slots."""
    return exact_sum(
        [a * b for a, b in zip(x.eps, y.eps)]
        + [2 * a.norm_pairing(b) for a, b in zip(x.c, y.c)]
    )


def _oct_trace(x: Octonion):
    return 2 * x.norm_pairing(ONE)


def norm_N(x: AlbertElement):
    """The cubic norm (determinant-type closed form)."""
    e0, e1, e2 = x.eps
    c0, c1, c2 = x.c
    out = e0 * e1 * e2
    out = out - e0 * c0.norm() - e1 * c1.norm() - e2 * c2.norm()
    return rat(out + _oct_trace((c0 * c1) * c2))


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
    """The adjoint: sharp(x) = (x cross x)/2, in closed form."""
    e0, e1, e2 = x.eps
    c0, c1, c2 = x.c
    eps = (e1 * e2 - c0.norm(), e2 * e0 - c1.norm(), e0 * e1 - c2.norm())
    c = (
        c2.conj() * c1.conj() - e0 * c0,
        c0.conj() * c2.conj() - e1 * c1,
        c1.conj() * c0.conj() - e2 * c2,
    )
    return AlbertElement(eps, c)


def cross(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """Freudenthal cross product, pinned by T(x cross y, z) = 6 N(x,y,z);
    computed as the linearization of the adjoint."""
    return sharp(x + y) - sharp(x) - sharp(y)


def _block_diagonal(
    eps: Sequence[int | Fraction | QuadExtScalar], blocks: Sequence[Matrix]
) -> Matrix:
    """The 27x27 matrix diag(eps0, eps1, eps2) + block0 + block1 + block2,
    each 8x8 block on the coordinates of its octonion slot."""
    rows = [[0] * ADIM for _ in range(ADIM)]
    for i in range(3):
        rows[i][i] = eps[i]
        for r, row in enumerate(blocks[i]):
            rows[3 + 8 * i + r][3 + 8 * i : 11 + 8 * i] = row
    return freeze(rows)


@lru_cache(maxsize=1)
def _t_gram() -> Matrix:
    """T on the basis in closed form, diag(1, 1, 1) + 2G + 2G + 2G with G
    the octonion norm Gram: trace_form_T pairs the diagonal slots by
    products and each octonion slot by twice the norm pairing."""
    g2 = freeze([[rat(2 * x) for x in row] for row in build_cayley_table().gram])
    return _block_diagonal((1, 1, 1), (g2, g2, g2))


@lru_cache(maxsize=1)
def _t_gram_inv() -> Matrix:
    return mat_inv(_t_gram())


# --------------------------------------------------------------------------
# maps of the algebra


class AlbertMap:
    """An invertible linear map in the 27 coordinates."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        matrix = freeze(matrix)
        if len(matrix) != ADIM or any(len(r) != ADIM for r in matrix):
            raise ValueError("Albert maps are 27x27")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("AlbertMap is immutable")

    def __call__(self, x: AlbertElement) -> AlbertElement:
        return AlbertElement.from_coords(mat_vec(self.matrix, x.coords()))

    def inverse(self) -> "AlbertMap":
        return AlbertMap(mat_inv(self.matrix))

    def det(self):
        return det(self.matrix)

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
        x = generic_element("x")
        return norm_N(self(x)) == norm_N(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlbertMap) and mat_eq(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return "albert_map(27x27)"


def identity_map() -> AlbertMap:
    return AlbertMap(identity(ADIM))


def dagger(f: AlbertMap) -> AlbertMap:
    return f.dagger()


def linear_map_from_action(action: Callable[[AlbertElement], AlbertElement]) -> AlbertMap:
    cols = [action(b).coords() for b in ALBERT_BASIS]
    return AlbertMap(freeze([[cols[j][i] for j in range(ADIM)] for i in range(ADIM)]))


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
    """psi_ij(x): a -> (1 + x E_ij) a (1 + x E_ij)^*, indices in 1..3."""
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("need distinct indices in 1..3")

    def act(a: AlbertElement) -> AlbertElement:
        m = _to_matrix(a)
        # left-multiply by 1 + x E_ij: row i gains x * row j
        m1 = [row[:] for row in m]
        m1[i - 1] = [m[i - 1][t] + x * m[j - 1][t] for t in range(3)]
        # right-multiply by 1 + conj(x) E_ji: column i gains column j * conj(x)
        xbar = x.conj()
        m2 = [row[:] for row in m1]
        for t in range(3):
            m2[t][i - 1] = m1[t][i - 1] + m1[t][j - 1] * xbar
        return _from_matrix(m2)

    return linear_map_from_action(act)


# --------------------------------------------------------------------------
# the 10-dimensional subspace A = e0 x J


# positions of the A basis (u1..u4, e1, e2, u5..u8) inside the 27 coords
A_COORD_INDICES = (3, 4, 5, 6, 1, 2, 7, 8, 9, 10)

_S2 = ((0, 1), (1, 0))
_S4 = tuple(tuple(int(r + c == 3) for c in range(4)) for r in range(4))


def _a_gram_display() -> Matrix:
    g = [[0] * 10 for _ in range(10)]
    for r in range(4):
        for c in range(4):
            g[r][6 + c] = -_S4[r][c]
            g[6 + r][c] = -_S4[r][c]
    for r in range(2):
        for c in range(2):
            g[4 + r][4 + c] = _S2[r][c]
    return freeze(g)


A_GRAM = _a_gram_display()


def a_embed(v: Sequence[int | Fraction | QuadExtScalar]) -> AlbertElement:
    """A-coordinates (u1..u4, e1, e2, u5..u8) -> Albert element."""
    if len(v) != 10:
        raise ValueError("A has dimension 10")
    coords = [0] * ADIM
    for val, pos in zip(v, A_COORD_INDICES):
        coords[pos] = val
    return AlbertElement.from_coords(coords)


def a_project(x: AlbertElement) -> tuple:
    """Albert element -> A-coordinates; rejects elements outside A."""
    coords = x.coords()
    for m in range(ADIM):
        if m not in A_COORD_INDICES and bool(coords[m]):
            raise ValueError("element does not lie in the subspace A")
    return tuple(coords[pos] for pos in A_COORD_INDICES)


def a_form_value(v: Sequence[int | Fraction | QuadExtScalar]):
    """The quadratic form N_A of the subspace, from its displayed Gram."""
    return exact_sum(
        [A_GRAM[r][c] * (v[r] * v[c]) for r in range(10) for c in range(10) if A_GRAM[r][c]]
    )


def in_subgroup_H(f: AlbertMap) -> bool:
    """Membership in H: f and dagger(f) both fix e0."""
    e0 = e_idem(0)
    return f(e0) == e0 and f.dagger()(e0) == e0


def restrict_to_A(f: AlbertMap) -> Matrix:
    """The 10x10 restriction of an H-element to A (it stabilizes A since
    f(e0 x j) = dagger(f)(e0) x dagger(f)(j)); maps not stabilizing A or
    outside H are rejected."""
    if not in_subgroup_H(f):
        raise ValueError("map is not in H (does not fix e0 with its dagger)")
    cols = []
    for s in range(10):
        img = f(a_embed([int(t == s) for t in range(10)]))
        cols.append(a_project(img))
    return freeze([[cols[c][r] for c in range(10)] for r in range(10)])


def preserves_a_form(r10: Matrix, gram: Matrix = None) -> bool:
    g = A_GRAM if gram is None else gram
    return mat_eq(pullback(r10, g), g)


def swap_map() -> AlbertMap:
    """The hermitian congruence by the permutation swapping the last two
    rows and columns: (eps0,eps1,eps2;c0,c1,c2) ->
    (eps0,eps2,eps1; conj c0, conj c2, conj c1).

    This is the norm-preserving form of the displayed slot swap (the
    bar-less version is not a norm isometry).  Note its A-restriction has
    determinant +1: the entry conjugations contribute a second sign, so
    the stated determinant -1 belongs to the bar-less display only; the
    verification ledger records this discrepancy.
    """

    def act(x: AlbertElement) -> AlbertElement:
        return AlbertElement(
            (x.eps[0], x.eps[2], x.eps[1]),
            (x.c[0].conj(), x.c[2].conj(), x.c[1].conj()),
        )

    return linear_map_from_action(act)


# --------------------------------------------------------------------------
# Moving Lemma arithmetic


class MovingLemmaData:
    """r = T(j, j'), j' = eta_iota(iota j), and the named identity checks."""

    __slots__ = ("r", "j_prime", "checks")

    def __init__(self, r: int | Fraction | QuadExtScalar, j_prime: AlbertElement, checks: dict):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "j_prime", j_prime)
        object.__setattr__(self, "checks", checks)

    def __setattr__(self, *a):
        raise AttributeError("MovingLemmaData is immutable")

    def _key(self) -> tuple:
        return (self.r, self.j_prime, self.checks)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is MovingLemmaData else NotImplemented

    def __reduce__(self):
        return MovingLemmaData, self._key()


def moving_lemma_data(T: SimilitudeTriple, j: AlbertElement) -> MovingLemmaData:
    """For a rank-one j in e0 x J and the cocycle value eta_iota = g_T,
    compute j' = eta_iota(iota j) and r = T(j, j'), and verify the
    general-position identities of the frame (j, e0, e0 x j') that drive
    the repositioning argument for special cocycles."""
    a_project(j)  # raises if j is outside A = e0 x J
    if sharp(j) != ZERO:
        raise ValueError("j must be rank one (sharp j = 0)")
    eta = g_map(T)
    j_prime = eta(j.iota())
    r = trace_form_T(j, j_prime)
    if not bool(r):
        raise ValueError("hypothesis fails: T(j, eta_iota iota j) = 0")
    e0 = e_idem(0)
    checks = {
        "T(e0,e0) = 1": trace_form_T(e0, e0) == 1,
        "e0 x (e0 x j') = j'": cross(e0, cross(e0, j_prime)) == j_prime,
        "j x (e0 x j') = r e0": cross(j, cross(e0, j_prime)) == r * e0,
        "6N(e0, j, e0 x j') = r": 6 * trilinear_N(e0, j, cross(e0, j_prime)) == r,
    }
    return MovingLemmaData(r, j_prime, checks)
