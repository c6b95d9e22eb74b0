"""The split Cayley algebra with the distinguished basis u1..u8, its norm,
involution, star product, similitudes, related triples and the special
cocycle matrices.

The basis is realized inside the Zorn vector-matrix algebra and pinned by
a calibration search (see ``calibration_search``).  The constraints are:
the anti-diagonal Gram matrix S8 for the bilinearized norm (n(x,x)=n(x)),
the involution table (conj u4 = u5, conj u5 = u4, conj u_i = -u_i else),
and genuine relatedness of the special triples z_j = m_j(a) d P.  Over Q
these cannot all hold: conj u4 = u5 forces trace(u4)^2 = n(u4+u5), so an
S8 value of 1 at the (4,5) pair would need trace(u4) = sqrt(2), and
relatedness of the z-triples pins the (3,6) pair the same way.  The
calibrated basis

    u1 = 2e1, u2 = 2f3, u3 = f2, u4 = h1, u5 = h2,
    u6 = -e2, u7 = -e3, u8 = -f1

therefore carries the Gram S8 *except* that n(u3,u6) = n(u4,u5) = 1/2;
every numeric value the source computations print (the descent tables,
T(j, z iota j) = 1) lives on the unaffected pairs and reproduces exactly.
The deviation is reported, never patched silently.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .exactmat import (
    Matrix,
    det,
    dot,
    freeze,
    identity,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_vec,
    pullback,
    ratio,
    transpose,
)
from .scalars import (
    QuadExtScalar,
    as_scalar,
    div,
    exact_sum,
    iota,
    rat,
    variable,
)

DIM = 8


class CalibrationError(RuntimeError):
    """The constructed table violates one of its hard invariants."""


# --------------------------------------------------------------------------
# Zorn vector matrices: (a, v, w, b) for [[a, v], [w, b]], v, w in F^3


def _zorn_mul(x, y):
    a1, v1, w1, b1 = x[0], x[1:4], x[4:7], x[7]
    a2, v2, w2, b2 = y[0], y[1:4], y[4:7], y[7]
    dot = lambda p, q: sum(s * t for s, t in zip(p, q))
    cross = lambda p, q: (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )
    cv, cw = cross(w1, w2), cross(v1, v2)
    return (
        a1 * a2 + dot(v1, w2),
        *(a1 * v2[i] + b2 * v1[i] - cv[i] for i in range(3)),
        *(a2 * w1[i] + b1 * w2[i] + cw[i] for i in range(3)),
        b1 * b2 + dot(w1, v2),
    )


_CAL_SCALES = (2, -1, 2, -1, 1, -1)
_CAL_PERM = (0, 1, 2)

S8 = freeze([[int(i + j == DIM - 1) for j in range(DIM)] for i in range(DIM)])


@lru_cache(maxsize=1)
def _zorn_slot_products():
    """Sparse single-slot products: slot a x slot b -> [(slot, coeff)].
    Built on integer unit vectors: the Zorn product has integer structure
    constants, and each stored coefficient is an int."""
    units = [tuple(int(m == a) for m in range(8)) for a in range(8)]
    return {
        (a, b): tuple((m, c) for m, c in enumerate(_zorn_mul(units[a], units[b])) if c)
        for a in range(8)
        for b in range(8)
    }


@lru_cache(maxsize=1)
def _zorn_slot_gram():
    """Half-polarized Gram of the Zorn norm in slot coordinates: the
    nonzero entries are +-1/2 and stay Fractions, the zeros are ints."""
    gram = {}
    for a in range(8):
        for b in range(8):
            if {a, b} == {0, 7}:
                gram[a, b] = Fraction(1, 2)
            elif b == a + 3 and 1 <= a <= 3 or a == b + 3 and 1 <= b <= 3:
                gram[a, b] = Fraction(-1, 2)
            else:
                gram[a, b] = 0
    return gram


def _candidate_slots(perm):
    """Zorn slot of each u-basis vector: e_i = slot 1+i, f_i = slot 4+i."""
    i1, i6, i7 = perm
    return (1 + i1, 4 + i7, 4 + i6, 0, 7, 1 + i6, 1 + i7, 4 + i1)


def _build_tables(scales, perm):
    c1, c8, c2, c7, c3, c6 = scales
    coeff = (c1, c2, c3, 1, 1, c6, c7, c8)
    slots = _candidate_slots(perm)
    slot_to_u = {s: i for i, s in enumerate(slots)}
    slot_products, slot_gram = _zorn_slot_products(), _zorn_slot_gram()
    prod = [[None] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            coords = [0] * DIM
            for m, c in slot_products[slots[i], slots[j]]:
                t = slot_to_u[m]
                coords[t] = div(coeff[i] * coeff[j] * c, coeff[t])
            prod[i][j] = tuple(coords)
    gram = freeze(
        [
            [rat(coeff[i] * coeff[j] * slot_gram[slots[i], slots[j]]) for j in range(DIM)]
            for i in range(DIM)
        ]
    )
    return freeze(prod), gram


class CayleyTable:
    """Structure constants, norm Gram (with n(x,x) = n(x)) and involution
    signs of the calibrated basis.  Two tables are equal when their
    products and Grams are; `constants` is derived from the products."""

    __slots__ = ("products", "gram", "constants")

    def __init__(self, products: tuple, gram: Matrix):
        # products[i][j] = coords of u_{i+1} u_{j+1}; constants[i][j] =
        # ((m, g), ...), the nonzero coordinates of products[i][j]
        constants = tuple(
            tuple(tuple((m, g) for m, g in enumerate(p) if g) for p in row) for row in products
        )
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "constants", constants)

    def __setattr__(self, *a):
        raise AttributeError("CayleyTable is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not CayleyTable:
            return NotImplemented
        return self.products == other.products and self.gram == other.gram

    def __reduce__(self):
        return CayleyTable, (self.products, self.gram)

    def gram_deviations(self) -> list[tuple[int, int, int | Fraction, int | Fraction]]:
        """(i, j, actual, S8-expected) for every differing entry, 1-based."""
        out = []
        for i in range(DIM):
            for j in range(i, DIM):
                if self.gram[i][j] != S8[i][j]:
                    out.append((i + 1, j + 1, self.gram[i][j], S8[i][j]))
        return out


@lru_cache(maxsize=1)
def build_cayley_table() -> CayleyTable:
    """Construct and validate the calibrated multiplication table."""
    prod, gram = _build_tables(_CAL_SCALES, _CAL_PERM)
    table = CayleyTable(prod, gram)
    _validate_table(table)
    return table


@lru_cache(maxsize=1)
def _gram_inv() -> Matrix:
    return mat_inv(build_cayley_table().gram)


def _involution_table_holds(table: CayleyTable) -> bool:
    """conj(x) = trace(x) 1 - x must act as u4 <-> u5, u_i -> -u_i else,
    on the generic octonion x."""
    one = _find_unit(table)
    if one is None:
        return False
    x = generic_octonion("x").coords
    t = 2 * dot(mat_vec(table.gram, one), x)
    return tuple(t * e - c for e, c in zip(one, x)) == _conj_coords(x)


def _validate_table(table: CayleyTable) -> None:
    if _find_unit(table) is None:
        raise CalibrationError("table has no unit element")
    if not _involution_table_holds(table):
        raise CalibrationError("involution table fails")
    # expected Gram: S8 away from the two provably irrational pairs
    for i, j, got, want in table.gram_deviations():
        if {i, j} not in ({3, 6}, {4, 5}) or got != Fraction(1, 2):
            raise CalibrationError(f"unexpected Gram entry at ({i},{j}): {got}")


def _find_unit(table: CayleyTable):
    """The h-pair combination u4 + u5, if it is a left unit: one x = x on
    the generic octonion x."""
    one = (0, 0, 0, 1, 1, 0, 0, 0)
    x = generic_octonion("x").coords
    return one if _mul_coords(table, one, x) == x else None


def _mul_coords(table: CayleyTable, x, y):
    """Coordinates of x y: the partial products of each output coordinate,
    one per nonzero structure constant, are gathered and summed once."""
    parts = [[] for _ in range(DIM)]
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for xi, row in zip(x, table.constants):
        if not xi:
            continue
        for j, yj in ys:
            if row[j]:
                c = xi * yj
                for m, g in row[j]:
                    parts[m].append(c * g)
    return tuple(map(exact_sum, parts))


# --------------------------------------------------------------------------
# octonions


class Octonion:
    """An element of the split Cayley algebra in the u1..u8 basis; the
    coordinates are exact rationals (int or Fraction, canonical), Laurent
    polynomials or QuadExtScalar over one extension."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[int | Fraction | QuadExtScalar]):
        if len(coords) != DIM:
            raise ValueError("octonions have 8 coordinates")
        object.__setattr__(
            self,
            "coords",
            tuple(as_scalar(c) for c in coords),
        )

    def __setattr__(self, *a):
        raise AttributeError("Octonion is immutable")

    def __reduce__(self):  # pickle and copy through the constructor
        return Octonion, (self.coords,)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Octonion":
        return Octonion([-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(_mul_coords(build_cayley_table(), self.coords, other.coords))
        return Octonion([a * other for a in self.coords])

    def __rmul__(self, scalar):
        return Octonion([scalar * a for a in self.coords])

    def __eq__(self, other) -> bool:
        return isinstance(other, Octonion) and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self) -> bool:
        return any(bool(c) for c in self.coords)

    def conj(self) -> "Octonion":
        """Canonical involution: u4 <-> u5, the rest negated."""
        return Octonion(_conj_coords(self.coords))

    def iota(self) -> "Octonion":
        """Entrywise Galois conjugation of the coordinates."""
        return Octonion([iota(c) for c in self.coords])

    def norm(self):
        return self.norm_pairing(self)

    def norm_pairing(self, other: "Octonion"):
        """The bilinearization with n(x,x) = n(x)."""
        g = build_cayley_table().gram
        a, b = self.coords, other.coords
        return exact_sum(
            [g[i][j] * (a[i] * b[j]) for i in range(DIM) for j in range(DIM) if g[i][j]]
        )

    def trace(self):
        return rat(self.norm_pairing(ONE) * 2)

    def __repr__(self) -> str:
        return "oct(" + ", ".join(str(c) for c in self.coords) + ")"


def u(i: int) -> Octonion:
    """Basis element u_i, 1-indexed."""
    if not 1 <= i <= DIM:
        raise ValueError("basis index out of range")
    return Octonion([int(j == i - 1) for j in range(DIM)])


BASIS = tuple(u(i) for i in range(1, DIM + 1))
ONE = u(4) + u(5)


def star(x: Octonion, y: Octonion) -> Octonion:
    """The product x (star) y = conj(x) conj(y); not unital, not associative."""
    return x.conj() * y.conj()


# --------------------------------------------------------------------------
# similitudes


class Similitude:
    """An invertible map with n(t(c)) = mu(t) n(c); matrix acts on
    coordinate columns, rightmost factor acts first in compositions."""

    __slots__ = ("matrix", "mu")

    def __init__(self, matrix: Matrix):
        matrix = freeze(matrix)
        if len(matrix) != DIM or any(len(r) != DIM for r in matrix):
            raise ValueError("similitudes are 8x8")
        g = build_cayley_table().gram
        mu = ratio(pullback(matrix, g), g)
        if not mu:
            raise ValueError("matrix is not a norm similitude")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, *a):
        raise AttributeError("Similitude is immutable")

    def __reduce__(self):  # pickle and copy through the constructor
        return Similitude, (self.matrix,)

    def __call__(self, x: Octonion) -> Octonion:
        return Octonion(mat_vec(self.matrix, x.coords))

    def inverse(self) -> "Similitude":
        return Similitude(mat_inv(self.matrix))

    def det(self):
        return det(self.matrix)

    def sigma_n(self) -> "Similitude":
        """The norm adjoint G^-1 t^T G; sigma_n(t) t = mu(t)."""
        g = build_cayley_table().gram
        return Similitude(mat_mul(_gram_inv(), mat_mul(transpose(self.matrix), g)))

    def iota_twisted(self) -> "Similitude":
        """The twisted Galois action on the group G: entrywise conjugation
        of sigma_n(t)^{-1}, which is t / mu(t)."""
        inv_mu = div(1, self.mu)
        return Similitude(
            freeze([[iota(x * inv_mu) for x in row] for row in self.matrix])
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Similitude) and mat_eq(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"similitude(mu={self.mu})"


def multiplier(t: Similitude):
    return t.mu


def sigma_n(t: Similitude) -> Similitude:
    return t.sigma_n()


class SimilitudeTriple:
    """Three similitudes t = (t0, t1, t2)."""

    __slots__ = ("t",)

    def __init__(self, t: tuple[Similitude, Similitude, Similitude]):
        if len(t) != 3 or not all(isinstance(s, Similitude) for s in t):
            raise ValueError("a similitude triple is three similitudes")
        object.__setattr__(self, "t", t)

    def __setattr__(self, *a):
        raise AttributeError("SimilitudeTriple is immutable")

    def __eq__(self, other) -> bool:
        return self.t == other.t if type(other) is SimilitudeTriple else NotImplemented

    def __reduce__(self):
        return SimilitudeTriple, (self.t,)

    def __getitem__(self, i: int) -> Similitude:
        return self.t[i % 3]

    @property
    def multipliers(self):
        return tuple(s.mu for s in self.t)

    def iota_twisted(self) -> "SimilitudeTriple":
        return SimilitudeTriple(tuple(s.iota_twisted() for s in self.t))


def generic_octonion(prefix: str) -> Octonion:
    """The octonion with independent coordinates prefix0..prefix7."""
    return Octonion([variable(f"{prefix}{i}") for i in range(DIM)])


def generic_a() -> tuple:
    """The product-one triple (A, B, 1/(AB)) in independent variables: an
    identity that holds for it holds for every a with a0 a1 a2 = 1."""
    a, b = variable("A"), variable("B")
    return (a, b, div(1, a * b))


def _relates(table: CayleyTable, T: SimilitudeTriple) -> bool:
    """t_i(X star Y) = mu(t_i) t_{i+2}(X) star t_{i+1}(Y) for all i mod 3,
    with the star product of `table` and X, Y generic octonions: the
    identity is bilinear, so this one evaluation proves it for all pairs."""

    def star_of(x, y):
        return _mul_coords(table, _conj_coords(x), _conj_coords(y))

    x, y = generic_octonion("x").coords, generic_octonion("y").coords
    xy = star_of(x, y)
    for i in range(3):
        lhs = mat_vec(T[i].matrix, xy)
        rhs = star_of(mat_vec(T[i + 2].matrix, x), mat_vec(T[i + 1].matrix, y))
        if any(l != T[i].mu * r for l, r in zip(lhs, rhs)):
            return False
    return True


def is_related_triple(T: SimilitudeTriple) -> bool:
    """Whether mu(t_i)^{-1} t_i(x star y) = t_{i+2}(x) star t_{i+1}(y) for
    all octonions x, y and all i mod 3."""
    return _relates(build_cayley_table(), T)


# --------------------------------------------------------------------------
# the special cocycles of the z-construction


def perm_P() -> Matrix:
    """The permutation (1 2)(3 6)(4 5)(7 8) on the basis."""
    images = {1: 2, 2: 1, 3: 6, 6: 3, 4: 5, 5: 4, 7: 8, 8: 7}
    rows = [[0] * DIM for _ in range(DIM)]
    for k, m in images.items():
        rows[m - 1][k - 1] = 1
    return freeze(rows)


def diag_d() -> Matrix:
    signs = [1, 1, -1, 1, 1, -1, 1, 1]
    return freeze(
        [[signs[i] if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    )


def m_matrix(j: int, a: Sequence[int | Fraction | QuadExtScalar]) -> Matrix:
    """diag(1, a_j, a_j, a_{j+2}^{-1}, a_{j+1}^{-1}, 1, 1, a_j)."""
    aj, aj1, aj2 = a[j % 3], a[(j + 1) % 3], a[(j + 2) % 3]
    entries = [1, aj, aj, div(1, aj2), div(1, aj1), 1, 1, aj]
    return freeze(
        [[entries[i] if i == c else 0 for c in range(DIM)] for i in range(DIM)]
    )


def special_cocycle(a: Sequence[int | Fraction | QuadExtScalar]) -> SimilitudeTriple:
    """The related triple z_j = m_j(a) d P for a product-one triple a;
    its multiplier triple is exactly (a0, a1, a2)."""
    if len(a) != 3:
        raise ValueError("need a triple")
    prod = a[0] * a[1] * a[2]
    if prod != 1:
        raise ValueError("triple must have product 1")
    dp = mat_mul(diag_d(), perm_P())
    return SimilitudeTriple(
        tuple(Similitude(mat_mul(m_matrix(j, a), dp)) for j in range(3))
    )


def special_cocycle_iota_closed_form(j: int, a: Sequence[int | Fraction | QuadExtScalar]) -> Matrix:
    """diag(a_j^{-1},1,1,a_{j+1},a_{j+2},a_j^{-1},a_j^{-1},1) d P, the
    stated closed form of the iota-twist of z_j."""
    aj, aj1, aj2 = a[j % 3], a[(j + 1) % 3], a[(j + 2) % 3]
    inv = div(1, aj)
    entries = [inv, 1, 1, aj1, aj2, inv, inv, 1]
    diag = freeze(
        [[entries[i] if i == c else 0 for c in range(DIM)] for i in range(DIM)]
    )
    return mat_mul(diag, mat_mul(diag_d(), perm_P()))


def cocycle_condition_holds(T: SimilitudeTriple) -> bool:
    """z_iota * iota(z_iota) = identity, the 1-cocycle condition for K/F."""
    eye = identity(DIM)
    for s in T.t:
        tw = s.iota_twisted()
        if not mat_eq(mat_mul(s.matrix, tw.matrix), eye):
            return False
    return True


def coboundary_triple(lam: Sequence[QuadExtScalar]) -> SimilitudeTriple:
    """The triple l_j = P m_j(lambda) P used to compare special cocycles.

    The components must multiply to 1 (else the m-pattern is not a
    similitude); a triple with norm-one product can always be rescaled by
    a norm-one factor to achieve this, by Hilbert 90.
    """
    if len(lam) != 3 or any(not bool(x) for x in lam):
        raise ValueError("need three nonzero coefficients")
    if lam[0] * lam[1] * lam[2] != 1:
        raise ValueError("coefficients must have product 1")
    p = perm_P()
    return SimilitudeTriple(
        tuple(Similitude(mat_mul(p, mat_mul(m_matrix(j, lam), p))) for j in range(3))
    )


def freedom_identity_holds(
    a: Sequence[int | Fraction | QuadExtScalar],
    a_prime: Sequence[int | Fraction | QuadExtScalar],
    lam: Sequence[QuadExtScalar],
) -> bool:
    """iota(l) z_{K,a'} l^{-1} = z_{K,a} whenever a_j^{-1} a'_j = N(lambda_j)."""
    for j in range(3):
        if a_prime[j] != a[j] * lam[j].norm():
            raise ValueError("a' must differ from a by the norms of lambda")
    z = special_cocycle(a)
    zp = special_cocycle(a_prime)
    ell = coboundary_triple(lam)
    for j in range(3):
        lhs = mat_mul(
            ell.t[j].iota_twisted().matrix,
            mat_mul(zp.t[j].matrix, mat_inv(ell.t[j].matrix)),
        )
        if not mat_eq(lhs, z.t[j].matrix):
            return False
    return True


# --------------------------------------------------------------------------
# calibration search


def calibration_search() -> dict:
    """Search signed scaled bases of the Zorn model for one satisfying all
    of: Gram S8, involution table, relatedness of the z-triples.

    Slots are forced by the weight pattern of the m_j matrices (u1,u6,u7
    one isotropic line, u2,u3,u8 the paired line, u4,u5 the trace-carrying
    pair).  Scale products of +-2 on a pair give that pair the S8 Gram
    value 1; products of +-1 give 1/2.  The u4, u5 scales stay 1: the
    involution makes u4 + u5 = trace(u4) 1, so n(u4, u5) = 1 would need
    trace(u4)^2 = 2, which no rational trace meets.  The search counts
    the candidates that differ from S8 only at (4,5), and how many of
    them keep the involution table and relatedness (all do the first,
    none the second: relatedness pins (3,6)), and returns the calibrated
    optimum, which gives up only the (3,6) and (4,5) Gram entries.
    Relatedness is decided on the generic z-triple, for every product-one
    a at once."""
    import itertools

    # scale product +-2: S8 Gram value +-1 on the pair
    full_pairs = [(2, -1), (-2, 1), (1, -2), (-1, 2), (2, 1), (-2, -1)]
    # scale product +-1: Gram value +-1/2 on the pair
    half_pairs = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    # relabeling the three e-indices conjugates every candidate by a basis
    # permutation that fixes the constraint set, so scanning one labeling
    # loses nothing
    z = special_cocycle(generic_a())
    near_s8 = near_s8_involution = near_s8_related = 0
    calibrated = None
    for (c1, c8), (c2, c7), (c3, c6) in itertools.product(
        full_pairs, full_pairs, full_pairs + half_pairs
    ):
        prod, gram = _build_tables((c1, c8, c2, c7, c3, c6), _CAL_PERM)
        table = CayleyTable(prod, gram)
        involution_ok = _involution_table_holds(table)
        deviations = table.gram_deviations()
        if [(i, j) for i, j, _, _ in deviations] == [(4, 5)]:
            near_s8 += 1
            near_s8_involution += involution_ok
            near_s8_related += _relates(table, z)
            continue
        if calibrated is not None or not involution_ok:
            continue
        deviations_ok = all(
            {i, j} in ({3, 6}, {4, 5}) and got == Fraction(1, 2)
            for i, j, got, _ in deviations
        )
        if deviations_ok and _relates(table, z):
            calibrated = {
                "scales": (c1, c8, c2, c7, c3, c6),
                "perm": _CAL_PERM,
                "gram_deviations": table.gram_deviations(),
            }
    return {
        "s8_except_45": near_s8,
        "s8_except_45_with_involution": near_s8_involution,
        "s8_except_45_with_relatedness": near_s8_related,
        "calibrated": calibrated,
    }


def _conj_coords(c):
    return (-c[0], -c[1], -c[2], c[4], c[3], -c[5], -c[6], -c[7])
