"""Root systems from Cartan matrices, coroot lattices, the canonical
Weyl-invariant form, Dynkin-diagram foldings, and Rost multipliers.

Coroots live in the coroot lattice itself: simple coroots are the
standard basis of Z^rank and the canonical form is the only metric,
kept as its Gram matrix and evaluated by `exactmat.pairing`.
Bourbaki numbering throughout; root lengths are normalized so long roots
have (a,a) = 2, which makes the canonical form take the value 1 on short
coroots (Gram = Cartan/2 in the simply-laced case).  A folded type is
the catalogued type whose Cartan matrix the folded pairing equals.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

from .exactmat import (
    Matrix,
    column,
    dense,
    entry,
    entrywise,
    freeze,
    from_nonzeros,
    identity,
    mat_vec,
    nonzeros,
    pairing,
    pullback,
    ratio,
    transpose,
)
from .exactmat import rank as mat_rank
from .scalars import _Frozen, div


class FoldingError(ValueError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


_SERIES_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(3, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def _edges(series: str, n: int) -> list[tuple[int, int]]:
    path = [(i, i + 1) for i in range(n - 1)]
    if series in ("A", "B", "C", "F", "G"):
        return path
    if series == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if series == "E":
        # Bourbaki: 1-3-4-5-6(-7(-8)), 2 attached to 4
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            chain.append((5, 6))
        if n == 8:
            chain.append((6, 7))
        return chain
    raise ValueError(series)


def _root_norms(series: str, n: int) -> list[int | Fraction]:
    if series in ("A", "D", "E"):
        return [2] * n
    if series == "B":  # last root short
        return [2] * (n - 1) + [1]
    if series == "C":  # last root long
        return [1] * (n - 1) + [2]
    if series == "F":  # 1,2 long; 3,4 short
        return [2, 2, 1, 1]
    if series == "G":  # Bourbaki: alpha1 short
        return [div(2, 3), 2]
    raise ValueError(series)


class RootDatum(_Frozen):
    """Simple root data: Cartan matrix A[i][j] = 2(a_i,a_j)/(a_i,a_i),
    root norms (a_i,a_i), simple coroots = standard basis of Z^rank."""

    __slots__ = ("label", "series", "rank", "cartan", "root_norms")

    def __hash__(self):  # a datum keys the `canonical_form` cache
        return hash(self._key())

    def simple_reflection(self, i: int) -> Matrix:
        """Action of s_i on coroot coordinates: e_j -> e_j - A[j][i] e_i."""
        n = self.rank
        row_i = [(i, j, int(i == j) - a_ji) for j, a_ji in enumerate(column(self.cartan, i))]
        return from_nonzeros(n, n, [(r, r, 1) for r in range(n)] + row_i)

    def all_coroots(self) -> list[tuple[int, ...]]:
        """Closure of the simple coroots under the Weyl generators."""
        gens = [self.simple_reflection(i) for i in range(self.rank)]
        seen = set(dense(identity(self.rank)))
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = mat_vec(g, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen)


@lru_cache(maxsize=None)
def build_root_datum(type_str: str) -> RootDatum:
    """Construct standard data for Xn, e.g. build_root_datum("E6"); built
    once per type string and shared, as the datum is immutable."""
    m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", type_str.strip())
    if not m:
        raise ValueError(f"bad root-system type {type_str!r}")
    series, rank = m.group(1).upper(), int(m.group(2))
    if series not in _SERIES_RANKS or rank not in _SERIES_RANKS[series]:
        raise ValueError(f"unsupported type {series}{rank}")
    norms = _root_norms(series, rank)
    entries = [(i, i, x) for i, x in enumerate(norms)]
    for i, j in _edges(series, rank):
        # adjacent simple roots meet at 120/135/150 degrees; in every case
        # the inner product is -max of the two root norms over 2
        x = div(-max(norms[i], norms[j]), 2)
        entries += [(i, j, x), (j, i, x)]
    cartan = [(i, j, div(2 * x, norms[i])) for i, j, x in entries]
    if any(x != int(x) for _, _, x in cartan):
        raise RuntimeError("non-integral Cartan matrix")
    cartan = from_nonzeros(rank, rank, [(i, j, int(x)) for i, j, x in cartan])
    return RootDatum(f"{series}{rank}", series, rank, cartan, tuple(norms))


@lru_cache(maxsize=None)
def canonical_form(rd: RootDatum) -> Matrix:
    """The Gram of the minimal Weyl-invariant positive-definite
    integer-valued form on the coroot lattice, normalized to 1 on short
    coroots: G[i][j] = A[i][j]/(a_j,a_j), which is Cartan/2 when simply
    laced.
    Weyl invariance is checked once per datum (the form is cached on the
    frozen datum) by its criterion: s_i preserves a symmetric G exactly
    when G[j][i] = A[j][i] G[i][i]/2 for every j.

    Proof.  Write s v = v - f(v) e_i with f(e_j) = A[j][i].  Then
    G(s v, s w) - G(v, w) = f(v) f(w) G(e_i, e_i) - f(w) G(v, e_i)
    - f(v) G(e_i, w), which the criterion makes 0; conversely s e_i = -e_i,
    so G(s v, s e_i) = G(v, e_i) says 2 G(v, e_i) = f(v) G(e_i, e_i).

    The same step shows that an antisymmetric form preserved by s_i
    vanishes on e_i, so s_i preserves any G exactly when row i of G also
    equals its column i; both are checked for each i."""
    a = dense(rd.cartan)
    gram = [[div(x, norm) for x, norm in zip(row, rd.root_norms)] for row in a]
    for i, column in enumerate(zip(*gram)):
        criterion = all(2 * g == row[i] * gram[i][i] for g, row in zip(column, a))
        if gram[i] != list(column) or not criterion:
            raise RuntimeError(f"canonical form not invariant under s_{i}")
    return freeze(gram)


def coroot_values(rd: RootDatum) -> dict[tuple, int | Fraction]:
    gram = canonical_form(rd)
    return {v: pairing(gram, v, v) for v in rd.all_coroots()}


# --------------------------------------------------------------------------
# diagram automorphisms and folding


def diagram_automorphism(rd: RootDatum, name: str = "") -> tuple[int, ...]:
    """A Dynkin-diagram automorphism as a permutation of simple-root
    indices.  Defaults: the reversal for A_n, the swap for D_n, the unique
    nontrivial one for E6; name="triality" gives the 3-cycle on D4.  Any
    other name is a ValueError."""
    n = rd.rank
    if name not in ("", "triality"):
        raise ValueError(f"unknown diagram automorphism {name!r} (known: triality)")
    if name == "triality":
        if rd.label != "D4":
            raise ValueError("triality needs D4")
        perm = (2, 1, 3, 0)  # Bourbaki nodes 1 -> 3 -> 4 -> 1, node 2 fixed
    elif rd.series == "A":
        perm = tuple(n - 1 - i for i in range(n))
    elif rd.series == "D":
        perm = tuple(range(n - 2)) + (n - 1, n - 2)
    elif rd.label == "E6":
        perm = (5, 1, 4, 3, 2, 0)  # 1<->6, 3<->5
    else:
        raise ValueError(f"no standard diagram automorphism for {rd.label}")
    _check_automorphism(rd, perm)
    return perm


def _check_automorphism(rd: RootDatum, perm) -> None:
    n = rd.rank
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the simple roots")
    a = dense(rd.cartan)
    if any(a[perm[i]][perm[j]] != a[i][j] for i in range(n) for j in range(n)):
        raise ValueError("permutation is not a diagram automorphism")


class LatticeEmbedding(_Frozen):
    """An integer matrix from the source coroot lattice into the target's;
    columns are the images of the source's simple coroots."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if any(x != int(x) for _, _, x in nonzeros(matrix)):
            raise ValueError("embedding matrix has a non-integral entry")
        m = entrywise(int, matrix)
        if mat_rank(m) != m.shape[1]:
            raise ValueError("embedding matrix is not injective")
        super().__init__(m)

    @property
    def source_rank(self) -> int:
        return self.matrix.shape[1]

    @property
    def target_rank(self) -> int:
        return self.matrix.shape[0]


class FoldResult(_Frozen):
    """The folded datum, the orbits of the automorphism (one per folded
    simple root, in Bourbaki order) and the embedding of coroot lattices."""

    __slots__ = ("folded", "orbits", "embedding")

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def fold(rd: RootDatum, perm: tuple[int, ...] | None = None, name: str = "") -> FoldResult:
    """Fold along a diagram automorphism: the fixed coroot sublattice has
    basis the orbit sums, which form the simple coroots of the folded
    system.  Orbits containing adjacent vertices (the A_{2l} case) are
    rejected: that folding produces the non-reduced system BC_l."""
    if perm is None:
        perm = diagram_automorphism(rd, name)
    else:
        _check_automorphism(rd, perm)
    n = rd.rank
    orbits = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        orbit = [i]
        j = perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    for orbit in orbits:
        for i, j in itertools.combinations(orbit, 2):
            if entry(rd.cartan, i, j) != 0:
                raise FoldingError(
                    "nonreduced-BC",
                    f"orbit {tuple(k + 1 for k in orbit)} contains adjacent "
                    "vertices; this folding yields the non-reduced system "
                    f"BC_{len(orbits)} and is rejected",
                )
    if len(orbits) == n:
        raise FoldingError("trivial", "automorphism has no nontrivial orbit")
    gram = canonical_form(rd)
    sums = [tuple(int(i in orbit) for i in range(n)) for orbit in orbits]
    # The orbit sums are the simple coroots of the folded type X, so their
    # pairing matrix 2(s_i,s_j)/(s_i,s_i) is Cartan(X) transposed; read
    # the other way round it is Cartan(X) itself, in orbit order.
    sq = [pairing(gram, t, t) for t in sums]
    cartan = [[div(2 * pairing(gram, s, t), q) for t, q in zip(sums, sq)] for s in sums]
    if any(x != int(x) for row in cartan for x in row):
        raise RuntimeError("folded pairing is not a Cartan matrix")
    # B2 and C2 are the same system; folding A-series is conventionally
    # written C_{l+1}, folding D-series B_{n-1}
    folded, order = _read_type(
        [[int(x) for x in row] for row in cartan], "C" if rd.series == "A" else "B"
    )
    emb = LatticeEmbedding(transpose(freeze([sums[i] for i in order])))
    return FoldResult(folded, tuple(orbits[i] for i in order), emb)


def _read_type(cartan, prefer: str) -> tuple[RootDatum, list[int]]:
    """The folded type, matched against the catalogue, and the order that
    maps its Bourbaki numbering to rows of `cartan`.

    Every folded diagram is a chain, and its Bourbaki order is the walk
    along it from one end or the other.  The type is the first of the
    series `prefer`, B, C, F and G, in that order, whose catalogued Cartan
    matrix at the chain's rank (`build_root_datum`) equals `cartan` read
    along one of the two walks.  A Cartan matrix names one type, but for
    B2 = C2, which `prefer` names."""
    m = len(cartan)
    links = [[j for j in range(m) if j != i and cartan[i][j]] for i in range(m)]
    order = [next((i for i in range(m) if len(links[i]) == 1), 0)]
    while len(order) < m:
        step = [j for j in links[order[-1]] if j not in order]
        if len(step) != 1:
            raise RuntimeError("folded diagram is not a chain")
        order.append(step[0])
    for series in dict.fromkeys((prefer, "B", "C", "F", "G")):
        if m not in _SERIES_RANKS[series]:
            continue
        folded = build_root_datum(f"{series}{m}")
        target = dense(folded.cartan)
        for walk in (order, order[::-1]):
            if all(cartan[walk[i]][walk[j]] == target[i][j] for i in range(m) for j in range(m)):
                return folded, walk
    raise RuntimeError("folded system matches no catalogued type")


# --------------------------------------------------------------------------
# Rost multipliers


def rost_multiplier(
    emb: LatticeEmbedding, source: RootDatum, target: RootDatum
) -> int:
    """The positive integer n with q_target(emb(x)) = n * q_source(x); per
    the short-coroot normalization it equals the value of q_target on the
    image of a short coroot of the source.  Raises if the pullback is not
    proportional to q_source."""
    if emb.source_rank != source.rank or emb.target_rank != target.rank:
        raise ValueError("embedding shape does not match the root data")
    gs = canonical_form(source)
    n = ratio(pullback(emb.matrix, canonical_form(target)), gs)
    if n is None:
        raise ValueError("pullback form is not coroot-compatible")
    if n <= 0 or n != int(n):
        raise ValueError("pullback multiplier is not a positive integer")
    return int(n)


def sl_block_diagonal_embedding(n: int) -> LatticeEmbedding:
    """SL_n -> SL_2n by x -> diag(x, x) on coroot lattices (A_{n-1} into
    A_{2n-1}): the i-th simple coroot maps to e_i + e_{i+n}."""
    images = [(i, i, 1) for i in range(n - 1)] + [(i + n, i, 1) for i in range(n - 1)]
    return LatticeEmbedding(from_nonzeros(2 * n - 1, n - 1, images))


def sl_corner_embedding(n: int) -> LatticeEmbedding:
    """SL_n -> SL_2n by x -> diag(x, 1): e_i -> e_i."""
    return LatticeEmbedding(from_nonzeros(2 * n - 1, n - 1, [(i, i, 1) for i in range(n - 1)]))
