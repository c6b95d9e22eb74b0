"""Root systems from Cartan matrices, coroot lattices, the canonical
Weyl-invariant form, Dynkin-diagram foldings, and Rost multipliers.

Coroots live in the coroot lattice itself: simple coroots are the
standard basis of Z^rank and the canonical form is the only metric.
Bourbaki numbering throughout; root lengths are normalized so long roots
have (a,a) = 2, which makes the canonical form take the value 1 on short
coroots (Gram = Cartan/2 in the simply-laced case).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

from .exactmat import Matrix, dot, freeze, mat_vec, pullback, rank as mat_rank, ratio
from .scalars import div


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


class RootDatum:
    """Simple root data: Cartan matrix A[i][j] = 2(a_i,a_j)/(a_i,a_i),
    root norms (a_i,a_i), simple coroots = standard basis of Z^rank."""

    __slots__ = ("label", "series", "rank", "cartan", "root_norms")

    def __init__(self, label: str, series: str, rank: int, cartan: Matrix, root_norms: tuple):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "root_norms", root_norms)

    def __setattr__(self, *args):
        raise AttributeError("RootDatum is immutable")

    def _key(self) -> tuple:
        return (self.label, self.series, self.rank, self.cartan, self.root_norms)

    def __eq__(self, other) -> bool:  # a datum keys the `canonical_form` cache
        return self._key() == other._key() if type(other) is RootDatum else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return RootDatum, self._key()

    def simple_reflection(self, i: int) -> Matrix:
        """Action of s_i on coroot coordinates: e_j -> e_j - A[j][i] e_i."""
        n = self.rank
        out = [[int(r == c) for c in range(n)] for r in range(n)]
        for j in range(n):
            out[i][j] -= self.cartan[j][i]
        return freeze(out)

    def all_coroots(self) -> list[tuple[int, ...]]:
        """Closure of the simple coroots under the Weyl generators."""
        gens = [self.simple_reflection(i) for i in range(self.rank)]
        seen = {
            tuple(int(r == i) for r in range(self.rank))
            for i in range(self.rank)
        }
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
def build_root_datum(type_str: str, rank: int | None = None) -> RootDatum:
    """Construct standard data for Xn, e.g. build_root_datum("E6"); built
    once per argument pair and shared, as the datum is immutable."""
    if rank is None:
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", type_str.strip())
        if not m:
            raise ValueError(f"bad root-system type {type_str!r}")
        series, rank = m.group(1).upper(), int(m.group(2))
    else:
        series = type_str.strip().upper()
    if series not in _SERIES_RANKS or rank not in _SERIES_RANKS[series]:
        raise ValueError(f"unsupported type {series}{rank}")
    norms = _root_norms(series, rank)
    pair = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        pair[i][i] = norms[i]
    for i, j in _edges(series, rank):
        # adjacent simple roots meet at 120/135/150 degrees; in every case
        # the inner product is -max of the two root norms over 2
        pair[i][j] = pair[j][i] = div(-max(norms[i], norms[j]), 2)
    cartan = freeze(
        [[div(2 * pair[i][j], norms[i]) for j in range(rank)] for i in range(rank)]
    )
    if any(x != int(x) for row in cartan for x in row):
        raise RuntimeError("non-integral Cartan matrix")
    cartan = freeze([[int(x) for x in row] for row in cartan])
    return RootDatum(f"{series}{rank}", series, rank, cartan, tuple(norms))


class CanonicalForm:
    """The minimal Weyl-invariant positive-definite integer-valued form on
    the coroot lattice, normalized to 1 on short coroots."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, *args):
        raise AttributeError("CanonicalForm is immutable")

    def __eq__(self, other) -> bool:
        return self.gram == other.gram if type(other) is CanonicalForm else NotImplemented

    def __reduce__(self):
        return CanonicalForm, (self.gram,)

    def value(self, v) -> int | Fraction:
        return self.bilinear(v, v)

    def bilinear(self, v, w) -> int | Fraction:
        return dot(v, mat_vec(self.gram, w))


@lru_cache(maxsize=None)
def canonical_form(rd: RootDatum) -> CanonicalForm:
    """Gram G[i][j] = A[i][j]/(a_j,a_j); equals Cartan/2 when simply laced.
    Weyl invariance is checked against all simple reflections, once per
    datum: the form is cached on the frozen datum."""
    n = rd.rank
    gram = freeze(
        [
            [div(rd.cartan[i][j], rd.root_norms[j]) for j in range(n)]
            for i in range(n)
        ]
    )
    cf = CanonicalForm(gram)
    for i in range(n):
        s = rd.simple_reflection(i)
        if pullback(s, gram) != gram:
            raise RuntimeError(f"canonical form not invariant under s_{i}")
    return cf


def coroot_values(rd: RootDatum) -> dict[tuple, int | Fraction]:
    cf = canonical_form(rd)
    return {v: cf.value(v) for v in rd.all_coroots()}


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
    for i in range(n):
        for j in range(n):
            if rd.cartan[perm[i]][perm[j]] != rd.cartan[i][j]:
                raise ValueError("permutation is not a diagram automorphism")


class LatticeEmbedding:
    """An integer matrix from the source coroot lattice into the target's;
    columns are the images of the source's simple coroots."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if any(x != int(x) for row in matrix for x in row):
            raise ValueError("embedding matrix has a non-integral entry")
        m = freeze([[int(x) for x in row] for row in matrix])
        if mat_rank(m) != len(m[0]):
            raise ValueError("embedding matrix is not injective")
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, *args):
        raise AttributeError("LatticeEmbedding is immutable")

    def __eq__(self, other) -> bool:
        return self.matrix == other.matrix if type(other) is LatticeEmbedding else NotImplemented

    def __reduce__(self):
        return LatticeEmbedding, (self.matrix,)

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0])

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    def image(self, v) -> tuple:
        return mat_vec(self.matrix, v)


class FoldResult:
    """The folded datum, the orbits of the automorphism (one per folded
    simple root, in Bourbaki order) and the embedding of coroot lattices."""

    __slots__ = ("folded", "orbits", "embedding")

    def __init__(self, folded: RootDatum, orbits: tuple, embedding: LatticeEmbedding):
        object.__setattr__(self, "folded", folded)
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "embedding", embedding)

    def __setattr__(self, *args):
        raise AttributeError("FoldResult is immutable")

    def _key(self) -> tuple:
        return (self.folded, self.orbits, self.embedding)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is FoldResult else NotImplemented

    def __reduce__(self):
        return FoldResult, self._key()

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
            if rd.cartan[i][j] != 0:
                raise FoldingError(
                    "nonreduced-BC",
                    f"orbit {tuple(k + 1 for k in orbit)} contains adjacent "
                    "vertices; this folding yields the non-reduced system "
                    f"BC_{len(orbits)} and is rejected",
                )
    if len(orbits) == n:
        raise FoldingError("trivial", "automorphism has no nontrivial orbit")
    cf = canonical_form(rd)
    sums = [tuple(int(i in orbit) for i in range(n)) for orbit in orbits]
    # The orbit sums are the simple coroots of the folded type X, so their
    # pairing matrix 2(s_i,s_j)/(s_i,s_i) is Cartan(X) transposed; read
    # the other way round it is Cartan(X) itself, in orbit order.
    m = len(orbits)
    sq = [cf.value(s) for s in sums]
    cartan = [[div(2 * cf.bilinear(sums[i], sums[j]), sq[j]) for j in range(m)] for i in range(m)]
    if any(x != int(x) for row in cartan for x in row):
        raise RuntimeError("folded pairing is not a Cartan matrix")
    # B2 and C2 are the same system; folding A-series is conventionally
    # written C_{l+1}, folding D-series B_{n-1}
    folded, order = _read_type(
        [[int(x) for x in row] for row in cartan], "C" if rd.series == "A" else "B"
    )
    ordered = [orbits[i] for i in order]
    emb = LatticeEmbedding(
        freeze(
            [[int(i in orb) for orb in ordered] for i in range(n)]
        )
    )
    return FoldResult(folded, tuple(ordered), emb)


def _read_type(cartan, prefer: str) -> tuple[RootDatum, list[int]]:
    """The folded type, read off its Dynkin diagram, and the order that
    maps its Bourbaki numbering to rows of `cartan`.

    Every folded type is B, C, F or G: a chain with one multiple bond.  A
    triple bond is G2; a double bond inside the chain is F4; a double bond
    at an end is B when the end root is short and C when it is long, and
    for rank 2, where both ends qualify, `prefer` names it.  The Bourbaki
    order is the walk along the chain from one end or the other: none of
    these diagrams has an automorphism, so one direction matches."""
    m = len(cartan)
    links = [[j for j in range(m) if j != i and cartan[i][j]] for i in range(m)]
    order = [next((i for i in range(m) if len(links[i]) == 1), 0)]
    while len(order) < m:
        step = [j for j in links[order[-1]] if j not in order]
        if len(step) != 1:
            raise RuntimeError("folded diagram is not a chain")
        order.append(step[0])
    bonds = [cartan[a][b] * cartan[b][a] for a, b in zip(order, order[1:])]
    p = max(range(m - 1), key=bonds.__getitem__)
    end, inner = (order[-1], order[-2]) if p == m - 2 else (order[0], order[1])
    if bonds[p] == 3:
        series = "G"
    elif 0 < p < m - 2:
        series = "F"
    elif m == 2:
        series = prefer
    else:
        series = "B" if cartan[end][inner] < -1 else "C"
    folded = build_root_datum(f"{series}{m}")
    for walk in (order, order[::-1]):
        if all(cartan[walk[i]][walk[j]] == folded.cartan[i][j] for i in range(m) for j in range(m)):
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
    gs = canonical_form(source).gram
    n = ratio(pullback(emb.matrix, canonical_form(target).gram), gs)
    if n is None:
        raise ValueError("pullback form is not coroot-compatible")
    if n <= 0 or n != int(n):
        raise ValueError("pullback multiplier is not a positive integer")
    return int(n)


def sl_block_diagonal_embedding(n: int) -> LatticeEmbedding:
    """SL_n -> SL_2n by x -> diag(x, x) on coroot lattices (A_{n-1} into
    A_{2n-1}): the i-th simple coroot maps to e_i + e_{i+n}."""
    rows = [[0] * (n - 1) for _ in range(2 * n - 1)]
    for i in range(n - 1):
        rows[i][i] = 1
        rows[i + n][i] = 1
    return LatticeEmbedding(freeze(rows))


def sl_corner_embedding(n: int) -> LatticeEmbedding:
    """SL_n -> SL_2n by x -> diag(x, 1): e_i -> e_i."""
    rows = [[0] * (n - 1) for _ in range(2 * n - 1)]
    for i in range(n - 1):
        rows[i][i] = 1
    return LatticeEmbedding(freeze(rows))
