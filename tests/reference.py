"""Constructions and references that only the tests use: the tensor product,
forms over K = Q(sqrt k), the octonion unit, Albert maps built from their
action on the basis, and the calibration search behind P17's open question."""

import itertools
from collections.abc import Callable, Sequence
from fractions import Fraction

from quadalg.albert import ADIM, A_COORD_INDICES, AlbertElement, AlbertMap
from quadalg.cayley import GRAM_DEVIATIONS, CayleyTable, _build_tables, _involution_table_holds, _relates
from quadalg.cayley import generic_a, special_cocycle, u
from quadalg.exactmat import identity, transpose
from quadalg.forms import DiagonalForm, _hasse_defects, direct_sum, invariants
from quadalg.scalars import QuadExtScalar, as_rat, is_local_square, is_square, square_class


def tensor(q1: DiagonalForm, q2: DiagonalForm) -> DiagonalForm:
    if q1.field != q2.field:
        raise ValueError("mixed base fields")
    return DiagonalForm(
        q1.field, tuple(a * b for a in q1.entries for b in q2.entries)
    )


def in_k_witt_ideal(q: DiagonalForm, k: int | Fraction) -> bool:
    """Whether the Witt class of q lies in <1,-k> W(Q), i.e. q becomes
    hyperbolic over K = Q(sqrt k) (the kernel of restriction is exactly that
    ideal).

    By Hasse-Minkowski over K that asks for even dimension, a discriminant
    that is a square in K (1 or k over Q), signature 0 at the real places of
    K (there are none for k < 0) and hyperbolic Hasse symbols at every place
    w of K.  Where k is a local square at v, K_w = Q_v; elsewhere K_w/Q_v is
    quadratic (or K_w = C) and restriction kills Br_2 of Q_v, so a Hasse
    defect of q only counts at a place where k is a local square.
    """
    k = as_rat(k)
    if q.field != "Q":
        raise ValueError("K-ideal test is for forms over Q")
    if is_square(k):
        raise ValueError("k must not be a square")
    if q.dim % 2:
        return False
    inv = invariants(q)
    return (
        inv.disc in (1, square_class(k))
        and (k < 0 or inv.signature == 0)
        and not any(is_local_square(k, v) for v in _hasse_defects(inv))
    )


def isometric_over_K(q1: DiagonalForm, q2: DiagonalForm, k: int | Fraction) -> bool:
    """Isometry of q1 x K and q2 x K for forms defined over Q."""
    return q1.dim == q2.dim and in_k_witt_ideal(direct_sum(q1, -q2), k)


ONE = u(4) + u(5)


def basis_element(m: int) -> AlbertElement:
    return AlbertElement.from_coords(identity(ADIM)[m])


ALBERT_BASIS = tuple(basis_element(m) for m in range(ADIM))


def linear_map_from_action(action: Callable[[AlbertElement], AlbertElement]) -> AlbertMap:
    return AlbertMap(transpose([action(b).coords() for b in ALBERT_BASIS]))


def a_embed(v: Sequence[int | Fraction | QuadExtScalar]) -> AlbertElement:
    """A-coordinates (u1..u4, e1, e2, u5..u8) -> Albert element."""
    if len(v) != 10:
        raise ValueError("A has dimension 10")
    coords = [0] * ADIM
    for val, pos in zip(v, A_COORD_INDICES):
        coords[pos] = val
    return AlbertElement.from_coords(coords)


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
        prod, gram = _build_tables((c1, c8, c2, c7, c3, c6))
        table = CayleyTable(prod, gram)
        involution_ok = _involution_table_holds(table)
        deviations = table.gram_deviations()
        if list(deviations) == [(4, 5)]:
            near_s8 += 1
            near_s8_involution += involution_ok
            near_s8_related += _relates(table, z)
            continue
        if calibrated is not None or not involution_ok:
            continue
        deviations_ok = all(GRAM_DEVIATIONS.get(pair) == got for pair, got in deviations.items())
        if deviations_ok and _relates(table, z):
            calibrated = {"scales": (c1, c8, c2, c7, c3, c6), "gram_deviations": deviations}
    return {
        "s8_except_45": near_s8,
        "s8_except_45_with_involution": near_s8_involution,
        "s8_except_45_with_relatedness": near_s8_related,
        "calibrated": calibrated,
    }
