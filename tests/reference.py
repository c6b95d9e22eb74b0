"""Constructions and references that only the tests use: the tensor product,
forms over K = Q(sqrt k), the Hasse symbol over all pairs, Serre's local
isotropy test case by case, the octonion unit, Albert maps built from their
action on the basis, the calibration search behind P17's open question,
the dense-tuple kernels that `exactmat` had before a matrix stored only
its nonzeros, the Gram diagonalization that `forms` had before
`exactmat.diagonalize`, the criteria for Witt triviality and for I^n
over R that `forms` had before it read them off the anisotropic dimension
and the invariants' ladder, the entries a form-literal tree spells, the
token-list reader of form literals that `forms` had before it read one
summand per step, and the one set of Hypothesis settings the property
tests share."""

import itertools
import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import prod

from hypothesis import settings

from quadalg.albert import ADIM, A_COORD_INDICES, AlbertElement, AlbertMap
from quadalg.cayley import GRAM_DEVIATIONS, CayleyTable, _build_tables, _relates
from quadalg.cayley import generic_a, special_cocycle, u
from quadalg import exactmat, verify
from quadalg.forms import MAX_LITERAL_DIM, DiagonalForm, _hasse_defects, _pfister_entries, direct_sum, invariants
from quadalg.forms import signature
from quadalg.scalars import QuadExtScalar, as_rat, div, exact_sum, hilbert_symbol, is_local_square, is_square
from quadalg.scalars import parse_scalar, rat, square_class

# derandomized and without a database, so every run draws the same cases
FIXED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


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


def reference_witt_trivial(q: DiagonalForm) -> bool:
    """Whether q is Witt-trivial, from its invariants: never in odd
    dimension; over R when the signature is 0; over Q when the disc is 1,
    the signature 0 and the Hasse symbols those of the hyperbolic form of
    the same dimension."""
    if q.dim % 2:
        return False
    if q.field == "R":
        return signature(q) == 0
    inv = invariants(q)
    return inv.disc == 1 and inv.signature == 0 and not _hasse_defects(inv)


def reference_in_power_I_over_R(q: DiagonalForm, n: int) -> bool:
    """Membership of a form over R in I^n: even dimension and signature
    = 0 mod 2^n."""
    return q.dim % 2 == 0 and signature(q) % (1 << n) == 0


def literal_entries(tree) -> list | None:
    """The entries a form-literal tree spells, or None where the literal
    must be refused (a zero entry or a zero scale).  A tree is a sum
    ("+", terms) of terms: ("<>", scalars), ("<<>>", slots), ("H", n,
    word) or ("*", c, term), each scalar the text it is written as.  The
    Pfister form <<a1,...,an>> is the product of the <1,-ai>, its last
    slot varying fastest, so 2*<<2>> spells <2,-4>."""
    kind, *args = tree
    if kind == "+":
        parts = [literal_entries(term) for term in args[0]]
        return None if None in parts else [x for part in parts for x in part]
    if kind == "H":
        return [1, -1] * args[0]
    if kind == "*":
        c, inner = Fraction(args[0]), literal_entries(args[1])
        return None if c == 0 or inner is None else [c * x for x in inner]
    values = [Fraction(s) for s in args[0]]
    if 0 in values:
        return None
    if kind == "<>":
        return values
    return [prod(p) for p in itertools.product(*((1, -a) for a in values))]


_TOKEN = re.compile(r"\s*(<<|>>|<|>|\+?[^\s<>+*,]+|\+|\*|,)")


def reference_parse_form(text: str, field: str = "Q") -> DiagonalForm:
    """The form-literal reader `forms` had before it read one summand per
    step: a token list and a recursive descent over it, a `+` token glued
    to a scalar split off where a sum goes on.  Every failure is a
    ValueError."""
    tokens = _TOKEN.findall(text)
    if not tokens or "".join(tokens) != "".join(text.split()):
        raise ValueError(f"cannot tokenize form literal {text!r}")
    pos = dim = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of form literal {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(
                f"expected {expected!r} at token {pos} of {text!r}, got {tok!r}"
            )
        pos += 1
        return tok

    def scalar_list(closer):
        vals = [parse_scalar(take())]
        while peek() == ",":
            take(",")
            vals.append(parse_scalar(take()))
        take(closer)
        if 0 in vals:  # the first bad term is the one reported
            raise ValueError("diagonal entries must be nonzero")
        return vals

    def sized(n):  # n more entries, counted before they are built
        nonlocal dim
        dim += n
        if dim > MAX_LITERAL_DIM:
            raise ValueError(f"form literal has more than {MAX_LITERAL_DIM} entries")

    def term():
        """The entries of one term, in the order the form lists them."""
        tok = peek()
        if tok == "<<":
            take("<<")
            slots = scalar_list(">>")
            sized(1 << len(slots))
            return _pfister_entries(slots)
        if tok == "<":
            take("<")
            if peek() == ">":  # the zero form, as `form_literal` writes it
                take(">")
                return []
            vals = scalar_list(">")
            sized(len(vals))
            return vals
        # `nH` or `c*<...>` / `c*<<...>>`
        word = take()
        if word.endswith("H") or word.endswith("h"):
            n = int(word[:-1]) if word[:-1] else 1
            if n < 0:
                raise ValueError("negative hyperbolic multiplicity")
            sized(2 * n)
            return [1, -1] * n
        c = parse_scalar(word)
        take("*")
        entries = term()
        if c == 0:
            raise ValueError("scaling by zero")
        return [c * a for a in entries]

    entries = term()
    while (peek() or "").startswith("+"):  # a sum; a `+2` splits into `+`, `2`
        tokens[pos] = tokens[pos][1:]
        if not tokens[pos]:
            pos += 1
        entries += term()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in form literal {text!r}")
    return DiagonalForm(field, tuple(entries))


def pairwise_hasse(entries, v):
    """prod_{i<j} (a_i, a_j)_v over all n(n-1)/2 pairs."""
    eps = 1
    for a, b in itertools.combinations(entries, 2):
        eps *= hilbert_symbol(a, b, v)
    return eps


def reference_isotropic_at(entries, v):
    """Serre's Thm. 6 (Cours d'arithmetique IV.2.2) case by case: a binary
    form is isotropic iff -d is a square, a ternary one iff its Hasse
    symbol is (-1, -d)_v, a quaternary one iff d is not a square or its
    symbol is (-1, -1)_v, and every form of dimension >= 5 is."""
    n = len(entries)
    if n <= 1:
        return False
    if v.is_real:
        return any(a > 0 for a in entries) and any(a < 0 for a in entries)
    if n >= 5:
        return True
    d = prod(entries)
    if n == 2:
        return is_local_square(-d, v)
    if n == 3:
        return hilbert_symbol(-1, -d, v) == pairwise_hasse(entries, v)
    return not is_local_square(d, v) or pairwise_hasse(entries, v) == hilbert_symbol(-1, -1, v)


ONE = u(4) + u(5)


def basis_element(m: int) -> AlbertElement:
    return AlbertElement(exactmat.dense(exactmat.identity(ADIM))[m])


ALBERT_BASIS = tuple(basis_element(m) for m in range(ADIM))


def linear_map_from_action(action: Callable[[AlbertElement], AlbertElement]) -> AlbertMap:
    columns = exactmat.freeze([action(b).coords for b in ALBERT_BASIS])
    return AlbertMap(exactmat.transpose(columns))


def a_embed(v: Sequence[int | Fraction | QuadExtScalar]) -> AlbertElement:
    """A-coordinates (u1..u4, e1, e2, u5..u8) -> Albert element."""
    if len(v) != 10:
        raise ValueError("A has dimension 10")
    coords = [0] * ADIM
    for val, pos in zip(v, A_COORD_INDICES):
        coords[pos] = val
    return AlbertElement(coords)


def calibration_search() -> dict:
    """Search signed scaled bases of the Zorn model for one satisfying all
    of: Gram S8, involution table, relatedness of the z-triples.  A
    candidate keeps the involution table when P18's judge
    (`verify.table_verdict`) passes it: u4 + u5 is its two-sided unit and
    conj x = T(x) 1 - x.

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
        scales = (c1, c2, c3, 1, 1, c6, c7, c8)
        table = CayleyTable(*_build_tables(scales))
        involution_ok = verify.table_verdict(table)[0] == "pass"
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
            calibrated = {"scales": scales, "gram_deviations": deviations}
    return {
        "s8_except_45": near_s8,
        "s8_except_45_with_involution": near_s8_involution,
        "s8_except_45_with_relatedness": near_s8_related,
        "calibrated": calibrated,
    }


# --------------------------------------------------------------------------
# the dense-tuple kernels: a matrix as a tuple of row tuples, the int 0 in
# every empty place


Matrix = tuple[tuple, ...]
Vector = tuple


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def from_nonzeros(n: int, m: int, entries) -> Matrix:
    """The n x m matrix with x at each (r, c, x) of `entries` and the int 0
    everywhere else; a later entry at a place replaces an earlier one."""
    rows = [[0] * m for _ in range(n)]
    for r, c, x in entries:
        rows[r][c] = x
    return freeze(rows)


def diagonal(entries: Sequence) -> Matrix:
    n = len(entries)
    return from_nonzeros(n, n, [(i, i, x) for i, x in enumerate(entries)])


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    """The n x n identity, built once per n: the tuples are immutable."""
    return diagonal([1] * n)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _nonzeros(v: Sequence) -> list:
    return [(j, x) for j, x in enumerate(v) if x]


def _dot(row: Sequence, nonzeros: list):
    """The sum of row[j] * x over the (j, x) in `nonzeros` with row[j]
    nonzero, in canonical form; 0 when there is no such term."""
    out = None
    for j, x in nonzeros:
        y = row[j]
        if y:
            out = y * x if out is None else out + y * x
    return 0 if out is None else rat(out)


def pairing(g: Matrix, v: Sequence, w: Sequence):
    """v^T g w: the products g[r][c] (v[r] w[c]) of nonzero factors, summed
    once by `exact_sum`, so the int 0 when there are none."""
    ws = _nonzeros(w)
    terms = []
    for r, x in _nonzeros(v):
        row = g[r]
        terms += [row[c] * (x * y) for c, y in ws if row[c]]
    return exact_sum(terms)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b by rows: each nonzero a[i][j], j ascending, adds b[j][c] * a[i][j]
    for the nonzero b[j][c] to row i, so each entry is the sum `_dot` gives."""
    b_rows = [_nonzeros(row) for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = {}
        for j, x in enumerate(row):
            if x:
                for c, y in b_rows[j]:
                    v = acc.get(c)
                    acc[c] = y * x if v is None else v + y * x
        dense = [0] * width
        for c, v in acc.items():
            dense[c] = rat(v)
        out.append(tuple(dense))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    nz = _nonzeros(v)
    return tuple(_dot(row, nz) for row in a)


def scal_mul(c, a: Matrix) -> Matrix:
    return freeze([[rat(c * x) for x in row] for row in a])


def pullback(a: Matrix, g: Matrix) -> Matrix:
    """a^T g a: the Gram matrix g pulled back along a."""
    return mat_mul(transpose(a), mat_mul(g, a))


def ratio(a: Matrix, b: Matrix):
    """The scalar c with a = c b, or None when there is none or b is 0."""
    c = None
    for r, s in zip(a, b):
        for x, y in zip(r, s):
            if not y:
                if x:
                    return None
            elif c is None:
                c = div(x, y)
            elif x != c * y:
                return None
    return c


def _reduce(rows: Sequence[Sequence], ncols: int) -> tuple[list[int], object, list[dict]]:
    """Gauss-Jordan elimination of `rows` over the first `ncols` columns:
    each pivot row is scaled to 1 and its column cleared in every other
    row.  Returns the pivot columns, the determinant of the leading square
    block (0 as soon as a column has no pivot) and the reduced rows.

    Each row is held as a dict {column: value} of its nonzero entries, so
    a pivot is found by membership and only nonzeros are scaled and
    cleared: on a monomial matrix a column costs one multiplication for
    the determinant and one per other nonzero of the pivot row."""
    nz = [dict(_nonzeros(row)) for row in rows]
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(nz):
            break
        piv = next((i for i in range(r, len(nz)) if col in nz[i]), None)
        if piv is None:
            d = d * 0
            continue
        if piv != r:
            nz[r], nz[piv] = nz[piv], nz[r]
            d = -d
        row = nz[r]
        p = row.pop(col)
        d = rat(d * p)
        inv = div(1, p)
        for c, x in row.items():
            row[c] = rat(x * inv)
        for other in nz:
            f = other.pop(col, None)
            if f is None:
                continue
            for c, y in row.items():
                v = rat(other.get(c, 0) - f * y)
                if v:
                    other[c] = v
                else:
                    other.pop(c, None)
        row[col] = 1
        pivots.append(col)
    return pivots, d, nz


def det(a: Matrix):
    return _reduce(a, len(a))[1]


def mat_inv(a: Matrix) -> Matrix:
    """The inverse, read off the right half of [a | 1] reduced and written
    back dense, with the int 0 for every zero."""
    n = len(a)
    pivots, _, rows = _reduce([[*row, *e] for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row.get(c, 0) for c in range(n, 2 * n)) for row in rows)


def rank(a: Matrix) -> int:
    return len(_reduce(a, len(a[0]) if a else 0)[0])


def independent(vecs: Sequence[Vector]) -> list[Vector]:
    """The vectors not in the span of the ones before them: the pivot
    columns of the matrix whose columns are `vecs`."""
    pivots, _, _ = _reduce(list(zip(*vecs)), len(vecs))
    return [vecs[c] for c in pivots]


# --------------------------------------------------------------------------
# the Gram diagonalization that `forms` had before `exactmat.diagonalize`,
# on rows held as dicts of their nonzero entries


def _diagonalize_gram(gram):
    """Diagonal entries of a congruent diagonal matrix, squarefree-reduced,
    for a symmetric Gram matrix given by its rows.

    Symmetric Gaussian elimination; a zero diagonal block is repaired by
    the characteristic-zero row+column addition trick, and a zero block
    (a degenerate Gram) is a ValueError.  Each row is held as a dict of
    its nonzero entries in the block not yet eliminated, so a pivot
    updates only the entries of the rows that meet it: pivot t leaves
    g[i][l] - g[i][t] g[t][l] / g[t][t] at each pair of its neighbours.
    """
    n = len(gram)
    g = [{j: x for j, x in enumerate(row) if x} for row in gram]
    out = []
    for t in range(n):
        piv = next((i for i in range(t, n) if i in g[i]), None)
        if piv is None:
            i = next((i for i in range(t, n) if g[i]), None)
            if i is None:
                raise ValueError("degenerate Gram matrix")
            _add_row_and_column(g, i, min(g[i]))
            piv = i
        if piv != t:
            _swap_row_and_column(g, t, piv)
        row = g[t]
        d = row.pop(t)
        out.append(square_class(d))
        for i, x in row.items():
            f = div(x, d)
            other = g[i]
            del other[t]
            for m, y in row.items():
                v = other.get(m, 0) - f * y
                if v:
                    other[m] = v
                else:
                    other.pop(m, None)
    return out


def _add_row_and_column(g: list[dict], i: int, j: int) -> None:
    """Row i += row j and column i += column j of the symmetric g, held as
    dicts of nonzero entries: g[i][m] and g[m][i] gain g[j][m] for m != i,
    and g[i][i] gains 2 g[i][j] + g[j][j]."""
    row_i = g[i]
    diag = row_i.get(i, 0) + 2 * row_i.get(j, 0) + g[j].get(j, 0)
    for m, x in list(g[j].items()):
        if m != i:
            v = row_i.get(m, 0) + x
            for a, b in ((i, m), (m, i)):
                if v:
                    g[a][b] = v
                else:
                    g[a].pop(b, None)
    if diag:
        row_i[i] = diag
    else:
        row_i.pop(i, None)


def _swap_row_and_column(g: list[dict], t: int, p: int) -> None:
    """Exchange rows t and p and columns t and p of the symmetric g: only
    the rows that hold column t or p, t's and p's neighbours, change."""
    g[t], g[p] = g[p], g[t]
    for m in {t, p, *g[t], *g[p]}:
        row = g[m]
        a, b = row.pop(t, None), row.pop(p, None)
        if a is not None:
            row[p] = a
        if b is not None:
            row[t] = b
