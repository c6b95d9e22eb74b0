"""Quadratic forms over Q and R with full Witt-ring functionality.

A form is a diagonal <a1,...,an> with nonzero exact entries.  Over Q the
complete invariant fingerprint is (dimension, signed discriminant, Hasse
places, real signature); over R only the signature matters.  Over Q,
entries of opposite square classes cancel in pairs first (q = pH + <r>);
the invariants read the residue r.  So does the Witt decomposition, with
no isotropic vector: the anisotropic dimension is the least at which
Serre's existence conditions admit a form with q's invariants less those
of the hyperbolic part.  q is Witt-trivial when that dimension is 0, and
isotropic when it is less than dim q (Hasse-Minkowski); I^n and the
Arason invariant are read off the invariants.  The anisotropic part is
the residue when that is as short; otherwise it is built by the
induction of Serre's existence proof (entries peeled off one at a time,
then a binary form solved for by elimination over F2) and certified
against q's invariants.  Nothing here builds an isotropic vector:
explicit witnesses live in the tests (`tests/witness_chain.py`), as an
independent reference for these verdicts.  The one elimination here is
that over F2; a Gram matrix over Q is diagonalized by
`exactmat.diagonalize`.

Entries are exact rationals in the canonical form of `scalars`: an int
when integral, else a Fraction.  The layer is linear in the dimension: a
Hasse symbol is one pass over the entries per place, with at most one
Legendre symbol (Serre's explicit formulas summed over all pairs), and the
entries' square classes, their cancellation, `invariants` and the
anisotropic dimension are computed once per form and kept on it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import reduce
from math import gcd, prod

from .scalars import (
    Place,
    REAL,
    _Frozen,
    _hasse,
    _legendre,
    _val_unit,
    as_rat,
    field_parameter,
    hilbert_symbol,
    is_local_square,
    next_prime,
    parse_scalar,
    relevant_places,
    square_class,
)


class HypothesisViolation(ValueError):
    """A criterion's hypothesis failed; `reason` names which one."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DiagonalForm(_Frozen):
    """A nondegenerate diagonal quadratic form over Q or R: its `field`
    and its tuple of `entries`, each a canonical rational (an int when
    integral, else a Fraction; `scalars.as_rat`).  It is immutable; its
    __dict__ also keeps what is computed once per form (`_cancelled`,
    `_invariants`, `_anisotropic_dim`)."""

    def __init__(self, field: str, entries: tuple[int | Fraction, ...]):
        if field not in ("Q", "R"):
            raise ValueError(f"unknown base field {field!r}")
        entries = tuple(a if type(a) is int else as_rat(a) for a in entries)
        if not all(entries):
            raise ValueError("diagonal entries must be nonzero")
        fields = self.__dict__
        fields["field"] = field
        fields["entries"] = entries

    def _key(self) -> tuple:  # no slots: the __dict__ also holds the caches
        return (self.field, self.entries)

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __add__(self, other: "DiagonalForm") -> "DiagonalForm":
        return direct_sum(self, other)

    def __neg__(self) -> "DiagonalForm":
        return DiagonalForm(self.field, tuple(-a for a in self.entries))

    def __repr__(self) -> str:
        return f"form({self.field}, {form_literal(self)})"


def form(entries, field: str = "Q") -> DiagonalForm:
    return DiagonalForm(field, tuple(entries))


def direct_sum(q1: DiagonalForm, q2: DiagonalForm) -> DiagonalForm:
    if q1.field != q2.field:
        raise ValueError("mixed base fields")
    return DiagonalForm(q1.field, q1.entries + q2.entries)


def scale(c: int | Fraction, q: DiagonalForm) -> DiagonalForm:
    c = as_rat(c)
    if c == 0:
        raise ValueError("scaling by zero")
    return DiagonalForm(q.field, tuple(c * a for a in q.entries))


def hyperbolic(m: int, field: str = "Q") -> DiagonalForm:
    return DiagonalForm(field, (1, -1) * m)


def pfister(*slots: int | Fraction, field: str = "Q") -> DiagonalForm:
    """The n-fold Pfister form <<a1,...,an>> = <1,-a1> x ... x <1,-an>."""
    return DiagonalForm(field, tuple(_pfister_entries(slots)))


def _pfister_entries(slots) -> list:
    """The 2^n entries of <<a1,...,an>>: each slot a turns every entry e
    into the pair e, -a*e, so <<a,b>> = <1,-b,-a,ab>."""
    entries = [1]
    for a in slots:
        a = as_rat(a)
        entries = [x for e in entries for x in (e, -a * e)]
    return entries


# --------------------------------------------------------------------------
# invariants


class WittInvariants(_Frozen):
    """dim, disc (the signed squarefree discriminant class), hasse (the
    frozenset of places where the Hasse symbol is -1) and the signature."""

    __slots__ = ("dim", "disc", "hasse", "signature")

    def __init__(self, dim: int, disc: int, hasse: frozenset[Place], signature: int):
        if (signature - dim) % 2 or abs(signature) > dim:
            raise ValueError("signature incompatible with dimension")
        super().__init__(dim, disc, frozenset(hasse), signature)


def signature(q: DiagonalForm) -> int:
    return sum(1 if a > 0 else -1 for a in q.entries)


def invariants(q: DiagonalForm) -> WittInvariants:
    """The invariants of q, computed once and kept on the (frozen) form.

    Over R the discriminant is a sign (R*/R*^2 = {+1, -1}); over Q it is
    the signed squarefree class (-1)^(n(n-1)/2) det(q) (B7.eg convention).
    Over Q they are read off q = pH + r (`_cancelled`): the Hasse places
    of r, with pH added (`_add_hyperbolic`), so each place costs one
    `_hasse` pass over the residue and, for odd p, one Hilbert symbol.
    """
    if "_invariants" in q.__dict__:
        return q.__dict__["_invariants"]
    n = q.dim
    if q.field == "R":
        # only signs are semantically relevant; symbols live at the real place
        pairs, ds = 0, [1 if a > 0 else -1 for a in q.entries]
        places = [REAL]
    else:
        pairs, ds = _cancelled(q)
        places = relevant_places(*ds)
    det = reduce(_class_product, ds, 1)
    hasse = _add_hyperbolic(pairs, det, {v for v in places if _hasse(ds, v) == -1}, places)
    disc = (-1) ** (n * (n - 1) // 2 + pairs) * det
    inv = q.__dict__["_invariants"] = WittInvariants(n, disc, hasse, signature(q))
    return inv


def _classes(q: DiagonalForm) -> tuple[int, ...]:
    """The square classes of q's entries over Q."""
    return tuple(square_class(a) for a in q.entries)


def _cancelled(q: DiagonalForm) -> tuple[int, tuple[int, ...]]:
    """(p, r) with q = pH + <r> over Q, computed once and kept on the
    (frozen) form.  Entries of opposite square classes <d a^2, -d b^2> span
    a hyperbolic plane, so one pass over the classes cancels them in pairs;
    the residue r keeps the other classes, squarefree and in order, and no
    two of its entries are opposite."""
    if "_cancelled" not in q.__dict__:
        kept, open_slots = [], {}
        for d in _classes(q):
            slots = open_slots.get(-d)
            if slots:
                kept[slots.pop()] = 0
            else:
                open_slots.setdefault(d, []).append(len(kept))
                kept.append(d)
        residue = tuple(d for d in kept if d)
        q.__dict__["_cancelled"] = ((q.dim - len(residue)) // 2, residue)
    return q.__dict__["_cancelled"]


def _class_product(x: int, y: int) -> int:
    """x*y over the square of gcd(x, y): the same square class, and
    squarefree when x and y are."""
    g = gcd(x, y)
    return x * y // (g * g)


def _hyperbolic_hasse(m: int) -> set[Place]:
    """The places where mH has Hasse symbol -1: the pairs of its m entries
    -1 give (-1,-1)_v^(m(m-1)/2), which is -1 at the real place and at 2."""
    return {REAL, Place(2)} if m * (m - 1) // 2 % 2 else set()


def _add_hyperbolic(m: int, det: int, hasse, places):
    """The Hasse places of mH + A from A's det and Hasse places, all within
    `places`: s_v(mH + A) = s_v(mH) s_v(A) ((-1)^m, det A)_v.  For fixed m
    and det A the rule is its own inverse, so it also takes mH back off."""
    hasse = hasse ^ _hyperbolic_hasse(m)
    if m % 2:
        hasse ^= {v for v in places if hilbert_symbol(-1, det, v) == -1}
    return hasse


def _hasse_defects(inv: WittInvariants) -> frozenset[Place]:
    """The places where the Hasse symbol differs from that of the
    hyperbolic form of the same (even) dimension."""
    return inv.hasse ^ _hyperbolic_hasse(inv.dim // 2)


# --------------------------------------------------------------------------
# isotropy and Witt decomposition


def _anisotropic_dim(q: DiagonalForm) -> int:
    """The dimension of q's anisotropic part, computed once and kept on the
    (frozen) form: over R the |signature|; over Q the least k, of q's
    parity and at least |signature|, at which a form with the invariants of
    q_an for q = mH + q_an exists (`_target`, `_exists`; Serre, A Course in
    Arithmetic, IV.3.3 Prop. 7).  Such a form is anisotropic, or a shorter
    one would exist, and it is q_an by Hasse-Minkowski.  Past dimension 2
    the signature alone bounds k, and a definite residue (`_cancelled`) is
    anisotropic over R already, so then k = |signature| reads no place."""
    if "_anisotropic_dim" in q.__dict__:
        return q.__dict__["_anisotropic_dim"]
    k = abs(signature(q))
    if q.field == "Q" and k < 3 and k < len(_cancelled(q)[1]):
        inv, places = invariants(q), relevant_places(*_cancelled(q)[1])
        while k < 3 and not _exists(k, *_target(inv, (q.dim - k) // 2, places)):
            k += 2
    q.__dict__["_anisotropic_dim"] = k
    return k


def is_isotropic(q: DiagonalForm) -> bool:
    """Hasse-Minkowski: q is isotropic when its anisotropic part is shorter
    (Serre, A Course in Arithmetic, IV.3.2)."""
    return _anisotropic_dim(q) < q.dim


def witt_decompose(q: DiagonalForm) -> tuple[int, DiagonalForm]:
    """q = index*H + anisotropic, read off the invariants.

    The anisotropic part q_an has dimension k = `_anisotropic_dim(q)`;
    over R it is k copies of the signature's sign.  Over Q, q = mH + q_an
    where q_an has det (-1)^m det q, Hasse symbols s_v(q) s_v(mH)
    ((-1)^m, det q_an)_v and q's signature (`_target`).

    When k is the dimension of the cancelled residue (`_cancelled`), the
    residue is returned, or q itself when nothing cancelled, so an
    anisotropic q comes back as it is; k = 0 or 1 gives <> or <det>.
    Otherwise q_an is built by the induction of Serre's proof of Prop. 7:
    `_peel` takes off one entry at a time down to dimension 2 and `_binary`
    solves for the last two.  The result is certified (`_certify`): mH + q_an
    has q's invariants, or a RuntimeError is raised.  No isotropic vector is
    searched for, and nothing is factored past q's own square classes.
    """
    k = _anisotropic_dim(q)
    m = (q.dim - k) // 2
    if q.field == "R":
        return m, DiagonalForm("R", (1 if signature(q) > 0 else -1,) * k)
    pairs, residue = _cancelled(q)
    if k == len(residue):
        return pairs, DiagonalForm("Q", residue) if pairs else q
    inv, places = invariants(q), relevant_places(*residue)
    d, eps = _target(inv, m, places)
    if k <= 1:
        return m, DiagonalForm("Q", (d,) * k)
    entries, sig = [], inv.signature
    for dim in range(k, 2, -1):
        c, d, eps = _peel(residue, d, eps, sig, dim, places)
        entries.append(c)
        sig -= 1 if c > 0 else -1
    pair, aux = _binary(d, eps, places)
    entries += pair
    _certify(inv, m, entries, places + aux)
    return m, DiagonalForm("Q", tuple(entries))


def _target(inv: WittInvariants, m: int, places) -> tuple[int, frozenset[Place]]:
    """(det, Hasse places) of q_an for q = mH + q_an, q with invariants inv:
    det q = (-1)^(n(n-1)/2) disc q and det mH = (-1)^m, and mH comes off the
    Hasse places by the rule that adds it, all within `places`."""
    d = (-1) ** (inv.dim * (inv.dim - 1) // 2 + m) * inv.disc
    return d, _add_hyperbolic(m, d, inv.hasse, places)


def _exists(k: int, d: int, eps: set[Place]) -> bool:
    """Whether a form over Q of dimension k, squarefree det d and Hasse
    symbol -1 exactly at eps exists, given a signature that fits k (Serre,
    A Course in Arithmetic, IV.3.3 Prop. 7): d = 1 when k = 0, and at each
    place v of eps a form over Q_v with symbol -1 exists (IV.2.3 Prop. 6,
    at a prime; at the real place the same holds given the signature):
    from dimension 3 on always, in dimension 2 unless -d is a square at v,
    and in dimension 0 or 1 never."""
    return (k > 0 or d == 1) and all(
        k >= 3 or k == 2 and not is_local_square(-d, v) for v in eps
    )


def _peel(residue, d, eps, sig, k, places) -> tuple[int, int, set[Place]]:
    """One step of Serre's induction: an entry c with q_an = q' + <c> for a
    form q' of dimension k - 1 that exists, and q''s det and Hasse places
    (d c and eps twisted by (-d, c)_v, as s(q' + <c>) = s(q') (d c, c)_v).
    The candidates are the residue's own classes, then `_serre_entry`."""
    for c in itertools.chain(dict.fromkeys(residue), _serre_entry(d, eps, places)):
        if abs(sig - (1 if c > 0 else -1)) > k - 1:
            continue
        dc = _class_product(d, c)
        rest = eps ^ {v for v in places if hilbert_symbol(-d, c, v) == -1}
        if _exists(k - 1, dc, rest):
            return c, dc, rest
    raise RuntimeError("no entry peels off the anisotropic part")


def _serre_entry(d, eps, places):
    """Yields the entry c = -d t that peels a ternary q_an (det d, Hasse places eps)
    down to a binary that exists, t being the product of the places (-1 for
    the real one) where q_an is anisotropic, i.e. where eps differs from
    (-1, -d)_v: there c is not in the class of -d, and elsewhere either
    class serves."""
    bad = [v for v in places if (v in eps) != (hilbert_symbol(-1, -d, v) == -1)]
    yield _class_product(-d, prod(-1 if v.is_real else v.p for v in bad))


def _binary(d, eps, places) -> tuple[tuple[int, int], list[Place]]:
    """A binary <a, a d> with det d and Hasse symbol (a, -d)_v = -1 exactly
    at eps (Serre, III.2.2 Thm. 4), and the auxiliary places it used.

    Let S be the real place, 2, the primes of d and those of eps: a is the
    class whose symbols (a, -d)_v on S are -1 exactly at eps (`_f2_solve`),
    with auxiliary primes l outside S where (-d|l) = 1.  Outside S every
    symbol of a is 1: all is a unit, or -d is a square at l.
    """
    s = [v for v in places if v.p <= 2 or d % v.p == 0 or v in eps]
    a, aux = _f2_solve(
        s,
        lambda g: _bits(hilbert_symbol(g, -d, v) == -1 for v in s),
        _bits(v in eps for v in s),
        lambda ell: _legendre(-d, ell) == 1,
    )
    return (a, _class_product(a, d)), aux


def _f2_solve(places, mask_of, target, admit) -> tuple[int, list[Place]]:
    """A squarefree t with mask_of(t) = target, and the auxiliary places
    it used: Serre's class with prescribed local symbols (A Course in
    Arithmetic, III.2.2 Thm. 4), by elimination over F2.  mask_of(g), the
    bits of g's symbols at `places`, adds over F2 in g.  The generators
    are -1, the primes of `places`, then at most len(places) + 64 primes
    l outside them that `admit` accepts; t is the product of those whose
    masks sum to the target.
    """
    primes = {v.p for v in places}
    basis = {}  # leading bit -> (mask, product of the generators summed)

    def reduce(mask, t):
        while mask and mask.bit_length() - 1 in basis:
            b_mask, b = basis[mask.bit_length() - 1]
            mask, t = mask ^ b_mask, _class_product(t, b)
        return mask, t

    aux, ell = [], 2
    gens = itertools.chain([-1], (v.p for v in places if not v.is_real))
    while len(aux) <= len(places) + 64:
        g = next(gens, None)
        if g is None:  # an auxiliary prime
            ell = next_prime(ell)
            if ell in primes or not admit(ell):
                continue
            aux.append(Place(ell))
            g = ell
        mask, g = reduce(mask_of(g), g)
        if mask:
            basis[mask.bit_length() - 1] = (mask, g)
        rest, t = reduce(target, 1)
        if not rest:
            return t, aux
    raise RuntimeError("no class with the given local symbols")


def _bits(flags) -> int:
    """The bitmask with bit i set where the i-th flag is true."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def _certify(inv: WittInvariants, m: int, entries, places) -> None:
    """Raise RuntimeError unless mH + <entries> has the invariants inv: every
    entry is +-1 times primes of `places`, so no other place can carry a
    Hasse symbol -1, and the dimension, the disc, the Hasse symbol at each
    of the places and the signature agree (Hasse-Minkowski)."""
    primes = [v.p for v in places if not v.is_real]

    def known(a):
        for p in primes:
            a = _val_unit(a, p)[1]
        return a in (1, -1)

    full = (1, -1) * m + tuple(entries)
    n, det = len(full), reduce(_class_product, full, 1)
    got = (
        n,
        (-1) ** (n * (n - 1) // 2) * det,
        {v for v in places if _hasse(full, v) == -1},
        sum(1 if a > 0 else -1 for a in full),
    )
    want = (inv.dim, inv.disc, inv.hasse, inv.signature)
    if not all(map(known, entries)) or got != want:
        raise RuntimeError("the anisotropic part fails its certificate")


# --------------------------------------------------------------------------
# classification


def witt_trivial(q: DiagonalForm) -> bool:
    """Whether q is Witt-equivalent to a hyperbolic form (possibly 0H):
    whether its anisotropic part is 0 (`_anisotropic_dim`)."""
    return _anisotropic_dim(q) == 0


def witt_equivalent(q1: DiagonalForm, q2: DiagonalForm) -> bool:
    return witt_trivial(direct_sum(q1, -q2))


def isometric(q1: DiagonalForm, q2: DiagonalForm) -> bool:
    return q1.dim == q2.dim and witt_equivalent(q1, q2)


def in_power_I(q: DiagonalForm, n: int) -> bool:
    """Membership in I^n, for every n >= 1.

    I is even dimension; I^2 adds trivial signed discriminant; over Q, I^3
    adds finite Hasse symbols matching the equal-dimensional hyperbolic
    form; and from n = 3 on, I^n is the part of I^3 with signature = 0 mod
    2^n, since the signature embeds I^3 Q into I^3 R (Arason-Elman-Jacob).
    Over R (I^n: signature = 0 mod 2^n) the same ladder holds, since in
    even dimension disc = 1 exactly when the signature is 0 mod 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q.dim % 2:
        return False
    if n == 1:
        return True
    inv = invariants(q)
    if inv.disc != 1:
        return False
    if n == 2:
        return True
    if q.field == "Q" and _hasse_defects(inv) - {REAL}:
        return False
    return inv.signature % (1 << n) == 0


def arason_trivial(q: DiagonalForm) -> bool:
    """e3(q) = 0 for q in I^3, via the kernel-of-e3 theorem: e3 vanishes
    exactly on I^4."""
    if not in_power_I(q, 3):
        raise HypothesisViolation("not-in-I3", "Arason invariant needs q in I^3")
    return in_power_I(q, 4)


def low_rank_kernel_check(q: DiagonalForm, q_cand: DiagonalForm) -> bool:
    """The d + d_an < 16 kernel criterion for Spin(q).

    With dim q = dim q_cand >= 5, q_cand - q in I^3 and
    dim q + dim(anisotropic part of q) < 16: a trivial Arason invariant of
    q_cand - q forces q_cand isometric to q (the difference lands in I^4
    and is killed by the Arason-Pfister Hauptsatz below dimension 16).
    Returns the isometry verdict; hypothesis failures raise with a named
    reason.
    """
    if q.field != q_cand.field:
        raise HypothesisViolation("mixed-fields", "forms over different fields")
    if q.dim != q_cand.dim:
        raise HypothesisViolation("dim-mismatch", "forms must share a dimension")
    if q.dim < 5:
        raise HypothesisViolation("dim-small", "criterion needs dim >= 5")
    diff = direct_sum(q_cand, -q)
    if not in_power_I(diff, 3):
        raise HypothesisViolation("not-in-I3", "q_cand - q must lie in I^3")
    d_an = _anisotropic_dim(q)
    if q.dim + d_an >= 16:
        raise HypothesisViolation(
            "rank-bound", f"d + d_an = {q.dim + d_an} is not < 16"
        )
    if not arason_trivial(diff):
        return False
    if not isometric(q_cand, q):
        raise RuntimeError("Hauptsatz violated: trivial e3 but q_cand != q")
    return True


# --------------------------------------------------------------------------
# hermitian trace forms


class HermitianDiagonal(_Frozen):
    """Diagonal hermitian form <l1,...,ln> over F(sqrt k), entries in F."""

    __slots__ = ("field", "k", "entries")

    def __init__(self, field: str, k: int | Fraction, entries: tuple[int | Fraction, ...]):
        k = as_rat(k)
        entries = tuple(as_rat(a) for a in entries)
        if any(a == 0 for a in entries):
            raise ValueError("hermitian entries must be nonzero")
        if field == "R" and k >= 0:
            raise ValueError("k must be negative over R")
        super().__init__(field, field_parameter(k), entries)


def hermitian_hyperbolic(m: int, k: int | Fraction, field: str = "Q") -> HermitianDiagonal:
    """m unitary hyperbolic planes; diagonalized as <1,-1> repeated."""
    return HermitianDiagonal(field, k, (1, -1) * m)


def trace_form(h: HermitianDiagonal) -> DiagonalForm:
    """Trace form of <l1,...,ln> over F(sqrt k): the 2n-dimensional form
    perp_i l_i<1, -k> over F."""
    entries = []
    for lam in h.entries:
        entries += [lam, -lam * h.k]
    return DiagonalForm(h.field, tuple(entries))


# --------------------------------------------------------------------------
# literals


_TOKEN = re.compile(r"\s*(<<|>>|<|>|\+?[^\s<>+*,]+|\+|\*|,)")
MAX_LITERAL_DIM = 1 << 16  # the most entries a literal may spell, `nH` and `<<...>>` included


def parse_form(text: str, field: str = "Q") -> DiagonalForm:
    """Parse the form grammar: `<a,b,...>`, `<<a,...>>` (Pfister), `nH`,
    `c*<...>`, joined by `+`; a `+` glued to a scalar where one is due is
    its sign (`<+5>`, `+2*<1>`; `<1>+2*<3>` is a sum).  A literal of more
    than `MAX_LITERAL_DIM` entries is refused before they are built.  Every
    failure is one ValueError that says "parse error"."""
    try:
        return _parse_form(text, field)
    except ValueError as exc:
        raise ValueError(f"parse error: {exc}") from exc


def _parse_form(text: str, field: str) -> DiagonalForm:
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


def form_literal(q: DiagonalForm) -> str:
    if not q.dim:
        return "<>"
    return "<" + ",".join(str(a) for a in q.entries) + ">"


def invariants_json(q: DiagonalForm) -> dict:
    inv = invariants(q)
    return {
        "dim": inv.dim,
        "disc": inv.disc,
        "hasse": {repr(v): -1 for v in sorted(inv.hasse, key=lambda v: v.p)},
        "signature": inv.signature,
    }
