"""Quadratic forms over Q and R with full Witt-ring functionality.

A form is a diagonal <a1,...,an> with nonzero exact entries.  Over Q the
complete invariant fingerprint is (dimension, signed discriminant, Hasse
symbols, real signature); over R only the signature matters.  Isotropy is
decided place by place (Hasse-Minkowski), and the yes/no Witt questions
(Witt triviality, I^n, the kernel of restriction to Q(sqrt k)) are read off
the invariants.  Over Q, entries of opposite square classes cancel in
pairs first (q = pH + <r>); the invariants, the isotropy test and the Witt
decomposition read the residue r.  Witt decomposition splits the remaining
hyperbolic planes off using explicit isotropy witnesses, built by the
common-value split of Serre's proof of Hasse-Minkowski.

Entries are exact rationals in the canonical form of `scalars`: an int
when integral, else a Fraction.  The layer is linear in the dimension: a
Hasse symbol is one pass over the entries per place, with at most one
Legendre symbol (Serre's explicit formulas summed over all pairs), the
complement of a hyperbolic plane is eliminated as "diagonal plus rank one"
without building its basis, and the entries' square classes, their
cancellation and `invariants` are computed once per form and kept on it.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, isqrt
from types import MappingProxyType

from .scalars import (
    is_local_square,
    Place,
    REAL,
    _legendre,
    _val_unit,
    as_rat,
    div,
    hilbert_symbol,
    is_square,
    next_prime,
    parse_scalar,
    relevant_places,
    sqrt_mod,
    square_class,
)


class HypothesisViolation(ValueError):
    """A criterion's hypothesis failed; `reason` names which one."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DiagonalForm:
    """A nondegenerate diagonal quadratic form over Q or R: its `field`
    and its tuple of `entries`, each a canonical rational (an int when
    integral, else a Fraction; `scalars.as_rat`).  It is immutable; its
    __dict__ also keeps what is computed once per form (`_classes`,
    `_cancelled`, `_invariants`)."""

    def __init__(self, field: str, entries: tuple[int | Fraction, ...]):
        if field not in ("Q", "R"):
            raise ValueError(f"unknown base field {field!r}")
        entries = tuple(a if type(a) is int else as_rat(a) for a in entries)
        if not all(entries):
            raise ValueError("diagonal entries must be nonzero")
        fields = self.__dict__
        fields["field"] = field
        fields["entries"] = entries

    def __setattr__(self, *args):
        raise AttributeError("DiagonalForm is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not DiagonalForm:
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def value(self, v) -> int | Fraction:
        return sum(a * x * x for a, x in zip(self.entries, v))

    def bilinear(self, v, w) -> int | Fraction:
        return sum(a * x * y for a, x, y in zip(self.entries, v, w))

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


def tensor(q1: DiagonalForm, q2: DiagonalForm) -> DiagonalForm:
    if q1.field != q2.field:
        raise ValueError("mixed base fields")
    return DiagonalForm(
        q1.field, tuple(a * b for a in q1.entries for b in q2.entries)
    )


def hyperbolic(m: int, field: str = "Q") -> DiagonalForm:
    return DiagonalForm(field, (1, -1) * m)


def pfister(*slots: int | Fraction, field: str = "Q") -> DiagonalForm:
    """The n-fold Pfister form <<a1,...,an>> = <1,-a1> x ... x <1,-an>."""
    return DiagonalForm(field, tuple(_pfister_entries(slots)))


def _pfister_entries(slots) -> list:
    """The 2^n entries of <<a1,...,an>> in the order of `tensor`: each
    slot a turns every entry e into e, -a*e."""
    entries = [1]
    for a in slots:
        a = as_rat(a)
        entries = [x for e in entries for x in (e, -a * e)]
    return entries


# --------------------------------------------------------------------------
# invariants


class WittInvariants:
    """dim, disc (the signed squarefree discriminant class), hasse (the
    places with symbol -1 only, read-only) and the signature."""

    __slots__ = ("dim", "disc", "hasse", "signature")

    def __init__(self, dim: int, disc: int, hasse: Mapping[Place, int], signature: int):
        if (signature - dim) % 2 or abs(signature) > dim:
            raise ValueError("signature incompatible with dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "hasse", MappingProxyType(dict(hasse)))
        object.__setattr__(self, "signature", signature)

    def __setattr__(self, *args):
        raise AttributeError("WittInvariants is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not WittInvariants:
            return NotImplemented
        return (self.dim, self.disc, self.hasse, self.signature) == (
            other.dim, other.disc, other.hasse, other.signature
        )

    def __reduce__(self):  # a mappingproxy does not pickle or copy
        return WittInvariants, (self.dim, self.disc, dict(self.hasse), self.signature)


def signature(q: DiagonalForm) -> int:
    return sum(1 if a > 0 else -1 for a in q.entries)


def invariants(q: DiagonalForm) -> WittInvariants:
    """The invariants of q, computed once and kept on the (frozen) form.

    Over R the discriminant is a sign (R*/R*^2 = {+1, -1}); over Q it is
    the signed squarefree class (-1)^(n(n-1)/2) det(q) (B7.eg convention).
    Over Q they are read off q = pH + r (`_cancelled`): the Hasse symbols
    are s_v(q) = s_v(pH) s_v(r) ((-1)^p, det r)_v, with s_v(pH) in closed
    form (`_hyperbolic_hasse`), so each place costs one `_hasse` pass over
    the residue and, for odd p, one Hilbert symbol.
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
    det = 1
    for d in ds:
        det = _class_product(det, d)
    split = _hyperbolic_hasse(pairs)
    hasse = {}
    for v in places:
        eps = -_hasse(ds, v) if v in split else _hasse(ds, v)
        if pairs % 2:
            eps *= hilbert_symbol(-1, det, v)
        if eps == -1:
            hasse[v] = -1
    disc = (-1) ** (n * (n - 1) // 2 + pairs) * det
    inv = q.__dict__["_invariants"] = WittInvariants(n, disc, hasse, signature(q))
    return inv


def _classes(q: DiagonalForm) -> tuple[int, ...]:
    """The square classes of q's entries over Q, computed once and kept on
    the (frozen) form."""
    if "_classes" not in q.__dict__:
        q.__dict__["_classes"] = tuple(square_class(a) for a in q.entries)
    return q.__dict__["_classes"]


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


def _hasse(ds, v: Place) -> int:
    """The Hasse symbol prod_{i<j} (d_i, d_j)_v of <d_1,...,d_n> for
    nonzero integers d_i, squarefree or not, in one pass over the entries:
    Serre's explicit formulas (Cours d'arithmetique III.1.2 Thm. 1) summed
    over all pairs.  Write d_i = p^e_i u_i and let k count the odd e_i.  At
    an odd p the symbol is (-1)^(C(k,2)(p-1)/2) (U_out|p)^k (U_in|p)^(k-1),
    with U_in and U_out the products mod p of the u_i with odd and with even
    e_i, so at most one Legendre symbol.  At 2 the exponents e(u) = (u-1)/2
    and w(u) = (u^2-1)/8 sum the same way, to C(n_e,2) + k n_w + n_w_in
    mod 2, for n_e entries with e(u_i) odd, n_w with w(u_i) odd and n_w_in
    of those with odd e_i.  At the real place it is (-1)^C(neg,2)."""
    if v.is_real:
        neg = sum(1 for d in ds if d < 0)
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    p, k = v.p, 0
    if p == 2:
        n_e = n_w = n_w_in = 0
        for d in ds:
            e, u = _val_unit(d, 2)
            n_e += u % 4 == 3
            if u % 8 in (3, 5):
                n_w += 1
                n_w_in += e % 2
            k += e % 2
        return -1 if (n_e * (n_e - 1) // 2 + k * n_w + n_w_in) % 2 else 1
    u_in = u_out = 1
    for d in ds:
        e, u = _val_unit(d, p)
        if e % 2:
            k += 1
            u_in = u_in * u % p
        else:
            u_out = u_out * u % p
    sign = -1 if k * (k - 1) // 2 * (p // 2) % 2 else 1
    if k % 2:
        return sign * _legendre(u_out, p)
    return sign * _legendre(u_in, p) if k else sign


def _hyperbolic_hasse(m: int) -> set[Place]:
    """The places where mH has Hasse symbol -1: the pairs of its m entries
    -1 give (-1,-1)_v^(m(m-1)/2), which is -1 at the real place and at 2."""
    return {REAL, Place(2)} if m * (m - 1) // 2 % 2 else set()


def _hasse_defects(inv: WittInvariants) -> set[Place]:
    """The places where the Hasse symbol differs from that of the
    hyperbolic form of the same (even) dimension."""
    return set(inv.hasse) ^ _hyperbolic_hasse(inv.dim // 2)


# --------------------------------------------------------------------------
# isotropy and Witt decomposition


def _isotropic_at(entries, v: Place) -> bool:
    """Whether the diagonal form with these nonzero entries (integers when
    v is finite) is isotropic over Q_v (Serre, Cours d'arithmetique IV.2.2
    Thm. 6)."""
    n = len(entries)
    if n <= 1:
        return False
    if v.is_real:
        return any(a > 0 for a in entries) and any(a < 0 for a in entries)
    if n >= 5:
        return True
    d = 1
    for a in entries:
        d = _class_product(d, a)
    if n == 2:
        return is_local_square(-d, v)
    if n == 3:
        return hilbert_symbol(-1, -d, v) == _hasse(entries, v)
    return not is_local_square(d, v) or _hasse(entries, v) == hilbert_symbol(-1, -1, v)


def is_isotropic(q: DiagonalForm) -> bool:
    """Hasse-Minkowski: over R a sign test, over Q isotropy at every place
    (Serre, Cours d'arithmetique IV.3.2).  Over Q a form with two opposite
    square classes is isotropic at once (`_cancelled`); otherwise the test
    runs on the squarefree residue.  The places outside `relevant_places`
    need no test: every entry is a unit there, so a form of dimension >= 3
    is isotropic, and a binary form passes the relevant places only when
    -d is a rational square."""
    if q.field == "R":
        return _isotropic_at(q.entries, REAL)
    pairs, ds = _cancelled(q)
    return pairs > 0 or all(_isotropic_at(ds, v) for v in relevant_places(-1, *ds))


def _fraction_sqrt(a: int | Fraction) -> int | Fraction:
    """The rational square root of a rational square a >= 0, canonical."""
    num, den = a.numerator, a.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{a} is not a square")
    return div(rn, rd)


def isotropic_vector(q: DiagonalForm) -> tuple[int | Fraction, ...]:
    """An exact nonzero vector with q(v) = 0.

    The existence certificate comes first (local-global test); the witness
    is then built by `_isotropic_vector_squarefree` from verified ternary
    witnesses, split through common values as in Serre's proof.
    """
    if not is_isotropic(q):
        raise ValueError("form is anisotropic")
    return _witness(q)


def _witness(q: DiagonalForm) -> tuple[int | Fraction, ...]:
    """An exact nonzero vector with q(v) = 0, for q known to be isotropic."""
    if q.field == "R":
        i = next(i for i, a in enumerate(q.entries) if a > 0)
        j = next(j for j, a in enumerate(q.entries) if a < 0)
        v = [0] * q.dim
        v[i] = 1
        v[j] = _fraction_sqrt(div(q.entries[i], -q.entries[j]))
        return tuple(v)
    # a_i = d_i c_i^2 with d_i squarefree: a zero w of <d_i> gives w_i / c_i
    ds = _classes(q)
    w = _isotropic_vector_squarefree(ds)
    return tuple(div(x, _fraction_sqrt(div(a, d))) for x, a, d in zip(w, q.entries, ds))


def _isotropic_vector_squarefree(ds):
    """A nonzero integer zero of sum d_i x_i^2 for squarefree d_i; the
    form is assumed isotropic (certified by the caller).

    Strategy: a hyperbolic pair, then a verified ternary witness, then the
    split q = <d0,d1> + rest through a common value t of both parts
    (`_common_value`): a ternary witness of <d0,d1,-t> and, by recursion,
    a witness of the smaller rest + <t> combine into one of q.
    """
    n = len(ds)
    # opposite squarefree entries span a hyperbolic pair
    for i in range(n):
        for j in range(i + 1, n):
            if ds[i] == -ds[j]:
                v = [0] * n
                v[i] = v[j] = 1
                return v
    if n == 2:
        raise ValueError("binary squarefree isotropic means opposite entries")
    if n == 3:
        w = _ternary_witness(*ds)
        if w is None:
            raise RuntimeError("certified ternary form defeated the solvers")
        return list(w)
    # an isotropic ternary subform finishes the job; it has no opposite
    # entries, so it is isotropic iff it is so at each of its places
    for idx in itertools.combinations(range(n), 3):
        sub = [ds[i] for i in idx]
        if all(_isotropic_at(sub, v) for v in relevant_places(-1, *sub)):
            w = _ternary_witness(*sub)
            if w is not None:
                v = [0] * n
                for i, s in zip(idx, w):
                    v[i] = s
                return v
    head, rest = list(ds[:2]), list(ds[2:])
    t = _common_value(head, rest)
    w1 = _ternary_witness(*head, -t)
    if w1 is None:
        raise RuntimeError("common value is not represented by the head")
    # rest entries and t are squarefree, so the recursion applies
    w2 = _isotropic_vector_squarefree(rest + [t])
    x1, x2, z1 = w1
    z2 = w2[-1]
    if z1 == 0:
        v = [x1, x2] + [0] * (n - 2)
    elif z2 == 0:
        v = [0, 0] + list(w2[:-1])
    else:
        v = [x1 * z2, x2 * z2] + [y * z1 for y in w2[:-1]]
    if sum(d * x * x for d, x in zip(ds, v)) != 0:
        raise RuntimeError("split witness is not isotropic")
    return v


def _common_value(head, rest) -> int:
    """A squarefree integer t represented by both the binary head and rest,
    so that head + <-t> and rest + <t> are isotropic, for an isotropic
    q = head + rest (Serre, Cours d'arithmetique IV.3.2, proof of Thm. 8).

    t = head[0] serves whenever rest + <head[0]> is isotropic.  Otherwise
    each place v in S = relevant_places(q) gets the local classes c for
    which both forms are isotropic over Q_v; the first of them fixes the
    sign (at the real place) or the valuation parity (at a prime) of s.
    Then t = s*r, for r = 1 or a prime outside S, serves at every v in S
    once it lies in one of those classes, and at every prime outside S but
    r, where all entries and t are units.  The product formula, applied to
    the ternary head + <-t> (and to rest + <t> when rest is binary), covers
    r.  Dirichlet's theorem on primes in progressions ends the search.
    """
    if is_isotropic(form(rest + head[:1])):
        return head[0]
    places = relevant_places(*head, *rest)
    s, works = 1, []
    for v in places:
        classes = [
            c
            for c in _class_reps(v)
            if _isotropic_at(head + [-c], v) and _isotropic_at(rest + [c], v)
        ]
        if not classes:
            raise RuntimeError(f"form is anisotropic at {v}")
        if v.is_real:
            s *= classes[0]
        elif classes[0] % v.p == 0:
            s *= v.p
        works.append((v, {_class_key(c, v) for c in classes}))
    skip = {v.p for v in places}
    r = 1
    while not all(_class_key(s * r, v) in keys for v, keys in works):
        r = next_prime(r)
        while r in skip:
            r = next_prime(r)
    return s * r


def _class_reps(v: Place) -> tuple[int, ...]:
    """Squarefree representatives of Q_v*/Q_v*^2, the class of 1 first."""
    if v.is_real:
        return (1, -1)
    if v.p == 2:
        return (1, -1, 5, -5, 2, -2, 10, -10)
    u = next(u for u in range(2, v.p) if _legendre(u, v.p) == -1)
    return (1, u, v.p, u * v.p)


def _class_key(t: int, v: Place):
    """The class of the nonzero integer t in Q_v*/Q_v*^2."""
    if v.is_real:
        return t > 0
    e, u = _val_unit(t, v.p)
    return e % 2, u % 8 if v.p == 2 else _legendre(u, v.p)


def _ternary_witness(a, b, c):
    """A verified nonzero integer zero of ax^2 + by^2 + cz^2 (or None if
    the form is anisotropic).

    The coefficients are brought to Legendre normal form (squarefree and
    pairwise coprime) first, where `_legendre_equation_zero` applies.
    """
    if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
        return None
    coeffs = [a, b, c]
    mults = [1] * 3  # witness w maps back as w_i * mults_i
    changed = True
    while changed:
        changed = False
        for i in range(3):
            d = square_class(coeffs[i])
            if d != coeffs[i]:
                k = _fraction_sqrt(div(coeffs[i], d))
                coeffs[i] = d
                mults[i] = div(mults[i], k)
                changed = True
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                g = gcd(int(coeffs[i]), int(coeffs[j]))
                if g > 1:
                    k = 3 - i - j
                    coeffs[i] //= g
                    coeffs[j] //= g
                    coeffs[k] *= g
                    mults[k] *= g
                    changed = True
    w = _legendre_equation_zero(*coeffs)
    if w is None:
        return None
    back = [m * s for m, s in zip(mults, w)]
    den = 1
    for f in back:
        den = den * f.denominator // gcd(den, f.denominator)
    out = tuple(f.numerator * (den // f.denominator) for f in back)
    if a * out[0] ** 2 + b * out[1] ** 2 + c * out[2] ** 2 != 0:
        raise RuntimeError("ternary witness is not isotropic")
    return out


def _legendre_equation_zero(a, b, c):
    """A nonzero integer zero of a normalized (squarefree, pairwise
    coprime, mixed-sign) ternary ax^2 + by^2 + cz^2, or None.

    Up to sign and order, a, b > 0 > c.  Lagrange's descent solves
    w^2 = -ac x^2 - bc y^2, which gives the zero (cx, cy, w); Mordell's
    reduction then brings it within 2/sqrt(3) of Holzer's bound
    |x| <= sqrt(|bc|), |y| <= sqrt(|ac|), |z| <= sqrt(ab) (Cremona & Rusin,
    Math. Comp. 72 (2003), section 2).
    """
    coeffs = (a, b, c)
    sign = 1 if sum(x > 0 for x in coeffs) == 2 else -1
    odd = next(i for i in range(3) if sign * coeffs[i] < 0)
    order = [i for i in range(3) if i != odd] + [odd]
    a, b, c = (sign * coeffs[i] for i in order)
    w = _lagrange_descent(-a * c, -b * c)
    if w is None:
        return None
    x, y, z = _holzer_reduce(a, b, c * w[1], c * w[2], w[0])
    out = [0, 0, 0]
    out[order[0]], out[order[1]], out[order[2]] = x, y, z
    return tuple(out)


def _lagrange_descent(a, b):
    """A nonzero integer zero (x, y, z) of x^2 = a y^2 + b z^2 for
    squarefree a, b, or None if there is none.

    With |a| <= |b| and t^2 = a mod b, |t| <= |b|/2, the identity
    (x^2 - a y^2)(t^2 - a) = (xt + ay)^2 - a(x + ty)^2 trades b for the
    squarefree part of (t^2 - a)/b, which is smaller in absolute value.
    """
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if a < 0 and b < 0:
        return None
    if abs(a) > abs(b):
        w = _lagrange_descent(b, a)
        return None if w is None else (w[0], w[2], w[1])
    t = sqrt_mod(a, abs(b))
    if t is None:
        return None
    if 2 * t > abs(b):
        t -= abs(b)
    rest = (t * t - a) // b
    core = square_class(rest)
    w = _lagrange_descent(a, core)
    if w is None:
        return None
    x, y, z = w
    return x * t + a * y, x + t * y, core * isqrt(rest // core) * z


def _holzer_reduce(a, b, x, y, z):
    """Mordell's reduction of a zero of ax^2 + by^2 + cz^2, a, b > 0 > c.

    For R = (u, v, 0) in the lattice L = Z(x, y) + zZ^2 the second point
    of the conic on the line through P = (x, y, z) and R is
    (q(R) P - 2B(P, R) R) / z^2, with third coordinate q(R)/z.  For
    primitive P, L has determinant |z|, so a shortest R (Lagrange-Gauss)
    has a u^2 + b v^2 <= 2/sqrt(3) sqrt(ab) |z|.
    """
    g = gcd(x, y, z)
    x, y, z = x // g, y // g, z // g
    if z * z <= a * b:
        return x, y, z
    h = gcd(y, z)
    s = pow(y // h, -1, abs(z) // h) if abs(z) > h else 0  # s*y = h mod z
    b1, b2 = (gcd(x * z // h, z), 0), (s * x, h)

    def f(p, q):
        return a * p[0] * q[0] + b * p[1] * q[1]

    while True:
        if f(b1, b1) > f(b2, b2):
            b1, b2 = b2, b1
        mu = (2 * f(b1, b2) + f(b1, b1)) // (2 * f(b1, b1))
        if mu == 0:
            break
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
    (u, v), qr, bpr = b1, f(b1, b1), f((x, y), b1)
    zz = z * z
    x, y, z = (qr * x - 2 * bpr * u) // zz, (qr * y - 2 * bpr * v) // zz, qr // z
    g = gcd(x, y, z)
    return x // g, y // g, z // g


def witt_decompose(q: DiagonalForm) -> tuple[int, DiagonalForm]:
    """q = index*H + anisotropic.

    Over Q the opposite square classes cancel first (`_cancelled`,
    q = pH + <r>); the chain of explicit splits, each through a witness,
    then runs on <r> only.  When nothing cancels, the chain runs on q
    itself, so an anisotropic q is returned as it is.
    """
    if q.field == "R":
        pos = sum(1 for a in q.entries if a > 0)
        neg = q.dim - pos
        index = min(pos, neg)
        rest = (1,) * (pos - index) + (-1,) * (neg - index)
        return index, DiagonalForm("R", rest)
    index, residue = _cancelled(q)
    cur = DiagonalForm("Q", residue) if index else q
    while is_isotropic(cur):
        cur = _split_hyperbolic(cur, _witness(cur))
        index += 1
    return index, cur


def _split_hyperbolic(q: DiagonalForm, v) -> DiagonalForm:
    """Orthogonal complement of the hyperbolic plane through isotropic v.

    With j the first and k the last index where v is nonzero (k != j, as
    q(v) = 0), the plane is span(v, e_j).  The projection P onto its
    B-orthogonal complement kills e_j, and the only other relation among
    the P(e_m) is sum v_m P(e_m) = 0, so the P(e_m) with m not in {j, k}
    are a basis of the complement.  Their Gram matrix is
    diag(a_m) + s u u^T with u_m = a_m v_m and s = 1/(a_j v_j^2), and
    symmetric elimination keeps that shape: the pivot at d_t is
    p = d_t + s u_t^2, after which s becomes s d_t / p.  Pivots are chosen
    as `_diagonalize_gram` chooses them, so the diagonal is the one it
    gives; a block whose pivots are all zero goes to it as a dense matrix.
    """
    if q.value(v) != 0:
        raise RuntimeError("split vector is not isotropic")
    a = q.entries
    support = [i for i, x in enumerate(v) if x != 0]
    j, k = support[0], support[-1]
    rest = [m for m in range(q.dim) if m not in (j, k)]
    d = [a[m] for m in rest]
    u = [a[m] * v[m] for m in rest]
    s = div(1, a[j] * v[j] * v[j])
    out = []
    for t in range(len(d)):
        for i in range(t, len(d)):
            p = d[i] + s * u[i] * u[i]
            if p:
                break
        else:
            block = [[s * x * y for y in u[t:]] for x in u[t:]]
            for r, row in enumerate(block):
                row[r] += d[t + r]
            out += _diagonalize_gram(block)
            break
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        out.append(square_class(p))
        s = div(s * d[t], p)
    return DiagonalForm(q.field, tuple(out))


def _diagonalize_gram(gram):
    """Diagonal entries of a congruent diagonal matrix, squarefree-reduced.

    Symmetric Gaussian elimination; a zero diagonal block is repaired by
    the characteristic-zero row+column addition trick, and a zero block
    (a degenerate Gram) is a ValueError.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    out = []
    for t in range(n):
        piv = next((i for i in range(t, n) if g[i][i] != 0), None)
        if piv is None:
            i, j = next(
                ((i, j) for i in range(t, n) for j in range(t, n) if g[i][j] != 0),
                (None, None),
            )
            if i is None:
                raise ValueError("degenerate Gram matrix")
            for m in range(n):
                g[i][m] += g[j][m]
            for m in range(n):
                g[m][i] += g[m][j]
            piv = i
        if piv != t:
            g[t], g[piv] = g[piv], g[t]
            for row in g:
                row[t], row[piv] = row[piv], row[t]
        d = g[t][t]
        out.append(square_class(d))
        for i in range(t + 1, n):
            if g[i][t]:
                f = div(g[i][t], d)
                for m in range(n):
                    g[i][m] -= f * g[t][m]
                for m in range(n):
                    g[m][i] -= f * g[m][t]
    return out


# --------------------------------------------------------------------------
# classification


def witt_trivial(q: DiagonalForm) -> bool:
    """Whether q is Witt-equivalent to a hyperbolic form (possibly 0H)."""
    if q.dim % 2:
        return False
    if q.field == "R":
        return signature(q) == 0
    inv = invariants(q)
    return inv.disc == 1 and inv.signature == 0 and not _hasse_defects(inv)


def witt_equivalent(q1: DiagonalForm, q2: DiagonalForm) -> bool:
    if q1.field != q2.field:
        raise ValueError("mixed base fields")
    return witt_trivial(direct_sum(q1, -q2))


def isometric(q1: DiagonalForm, q2: DiagonalForm) -> bool:
    return q1.dim == q2.dim and witt_equivalent(q1, q2)


def in_power_I(q: DiagonalForm, n: int) -> bool:
    """Membership in I^n, for every n >= 1.

    Over R: even dimension and signature = 0 mod 2^n.  Over Q: I is even
    dimension; I^2 adds trivial signed discriminant; I^3 adds finite Hasse
    symbols matching the equal-dimensional hyperbolic form; and from n = 3
    on, I^n is the part of I^3 with signature = 0 mod 2^n, since the
    signature embeds I^3 Q into I^3 R (Arason-Elman-Jacob).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q.field == "R":
        return q.dim % 2 == 0 and signature(q) % (1 << n) == 0
    if q.dim % 2:
        return False
    if n == 1:
        return True
    inv = invariants(q)
    if inv.disc != 1:
        return False
    if n == 2:
        return True
    if _hasse_defects(inv) - {REAL}:
        return False
    return inv.signature % (1 << n) == 0


def arason_trivial(q: DiagonalForm) -> bool:
    """e3(q) = 0 for q in I^3, via the kernel-of-e3 theorem: e3 vanishes
    exactly on I^4."""
    if q.dim and not in_power_I(q, 3):
        raise HypothesisViolation("not-in-I3", "Arason invariant needs q in I^3")
    return True if q.dim == 0 else in_power_I(q, 4)


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
    d_an = witt_decompose(q)[1].dim
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


class HermitianDiagonal:
    """Diagonal hermitian form <l1,...,ln> over F(sqrt k), entries in F."""

    __slots__ = ("field", "k", "entries")

    def __init__(self, field: str, k: int | Fraction, entries: tuple[int | Fraction, ...]):
        k = as_rat(k)
        entries = tuple(as_rat(a) for a in entries)
        if any(a == 0 for a in entries):
            raise ValueError("hermitian entries must be nonzero")
        if field == "R":
            if k >= 0:
                raise ValueError("k must be negative over R")
        elif is_square(k):
            raise ValueError("k must not be a square")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):
        raise AttributeError("HermitianDiagonal is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not HermitianDiagonal:
            return NotImplemented
        return (self.field, self.k, self.entries) == (other.field, other.k, other.entries)

    def __reduce__(self):
        return HermitianDiagonal, (self.field, self.k, self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)


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
# behaviour under the quadratic extension K = Q(sqrt k)


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


# --------------------------------------------------------------------------
# literals


_TOKEN = re.compile(r"\s*(<<|>>|<|>|\+|\*|,|[^\s<>+*,]+)")


def parse_form(text: str, field: str = "Q") -> DiagonalForm:
    """Parse the form grammar: `<a,b,...>`, `<<a,...>>` (Pfister), `nH`,
    `c*<...>`, joined by `+`.  Every failure is one ValueError that says
    "parse error"."""
    try:
        return _parse_form(text, field)
    except ValueError as exc:
        raise ValueError(f"parse error: {exc}") from exc


def _parse_form(text: str, field: str) -> DiagonalForm:
    tokens = _TOKEN.findall(text)
    if not tokens or "".join(tokens) != "".join(text.split()):
        raise ValueError(f"cannot tokenize form literal {text!r}")
    pos = 0

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

    def term():
        """The entries of one term, in the order the form lists them."""
        tok = peek()
        if tok == "<<":
            take("<<")
            return _pfister_entries(scalar_list(">>"))
        if tok == "<":
            take("<")
            if peek() == ">":  # the zero form, as `form_literal` writes it
                take(">")
                return []
            return scalar_list(">")
        # `nH` or `c*<...>` / `c*<<...>>`
        word = take()
        if word.endswith("H") or word.endswith("h"):
            n = int(word[:-1]) if word[:-1] else 1
            if n < 0:
                raise ValueError("negative hyperbolic multiplicity")
            return [1, -1] * n
        c = parse_scalar(word)
        take("*")
        entries = term()
        if c == 0:
            raise ValueError("scaling by zero")
        return [c * a for a in entries]

    entries = term()
    while peek() == "+":
        take("+")
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
        "hasse": {repr(v): s for v, s in sorted(inv.hasse.items(), key=lambda t: t[0].p)},
        "signature": inv.signature,
    }
