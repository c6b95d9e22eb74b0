"""The isotropic-vector chain: explicit zeros of isotropic forms over Q.

`quadalg.forms` decides isotropy and the Witt decomposition from the
invariants alone (Hasse-Minkowski and Serre's existence conditions) and
builds no isotropic vector.  This chain builds one, so the tests can hold
the invariant route against an independent construction: a vector v with
q(v) = 0 certifies an `is_isotropic` verdict, and splitting off one
hyperbolic plane per witness (`reference_witt_decompose` in `test_forms`)
is the textbook Witt decomposition that `witt_decompose` must agree with.

A witness is a hyperbolic pair, a ternary zero, or two ternary zeros joined
through a class that both halves of the form represent.  Ternary zeros come
from Legendre's equation: Lagrange's descent (with `sqrt_mod`, Tonelli-Shanks
per prime joined by the Chinese remainder theorem) and Mordell's reduction
to Holzer's bound (Cremona and Rusin, Math. Comp. 72 (2003)).  Local
isotropy is Serre's case analysis in the tests' own reference
(`reference.reference_isotropic_at`), not the library's verdict; the chain
reads the library's F2 class solver, so a patch of `_f2_solve` or
`_isotropic_vector_squarefree` must target this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

from quadalg.forms import DiagonalForm, _bits, _classes, _f2_solve, form, is_isotropic
from quadalg.scalars import (
    _legendre,
    div,
    factor,
    hilbert_symbol,
    is_square,
    relevant_places,
    square_class,
)

from reference import reference_isotropic_at


def _fraction_sqrt(a: int | Fraction) -> int | Fraction:
    """The rational square root of a rational square a >= 0, canonical."""
    if not is_square(a):
        raise ValueError(f"{a} is not a square")
    return div(isqrt(a.numerator), isqrt(a.denominator))


def isotropic_vector(q: DiagonalForm) -> tuple[int | Fraction, ...]:
    """An exact nonzero vector with q(v) = 0.

    The existence certificate comes first (local-global test); the witness
    is then built from verified ternary witnesses by
    `_isotropic_vector_squarefree`.  Over R it is a rational vector, so it
    exists exactly when the entries are isotropic over Q.
    """
    if not is_isotropic(q):
        raise ValueError("form is anisotropic")
    return _witness(q)


def _witness(q: DiagonalForm) -> tuple[int | Fraction, ...]:
    """An exact nonzero vector with q(v) = 0, for q known to be isotropic."""
    if q.field == "R":
        rational = form(q.entries)
        if not is_isotropic(rational):
            raise ValueError("form is isotropic over R but has no rational isotropic vector")
        return _witness(rational)
    # a_i = d_i c_i^2 with d_i squarefree: a zero w of <d_i> gives w_i / c_i
    ds = _classes(q)
    w = _isotropic_vector_squarefree(ds)
    return tuple(div(x, _fraction_sqrt(div(a, d))) for x, a, d in zip(w, q.entries, ds))


def _isotropic_vector_squarefree(ds):
    """A nonzero integer zero of sum d_i x_i^2 for squarefree d_i; the
    form is assumed isotropic (certified by the caller).

    A hyperbolic pair, else a ternary witness of q or of an isotropic
    ternary subform.  Otherwise an indefinite head <a, b> and a rest of two
    or three entries are split through a class c that both head and -rest
    represent, and zeros of head + <-c> and rest + <c> combine.  A binary
    <x, y> represents c iff (c, -xy)_v = (x, y)_v at each place v: in
    dimension 4 c solves these conditions (`_f2_solve`).  From dimension 5
    on, head + rest is isotropic (Meyer), and c is the class of the first
    value a y1^2 + b y2^2 (coprime y1, y2 >= 0, by height y1 + y2 < 128)
    for which the quaternary rest + <c> is isotropic, and is solved.
    """
    n = len(ds)
    # opposite squarefree entries span a hyperbolic pair
    for i, j in itertools.combinations(range(n), 2):
        if ds[i] == -ds[j]:
            return _placed(n, (i, j), (1, 1))
    # q itself when ternary, else an isotropic ternary subform; it has no
    # opposite entries, so it is isotropic iff it is so at each of its places
    for idx in itertools.combinations(range(n), 3):
        sub = [ds[i] for i in idx]
        if n == 3 or all(reference_isotropic_at(sub, v) for v in relevant_places(-1, *sub)):
            return _placed(n, idx, _ternary_witness(*sub))
    if n == 2:
        raise RuntimeError("a certified binary form has no opposite entries")
    i = next(i for i in range(n) if ds[i] > 0)
    j = next(j for j in range(n) if ds[j] < 0)
    idx = [i, j] + [k for k in range(n) if k not in (i, j)][:3]
    a, b, *rest = (ds[k] for k in idx)
    if n == 4:
        halves, places = ((a, b), [-d for d in rest]), relevant_places(*ds)
        c, _ = _f2_solve(
            places,
            lambda g: _bits(hilbert_symbol(g, -x * y, v) == -1 for v in places for x, y in halves),
            _bits(hilbert_symbol(x, y, v) == -1 for v in places for x, y in halves),
            lambda ell: all(_legendre(-x * y, ell) == 1 for x, y in halves),
        )
        w1, w2 = (_ternary_witness(x, y, -c) for x, y in halves)
    else:
        heights = ((y, h - y) for h in range(1, 128) for y in range(h + 1) if gcd(y, h - y) == 1)
        for y1, y2 in heights:
            t = a * y1 * y1 + b * y2 * y2
            c = square_class(t)
            if all(reference_isotropic_at(rest + [c], v) for v in relevant_places(-1, *rest, c)):
                break
        else:
            raise RuntimeError("no small value of the head makes the rest isotropic")
        w1, w2 = (y1, y2, isqrt(t // c)), _isotropic_vector_squarefree(rest + [c])
    # head(x1 z2, x2 z2) = c z1^2 z2^2 = -rest(z1 y) for w1 = (x1, x2, z1), w2 = (y, z2)
    (x1, x2, z1), z2 = w1, w2[-1]
    v = _placed(n, idx, [x1 * z2, x2 * z2] + [y * z1 for y in w2[:-1]])
    if not any(v) or sum(d * x * x for d, x in zip(ds, v)) != 0:
        raise RuntimeError("split witness is not isotropic")
    return v


def _placed(n: int, idx, w) -> list[int]:
    """The n-vector with the entries of w at the indices idx, else 0."""
    v = [0] * n
    for i, x in zip(idx, w):
        v[i] = x
    return v


def _ternary_witness(a, b, c):
    """A verified nonzero integer zero of the isotropic ax^2 + by^2 + cz^2;
    a RuntimeError if the solver finds none.

    The coefficients are brought to Legendre normal form (squarefree and
    pairwise coprime) first, where `_legendre_equation_zero` applies.
    """
    if (a > 0) == (b > 0) == (c > 0):
        raise RuntimeError("a definite ternary form has no zero")
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
        raise RuntimeError("the ternary form has no zero")
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


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A root of t^2 = a mod the prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0 or p == 2:
        return a
    if _legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if _legendre(z, p) == -1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt_mod(a: int, n: int) -> int | None:
    """A root of t^2 = a mod the squarefree n >= 1, or None: a root per
    prime of n, joined by the Chinese remainder theorem."""
    t, m = 0, 1
    for p in factor(n):
        r = _sqrt_mod_prime(a, p)
        if r is None:
            return None
        t += m * ((r - t) * pow(m, -1, p) % p)
        m *= p
    return t
