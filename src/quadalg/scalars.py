"""Exact base-field arithmetic: integer factorization and primality under
fixed bounds, rationals, square classes, quadratic extensions
K = Q(sqrt k), Hilbert symbols at the places of Q, and Laurent
polynomials over Q or K, on which identities are proved.

An exact rational is kept in one canonical form: an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise (`rat`).  `div` is the
only true division: an int divided by an int never becomes a float, and
an integral quotient comes back as an int.  A square class is the signed
squarefree integer representing a*Q*^2; two scalars share it iff their
ratio is a nonzero rational square.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

SquareClass = int


def parse_scalar(text: str) -> int | Fraction:
    """Parse a scalar literal into a canonical rational (`rat`).  A signed
    ASCII digit string "n", or "n/d", is read with int and `div`; any other
    text goes to Fraction, so "0.1", "1e3", "1_000" and surrounding spaces
    read as Fraction reads them.  Every failure, a zero denominator
    included, is a ValueError."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return div(int(num), int(den)) if slash else int(num)
        return rat(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar literal {text!r}") from exc


# --------------------------------------------------------------------------
# integer number theory, under fixed bounds: every answer is a proof, and a
# number past the bounds raises ValueError instead of running on


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(1000)
# Strong probable primes to the first 13 prime bases are prime below
# psi_13 (Sorenson & Webster, Math. Comp. 86 (2017)); nothing larger is
# accepted as prime.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 20  # Pollard-rho iterations allowed for one split
_RHO_BATCH = 128  # differences multiplied together per gcd


def is_prime(n: int) -> bool:
    """Whether the integer n is prime: trial division, then Miller-Rabin
    with the bases `_MR_BASES`.  Raises ValueError for a strong probable
    prime at or above `_MR_LIMIT`, which those bases do not prove prime."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove a {len(str(n))}-digit number prime")
    return True


def next_prime(n: int) -> int:
    """The least prime above n."""
    n = max(n, 1) + 1
    while not is_prime(n):
        n += 1
    return n


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of an integer n >= 1.

    Trial division by the primes below 1000, then for the cofactor a
    perfect-power step, a primality proof (`is_prime`) or a split by
    Pollard's rho.  Raises ValueError, naming the digit count, for a
    cofactor that is neither proved prime nor split within the bounds.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out[p] = e
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        # m has no prime factor below 1000, so m = r^k needs k <= log_1000 m
        for k in range(2, m.bit_length() // 9 + 1):
            r = _root(m, k)
            if r**k == m:
                stack.append((r, k * e))
                break
        else:
            if is_prime(m):
                out[m] = out.get(m, 0) + e
            else:
                d = _rho_split(m)
                stack += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def _root(m: int, k: int) -> int:
    """The integer part of the k-th root of m >= 1 (Newton's method)."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _rho_split(n: int) -> int:
    """A proper divisor of the odd composite n, no perfect power, by Pollard's
    rho with Brent's cycle search, within `_RHO_STEPS` iterations."""
    steps, c = 0, 0
    while steps < _RHO_STEPS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise ValueError(f"cannot split a {len(str(n))}-digit number in {_RHO_STEPS} steps")


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


@lru_cache(maxsize=None)
def _odd_primes(n: int) -> tuple[int, ...]:
    """The primes dividing n >= 1 to an odd power, all of them for a
    squarefree n: `factor` runs once per n."""
    return tuple(p for p, e in factor(n).items() if e % 2)


@lru_cache(maxsize=None)
def _squarefree_part(n: int) -> int:
    """Signed squarefree part of a nonzero integer."""
    return prod(_odd_primes(abs(n)), start=-1 if n < 0 else 1)


def square_class(a: int | Fraction) -> SquareClass:
    """Signed squarefree integer representing a modulo nonzero squares; an
    int or a Fraction is read as it is."""
    if not a:
        raise ValueError("zero has no square class")
    return _squarefree_part(a.numerator * a.denominator)


def is_square(a: int | Fraction) -> bool:
    """Whether a = b^2 for a rational b (0 = 0^2 included)."""
    a = as_rat(a)
    return a == 0 or (a > 0 and square_class(a) == 1)


def is_local_square(a: int | Fraction, place: "Place") -> bool:
    """Whether a is a square in the completion at the place."""
    if not a:
        raise ValueError("zero is not classified")
    if place.is_real:
        return a > 0
    d = square_class(a)  # squarefree integer, same local square classes
    p = place.p
    v, u = _val_unit(d, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


_PLACES: dict[int, "Place"] = {}


class Place:
    """A place of Q carrying a local invariant: the real place or a prime.
    Places are interned, so a prime is proved prime once, and two places
    are equal only when they are the same object."""

    __slots__ = ("p",)  # p = 0 encodes the real place

    def __new__(cls, p: int) -> "Place":
        place = _PLACES.get(p)
        if place is None:
            if p != 0 and not is_prime(p):
                raise ValueError(f"not a place: {p}")
            place = _PLACES[p] = object.__new__(cls)
            object.__setattr__(place, "p", p)
        return place

    def __setattr__(self, *args):
        raise AttributeError("Place is immutable")

    def __reduce__(self):  # pickle and copy through the interning constructor
        return Place, (self.p,)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __repr__(self) -> str:
        return "real" if self.is_real else f"p={self.p}"


REAL = Place(0)


def relevant_places(*scalars: int | Fraction) -> list[Place]:
    """The real place, 2, and every odd prime dividing a square-class
    representative of one of the inputs.  Hilbert symbols built from the
    inputs are +1 away from this set."""
    primes = {2}
    for a in scalars:
        if a:
            primes.update(_odd_primes(abs(square_class(a))))
    return [REAL] + [Place(p) for p in sorted(primes)]


def _val_unit(n: int, p: int) -> tuple[int, int]:
    """Write n = p^v * u with u prime to p."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(u: int, p: int) -> int:
    """Legendre symbol (u|p) for odd p and u prime to p."""
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of Q: +1 iff z^2 = a x^2 + b y^2
    has a nonzero solution over the completion.

    Computed by the classical explicit formulas (Legendre symbols for odd
    p, unit residues mod 8 for p = 2, signs at the real place).
    """
    if not a or not b:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    # Replace by square-class representatives; symbols only see those.
    ai, bi = square_class(a), square_class(b)
    p = place.p
    alpha, u = _val_unit(ai, p)
    beta, w = _val_unit(bi, p)
    if p == 2:
        eps = ((u - 1) // 2) * ((w - 1) // 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


def is_norm_from_K(a: int | Fraction, k: int | Fraction) -> bool:
    """Whether a = x^2 - k y^2 for rational x, y; equivalently the form
    <1,-k,-a> is isotropic, i.e. the quaternion algebra (k,a) splits."""
    a, k = as_rat(a), as_rat(k)
    if a == 0:
        raise ValueError("a must be nonzero")
    if is_square(k):
        raise ValueError("k is a square, K is not a field")
    return all(hilbert_symbol(k, a, v) == 1 for v in relevant_places(a, k))


def rat(v):
    """v in canonical form: a Fraction with denominator 1 becomes its int;
    every other value (an int, a proper Fraction, an element of K, a
    Laurent polynomial) is returned as it is."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def div(a, b):
    """The exact quotient a / b in canonical form, and the only true
    division in the package: an int by an int goes through Fraction, so
    the result is never a float.  Raises ZeroDivisionError for b = 0."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return rat(a / b)


@lru_cache(maxsize=None)
def _field_parameter(k: Fraction) -> Fraction:
    """k itself, once it is known not to be a rational square."""
    if is_square(k):
        raise ValueError("k must not be a rational square")
    return k


class QuadExtScalar:
    """An element x + y*sqrt(k) of K = Q(sqrt k), k a fixed nonsquare."""

    __slots__ = ("x", "y", "k")

    def __init__(self, x: int | Fraction, y: int | Fraction, k: int | Fraction):
        _set_x(self, as_rat(x))
        _set_y(self, as_rat(y))
        _set_k(self, _field_parameter(as_rat(k)))

    def __setattr__(self, *args):  # immutable
        raise AttributeError("QuadExtScalar is immutable")

    def __reduce__(self):  # pickle and copy through the constructor
        return QuadExtScalar, (self.x, self.y, self.k)

    # -- ring structure ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuadExtScalar):
            if other.k != self.k:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(other, 0, self.k)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.x + o.x, self.y + o.y, self.k)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.x, -self.y, self.k)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(
            self.x * o.x + self.k * self.y * o.y,
            self.x * o.y + self.y * o.x,
            self.k,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtScalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of K")
        return _quad(div(self.x, n), div(-self.y, n), self.k)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- field-theoretic maps -------------------------------------------
    def conj(self) -> "QuadExtScalar":
        """The nontrivial F-automorphism iota: x + y sqrt(k) -> x - y sqrt(k)."""
        return _quad(self.x, -self.y, self.k)

    def norm(self) -> int | Fraction:
        """N_{K/F}: x^2 - k y^2."""
        return rat(self.x * self.x - self.k * self.y * self.y)

    def trace(self) -> int | Fraction:
        return rat(2 * self.x)

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def rational(self) -> int | Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.x

    # -- comparisons -----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExtScalar):
            return (self.x, self.y, self.k) == (other.x, other.y, other.k)
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self):
        # a rational element equals, so must hash like, its rational part
        return hash(self.x) if self.y == 0 else hash((self.x, self.y, self.k))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __repr__(self) -> str:
        if self.y == 0:
            return str(self.x)
        return f"{self.x}+{self.y}*sqrt({self.k})"


# the slots' own setters, which skip the __setattr__ that keeps K immutable
_set_x, _set_y, _set_k = (QuadExtScalar.__dict__[name].__set__ for name in QuadExtScalar.__slots__)


def _quad(x: int | Fraction, y: int | Fraction, k: int | Fraction) -> QuadExtScalar:
    """x + y sqrt(k) built by the arithmetic: x and y are exact rationals,
    demoted to int when integral (`rat`, inline), and k is an operand's,
    already checked, so the public constructor's validation is skipped."""
    out = object.__new__(QuadExtScalar)
    _set_x(out, x.numerator if type(x) is Fraction and x.denominator == 1 else x)
    _set_y(out, y.numerator if type(y) is Fraction and y.denominator == 1 else y)
    _set_k(out, k)
    return out


class Laurent:
    """A Laurent polynomial over Q or K: the sum of the terms c * m over
    its (m, c) pairs, c a canonical exact rational (an int when integral,
    else a Fraction) or a QuadExtScalar, and m a monomial, a sorted tuple
    of (variable, nonzero exponent) pairs.  Field operations that agree on
    independent variables agree at all their nonzero values, so one
    evaluation on generic coordinates proves an identity for every value.
    Only a monomial is invertible."""

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        terms = {}
        for m, c in pairs:
            terms[m] = terms[m] + c if m in terms else c
        self.terms = {m: rat(c) for m, c in terms.items() if c}

    @staticmethod
    def _coerce(v):
        if isinstance(v, (int, Fraction, QuadExtScalar)):
            return Laurent([((), as_scalar(v))])
        return v if isinstance(v, Laurent) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Laurent([*self.terms.items(), *o.terms.items()])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExtScalar)):  # scale the coefficients
            out = object.__new__(Laurent)
            out.terms = {m: rat(cd) for m, c in self.terms.items() if (cd := c * other)}
            return out
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        products = ((m, n, c * d) for m, c in self.terms.items() for n, d in o.terms.items())
        return Laurent((_monomial_product(m, n), cd) for m, n, cd in products)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Laurent((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        return self * div(1, other)

    def __rtruediv__(self, other):
        if len(self.terms) != 1:
            error = ValueError if self.terms else ZeroDivisionError
            raise error(f"{self} is not an invertible monomial")
        ((m, c),) = self.terms.items()
        return other * Laurent([(tuple((v, -e) for v, e in m), div(1, c))])

    def __pow__(self, n: int):
        if not n:
            return Laurent([((), 1)])
        return prod([self if n > 0 else div(1, self)] * abs(n))

    def conj(self) -> "Laurent":
        """iota on the coefficients."""
        return Laurent((m, iota(c)) for m, c in self.terms.items())

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __hash__(self):
        # a constant equals, so must hash like, its coefficient
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return " + ".join(
            "*".join([f"({c})"] * (c != 1 or not m) + [v if e == 1 else f"{v}^{e}" for v, e in m])
            for m, c in sorted(self.terms.items())
        ) or "0"


def _monomial_product(m: tuple, n: tuple) -> tuple:
    exps = dict(m)
    for v, e in n:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def exact_sum(values: list):
    """The sum of exact scalars in canonical form, 0 for none.  Laurent
    values are summed once, into one term dict, not one Laurent per
    partial sum."""
    if len(values) < 2:
        return rat(values[0]) if values else 0
    if any(isinstance(v, Laurent) for v in values):
        return Laurent(pair for v in values for pair in Laurent._coerce(v).terms.items())
    return rat(sum(values[1:], values[0]))


def variable(name: str) -> Laurent:
    return Laurent([(((name, 1),), 1)])


def iota(v: int | Fraction | QuadExtScalar) -> int | Fraction | QuadExtScalar:
    """Conjugation, acting trivially on rationals."""
    return v.conj() if isinstance(v, (QuadExtScalar, Laurent)) else v


def sqrt_k(k: int | Fraction) -> QuadExtScalar:
    return QuadExtScalar(0, 1, k)


def as_rat(v) -> int | Fraction:
    """A rational number (an int, a Fraction, or what Fraction accepts,
    a bool included) in canonical form."""
    if type(v) is int:
        return v
    return rat(v if type(v) is Fraction else Fraction(v))


def as_scalar(v) -> int | Fraction | QuadExtScalar:
    """An element of K or a Laurent polynomial as is, any other number as
    a canonical rational."""
    return v if isinstance(v, (int, QuadExtScalar, Laurent)) else as_rat(v)


def as_rational(v: int | Fraction | QuadExtScalar) -> int | Fraction:
    """Extract a rational value, rejecting elements with a sqrt(k) part."""
    if isinstance(v, QuadExtScalar):
        return v.rational()
    return as_rat(v)
