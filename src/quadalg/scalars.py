"""Exact base-field arithmetic: integer factorization and primality under
fixed bounds, rationals, square classes, quadratic extensions
K = Q(sqrt k), Hilbert symbols at the places of Q, and Laurent
polynomials over Q or K, on which identities are proved.

An exact rational is kept in one canonical form: an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise (`rat`).  `div` is the
only true division: an int divided by an int never becomes a float, and
an integral quotient comes back as an int.  A square class is the signed
squarefree integer representing a*Q*^2; two scalars share it iff their
ratio is a nonzero rational square.  Serre's local formulas are stated
once, on valuations and units: `_local_class` (a class of Q_v*/Q_v*^2)
and `_hasse` (the Hasse symbol of a diagonal form), of which
`is_local_square` and `hilbert_symbol` are the one- and two-entry cases.
Only `square_class` and `relevant_places` factor.  A Laurent polynomial
keys its terms by their monomials, sorted (variable, nonzero exponent)
tuples, with exponents of any size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

SquareClass = int


# int() reads and str() writes at most this many digits (CPython's default)
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS


def parse_scalar(text: str) -> int | Fraction:
    """Parse a scalar literal into a canonical rational (`rat`).  A signed
    ASCII digit string "n", or "n/d", is read with int and `div`; any other
    text goes to Fraction, so "0.1", "1e3", "1_000" and surrounding spaces
    read as Fraction reads them.  A value whose numerator or denominator
    has more than 4,300 digits is refused, as int refuses such a digit
    string, and an exponent beyond twice that is refused before 10^e is
    built: only a zero mantissa keeps such a value under the bound.  Every
    failure, a zero denominator included, is a ValueError."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return div(int(num), int(den)) if slash else int(num)
        _, e, exponent = text.lower().rpartition("e")
        if e and abs(int(exponent)) > 2 * _MAX_DIGITS:
            raise ValueError("exponent out of range")
        q = Fraction(text.strip())
        if max(abs(q.numerator), q.denominator) >= _DIGITS_BOUND:
            raise ValueError("too many digits")
        return rat(q)
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
    """Whether a = b^2 for a rational b (0 = 0^2 included): the integer
    square roots of its numerator and denominator, nothing factored."""
    a = as_rat(a)
    return a >= 0 and all(isqrt(n) ** 2 == n for n in (a.numerator, a.denominator))


def is_local_square(a: int | Fraction, place: "Place") -> bool:
    """Whether a is a square in the completion at the place: num*den, in
    the square class of a, has the local class of 1 (`_local_class`)."""
    if not a:
        raise ValueError("zero is not classified")
    return _local_class(a.numerator * a.denominator, place) == _local_class(1, place)


class _Frozen:
    """The base of the immutable values.  A subclass names its fields once,
    in `__slots__`; the base records them (`_fields`, after those of the
    class it derives from) with the slots' own setters (`_setters`), which
    write past `__setattr__`, which raises.
    `__init__` fills the fields by position, so a class that checks its
    arguments calls it once they pass.  Two values are equal when they are
    of one type with equal `_key()`s, and a copy or a pickle calls the
    type on `_key()`: the fields, unless a class redefines it because its
    constructor's arguments are not its fields."""

    __slots__ = ()
    _fields, _setters = (), ()

    def __init_subclass__(cls):
        own = tuple(cls.__dict__.get("__slots__", ()))
        cls._fields += own
        cls._setters += tuple(cls.__dict__[name].__set__ for name in own)

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __reduce__(self):
        return type(self), self._key()


_PLACES: dict[int, "Place"] = {}


class Place(_Frozen):
    """A place of Q carrying a local invariant: the real place or a prime.
    Places are interned, so a prime is proved prime once, and two places
    are equal only when they are the same object."""

    __slots__ = ("p",)  # p = 0 encodes the real place
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __new__(cls, p: int) -> "Place":
        place = _PLACES.get(p)
        if place is None:
            if p != 0 and not is_prime(p):
                raise ValueError(f"not a place: {p}")
            place = _PLACES[p] = object.__new__(cls)
            _Frozen.__init__(place, p)
        return place

    def __init__(self, p: int):  # p was set once, by `__new__`; a lookup leaves it
        pass

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


def _local_class(t: int, v: Place):
    """The class of the nonzero integer t in Q_v*/Q_v*^2: its sign at the
    real place; at a prime p, the parity of its valuation and its unit's
    residue (mod 8 at 2, the Legendre symbol at an odd p)."""
    if v.is_real:
        return t > 0
    e, u = _val_unit(t, v.p)
    return e % 2, u % 8 if v.p == 2 else _legendre(u, v.p)


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


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of Q: +1 iff z^2 = a x^2 + b y^2
    has a nonzero solution over the completion.  It is the Hasse symbol of
    the binary <a, b> (`_hasse`), read off num*den of each argument, which
    lies in its square class; nothing is factored."""
    if not a or not b:
        raise ValueError("hilbert symbol needs nonzero arguments")
    return _hasse((a.numerator * a.denominator, b.numerator * b.denominator), place)


def is_norm_from_K(a: int | Fraction, k: int | Fraction) -> bool:
    """Whether a = x^2 - k y^2 for rational x, y; equivalently the form
    <1,-k,-a> is isotropic, i.e. the quaternion algebra (k,a) splits."""
    a = as_rat(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    k = field_parameter(k)
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
def field_parameter(k: int | Fraction) -> int | Fraction:
    """k as a canonical rational, once it is known not to be a square: the
    one check that K = Q(sqrt k) is a field, made once per k."""
    k = as_rat(k)
    if is_square(k):
        raise ValueError("k must not be a square")
    return k


class QuadExtScalar(_Frozen):
    """An element x + y*sqrt(k) of K = Q(sqrt k), k a fixed nonsquare."""

    __slots__ = ("x", "y", "k")

    def __init__(self, x: int | Fraction, y: int | Fraction, k: int | Fraction):
        super().__init__(as_rat(x), as_rat(y), field_parameter(k))

    # -- ring structure ------------------------------------------------
    def _coerce(self, other):
        # exact types first: isinstance(v, Fraction) goes through ABCMeta
        if type(other) is QuadExtScalar or isinstance(other, QuadExtScalar):
            if other.k != self.k:
                raise ValueError("mixed quadratic extensions")
            return other
        if type(other) in (int, Fraction) or isinstance(other, (int, Fraction)):
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
        return _quad(self.x - o.x, self.y - o.y, self.k)

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

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def rational(self) -> int | Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.x

    # -- comparisons -----------------------------------------------------
    def __eq__(self, other) -> bool:  # not the base's: it also equals a rational
        if type(other) is QuadExtScalar or isinstance(other, QuadExtScalar):
            return (self.x, self.y, self.k) == (other.x, other.y, other.k)
        if type(other) in (int, Fraction) or isinstance(other, (int, Fraction)):
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
        return f"{self.x}{'-' if self.y < 0 else '+'}{abs(self.y)}*sqrt({self.k})"


_set_x, _set_y, _set_k = QuadExtScalar._setters


def _quad(x: int | Fraction, y: int | Fraction, k: int | Fraction) -> QuadExtScalar:
    """x + y sqrt(k) built by the arithmetic: x and y are exact rationals,
    demoted to int when integral (`rat`, inline), and k is an operand's,
    already checked, so the public constructor's validation is skipped."""
    out = object.__new__(QuadExtScalar)
    _set_x(out, x.numerator if type(x) is Fraction and x.denominator == 1 else x)
    _set_y(out, y.numerator if type(y) is Fraction and y.denominator == 1 else y)
    _set_k(out, k)
    return out


_SCALARS = (int, Fraction, QuadExtScalar)  # the coefficients' types


def _monomial(pairs) -> tuple:
    """The monomial of (variable, exponent) pairs: its sorted (variable,
    nonzero exponent) pairs, the exponents of a repeated variable summed."""
    exps: dict = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _monomial_product(m: tuple, n: tuple) -> tuple:
    """The product of two monomials: one merge of their sorted pairs, an
    exponent that cancels dropped."""
    if not m or not n:
        return m or n
    out = []
    i = j = 0
    while i < len(m) and j < len(n):
        (v, e), (w, f) = m[i], n[j]
        if v < w:
            out.append(m[i])
            i += 1
        elif w < v:
            out.append(n[j])
            j += 1
        else:
            if e + f:
                out.append((v, e + f))
            i += 1
            j += 1
    return (*out, *m[i:], *n[j:])


def _laurent(terms: dict) -> "Laurent":
    """The Laurent polynomial of terms that are nonzero and canonical
    already."""
    out = object.__new__(Laurent)
    _set_terms(out, terms)
    return out


def _sum_terms(values) -> "Laurent":
    """The sum of Laurent polynomials, gathered into one term dict."""
    terms: dict = {}
    get = terms.get
    for p in values:
        for m, c in p.terms.items():
            v = get(m)
            terms[m] = c if v is None else v + c
    return _laurent({m: rat(c) for m, c in terms.items() if c})


def _product_terms(a: dict, b: dict) -> dict:
    """The terms of the product of two Laurent polynomials' terms,
    gathered into one dict."""
    terms: dict = {}
    get = terms.get
    for m, c in a.items():
        for n, d in b.items():
            key = _monomial_product(m, n)
            v = get(key)
            terms[key] = c * d if v is None else v + c * d
    return {m: rat(c) for m, c in terms.items() if c}


def _power(v, n: int, one):
    """v to the power n >= 0 by repeated squaring, `one` for n = 0."""
    out = one
    while n:
        if n & 1:
            out = out * v
        n >>= 1
        if n:
            v = v * v
    return out


class Laurent(_Frozen):
    """A Laurent polynomial over Q or K: the sum of the terms c * m, c a
    canonical exact rational (an int when integral, else a Fraction) or a
    QuadExtScalar, and m a monomial.  Field operations that agree on
    independent variables agree at all their nonzero values, so one
    evaluation on generic coordinates proves an identity for every value.
    Only a monomial is invertible.

    The terms are held as {monomial: c}, each monomial a sorted tuple of
    (variable, nonzero exponent) pairs, so the constant monomial is ().
    Exponents are ints of any size.  `Laurent(pairs)` takes (monomial, c)
    pairs, a monomial given as (variable, exponent) pairs in any order;
    a copy or a pickle goes through the pairs of `terms`.  `terms` is the
    value's own dict: read it, never change it."""

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        terms: dict = {}
        for m, c in pairs:
            key = _monomial(m)
            terms[key] = terms[key] + c if key in terms else c
        super().__init__({m: rat(c) for m, c in terms.items() if c})

    def _key(self) -> tuple:  # the pairs Laurent(pairs) takes, not the dict
        return (tuple(self.terms.items()),)

    @staticmethod
    def _coerce(v):
        if type(v) is Laurent or isinstance(v, Laurent):
            return v
        if type(v) in _SCALARS:
            return _laurent({(): rat(v)} if v else {})
        if isinstance(v, _SCALARS):
            return Laurent([((), as_scalar(v))])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum_terms((self, o))

    def __mul__(self, other):
        if type(other) is not Laurent and not isinstance(other, Laurent):
            if not (type(other) in _SCALARS or isinstance(other, _SCALARS)):
                return NotImplemented
            # the coefficients scaled
            return _laurent({m: rat(cd) for m, c in self.terms.items() if (cd := c * other)})
        return _laurent(_product_terms(self.terms, other.terms))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _laurent({m: -c for m, c in self.terms.items()})

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
        return other * _laurent({tuple((v, -e) for v, e in m): div(1, c)})

    def __pow__(self, n: int):
        """A monomial in one step, each exponent times n; anything else by
        repeated squaring; a negative power of a monomial only."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return div(1, self) ** -n
        if len(self.terms) != 1 or not n:
            return _power(self, n, Laurent([((), 1)]))
        ((m, c),) = self.terms.items()
        return _laurent({tuple((v, e * n) for v, e in m): rat(_power(c, n, 1))})

    def conj(self) -> "Laurent":
        """iota on the coefficients."""
        return _laurent({m: iota(c) for m, c in self.terms.items()})

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


(_set_terms,) = Laurent._setters


def exact_sum(values: list):
    """The sum of exact scalars in canonical form, 0 for none.  Laurent
    values are summed once, into one term dict, not one Laurent per
    partial sum."""
    if len(values) < 2:
        return rat(values[0]) if values else 0
    if any(isinstance(v, Laurent) for v in values):
        return _sum_terms([Laurent._coerce(v) for v in values])
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
