import functools
import itertools
import random
from fractions import Fraction as Q
from math import prod

import pytest

from quadalg import forms, scalars
from quadalg.scalars import (
    Laurent,
    QuadExtScalar,
    REAL,
    factor,
    hilbert_symbol,
    is_norm_from_K,
    is_prime,
    is_square,
    next_prime,
    parse_scalar,
    relevant_places,
    square_class,
    sqrt_k,
    as_scalar,
    iota,
    variable,
)

from witness_chain import sqrt_mod


def test_square_class_examples():
    assert square_class(18) == 2
    assert square_class(Q(-4, 9)) == -1
    assert square_class(1) == 1
    assert square_class(Q(8, 27)) == 6
    with pytest.raises(ValueError):
        square_class(0)


def test_square_class_is_square_invariant():
    rng = random.Random(0)
    for _ in range(50):
        a = Q(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        c = Q(rng.randint(1, 30), rng.randint(1, 30))
        assert square_class(a) == square_class(a * c * c)
    assert is_square(Q(49, 4)) and not is_square(Q(-49, 4)) and not is_square(8)


def test_zero_is_a_square_and_no_field():
    assert is_square(0)
    with pytest.raises(ValueError):
        QuadExtScalar(1, 1, 0)
    with pytest.raises(ValueError):
        is_norm_from_K(3, 0)


def test_parse_scalar():
    assert parse_scalar("3/4") == Q(3, 4)
    assert parse_scalar("-7") == -7
    with pytest.raises(ValueError):
        parse_scalar("x+1")


def test_parse_scalar_refuses_more_digits_than_int_reads():
    """A literal is read only when its numerator and denominator have at
    most 4,300 digits, as many as int reads and str writes; an exponent
    that would pass them is refused before 10^e is built."""
    assert parse_scalar("1e4000") == 10**4000
    assert parse_scalar("1e4299") == 10**4299
    assert parse_scalar("-25e-4299") == Q(-1, 4 * 10**4297)
    for text in ("1e4300", "1e-4300", "1e200000", "1e10000000", "0e99999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="bad scalar literal"):
            parse_scalar(text)


def hilbert_oracle(a, b, p):
    """Brute-force solubility of z^2 = a x^2 + b y^2 over Q_p: search for
    primitive solutions modulo p^K, with K large enough for Hensel lifting
    of squarefree coefficients."""
    a, b = square_class(a), square_class(b)
    K = 3 if p > 2 else 6
    mod = p**K
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, z)
    for x in range(mod):
        for y in range(mod):
            v = (a * x * x + b * y * y) % mod
            if v not in squares:
                continue
            if x % p or y % p:
                return 1  # (x, y, z) is primitive whatever z is
            if v % p:
                return 1  # x = y = 0 mod p but z is then a unit
    return -1


@pytest.mark.parametrize(
    "a,b,place,expected",
    [
        (-1, -1, REAL, -1),
        (-1, -1, 2, -1),
        (2, 3, 3, -1),
        (1, 7, 7, 1),
        (5, Q(-1, 5), 5, None),
        (Q(3, 2), Q(-6), 2, None),
    ],
    # each case keeps the id that names its place by position, not by number
    ids=[
        "-1--1-place0--1",
        "-1--1-place1--1",
        "2-3-place2--1",
        "1-7-place3-1",
        "5-b4-place4-None",
        "a5-b5-place5-None",
    ],
)
def test_hilbert_symbol_against_oracle(a, b, place, expected):
    got = hilbert_symbol(a, b, place)
    if expected is not None:
        assert got == expected
    if place:
        assert got == hilbert_oracle(a, b, place)


def class_representatives(p):
    """One representative of each square class of Q_p* (of R* at p = 0):
    {1, 3, 5, 7, 2, 6, 10, 14} at 2, and {1, n, p, np} at an odd p, with n
    the least quadratic nonresidue."""
    if p == 0:
        return [1, -1]
    if p == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [1, n, p, n * p]


@functools.cache
def oracle_symbols(p):
    """{(a, b): (a, b)_p} on every pair of class representatives at p, not
    read off `_hasse`: the brute-force `hilbert_oracle` at a prime, and at
    the real place -1 exactly when both are negative."""
    return {
        (a, b): hilbert_oracle(a, b, p) if p else -1 if a < 0 and b < 0 else 1
        for a, b in itertools.product(class_representatives(p), repeat=2)
    }


def test_hilbert_symbol_oracle_on_every_class_pair():
    """Every pair of square classes at p = 2, 3, 5 and 7, 112 in all,
    against the brute-force solubility of z^2 = a x^2 + b y^2, and the
    4 pairs at the real place against the sign rule."""
    for p in (0, 2, 3, 5, 7):
        for (a, b), symbol in oracle_symbols(p).items():
            assert hilbert_symbol(a, b, p) == symbol, (p, a, b)


def test_hasse_on_every_multiset_of_representatives():
    """`_hasse` on every multiset of at most five class representatives at
    each place, and on it again with its first entry times p^2 (times 4 at
    the real place), 3,372 forms in all, against the product over its pairs
    of the symbols of `oracle_symbols`."""
    for p in (0, 2, 3, 5, 7):
        symbols = oracle_symbols(p)
        for n in range(6):
            for ds in itertools.combinations_with_replacement(class_representatives(p), n):
                expected = prod(symbols[pair] for pair in itertools.combinations(ds, 2))
                scaled = (ds[0] * (p * p or 4), *ds[1:]) if ds else ds
                for entries in (ds, scaled):
                    assert scalars._hasse(entries, p) == expected, (p, entries)


def local_square_oracle(t, p):
    """Whether the nonzero integer t is a square at the place p, by search:
    at the real place its sign; at a prime an even valuation and a unit that
    is a square mod 8 at 2 and mod p at an odd p (Hensel)."""
    if not p:
        return t > 0
    e = 0
    while t % p == 0:
        t, e = t // p, e + 1
    mod = 8 if p == 2 else p
    return e % 2 == 0 and any(x * x % mod == t % mod for x in range(mod))


def local_class_faults(p):
    """Where `is_local_square` or `_local_class` disagrees with the oracle
    at p, on each class representative times p^0 and p^1 (times 1 and 4 at
    the real place) and on one more unit of each class (u + 8 at 2, u + p at
    an odd p, 3u at the real place): a number the oracle calls a square or
    not, and a pair in one class or not (their product a square)."""
    reps = class_representatives(p)
    units = [u for u in reps if not p or u % p]
    more = [3 * u if not p else u + 8 if p == 2 else u + p for u in units]
    table = reps + [r * (p or 4) for r in reps] + more
    faults = [t for t in table if scalars.is_local_square(t, p) != local_square_oracle(t, p)]
    return faults + [
        (s, t)
        for s, t in itertools.product(table, repeat=2)
        if (scalars._local_class(s, p) == scalars._local_class(t, p)) != local_square_oracle(s * t, p)
    ]


def test_local_square_and_class_on_every_class():
    for p in (0, 2, 3, 5, 7):
        assert local_class_faults(p) == [], p


def test_local_class_table_catches_a_unit_read_mod_4(monkeypatch):
    """A `_local_class` that reads a unit mod 4 at 2 merges 1 with 5 and 3
    with 7, and the table sees it."""
    real = scalars._local_class

    def mod_4(t, v):
        if v != 2:
            return real(t, v)
        e, u = scalars._val_unit(t, 2)
        return e % 2, u % 4

    monkeypatch.setattr(scalars, "_local_class", mod_4)
    assert local_class_faults(2)


def existence_faults(p):
    """The (k, d, eps) at the place p where `forms._exists` disagrees with
    the local forms that occur (Serre IV.2.3 Prop. 6): every diagonal form
    of dimension 0-4 over the class representatives, read as its dimension,
    det class (`_local_class`) and Hasse symbol (`_hasse`), both proven on
    the tables above.  A triple occurs exactly when `_exists(k, d, {p})`
    admits it for eps = -1 and `_exists(k, d, set())` for eps = +1."""
    reps = class_representatives(p)
    occur = {
        (k, scalars._local_class(prod(ds), p), scalars._hasse(ds, p))
        for k in range(5)
        for ds in itertools.combinations_with_replacement(reps, k)
    }
    return [
        (k, d, eps)
        for k, d, eps in itertools.product(range(5), reps, (1, -1))
        if ((k, scalars._local_class(d, p), eps) in occur)
        != forms._exists(k, d, {p} if eps == -1 else set())
    ]


def test_local_existence_on_every_form_of_dimension_at_most_4():
    faults = {p: found for p in (0, 2, 3, 5, 7) if (found := existence_faults(p))}
    assert faults == {}


def test_hilbert_symbol_properties():
    """Bimultiplicativity, symmetry and (a, -a) = 1 on every triple of
    class representatives at each place, the real one included."""
    for v in (0, 2, 3, 5, 7):
        for a, b, c in itertools.product(class_representatives(v), repeat=3):
            assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
            assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a, -a, v) == 1


def test_hilbert_product_formula():
    rng = random.Random(3)
    pool = [1, -1, 2, -2, 3, -3, 5, -5, 6, 7, 15, -21, Q(5, 6)]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_local_facts_factor_nothing(monkeypatch):
    """Hilbert symbols, local squares and rational squares read valuations,
    units and integer square roots, so a product of two 14-digit primes,
    past rho's step budget, is answered without `factor`."""
    p, q = next_prime(10**13), next_prime(2 * 10**13)
    n = p * q

    def refuse(m):
        raise AssertionError(f"factor({m}) called")

    monkeypatch.setattr(scalars, "factor", refuse)
    assert not is_square(n) and is_square(n * n) and is_square(Q(n * n, 4))
    for v in (REAL, 2, 3, 5):
        expected = n % 8 == 1 if v == 2 else not v or pow(n, (v - 1) // 2, v) == 1
        assert scalars.is_local_square(n, v) == expected
        assert scalars.is_local_square(n * n, v)
        assert hilbert_symbol(n, -3, v) == hilbert_symbol(p, -3, v) * hilbert_symbol(q, -3, v)


def norm_search(a, k, bound=25):
    """Bounded search for a = x^2 - k y^2 with small rational x, y."""
    for den in range(1, 6):
        for s in range(-bound, bound + 1):
            for t in range(-bound, bound + 1):
                if Q(s * s - k * t * t, den * den) == a:
                    return True
    return False


def test_is_norm_examples():
    assert is_norm_from_K(1, 2)
    assert is_norm_from_K(-1, 2)  # -1 = 1 - 2
    assert not is_norm_from_K(3, -1)  # 3 is not a sum of two squares
    assert is_norm_from_K(Q(9, 2), 2) == norm_search(Q(9, 2), 2)
    with pytest.raises(ValueError):
        is_norm_from_K(3, 4)
    with pytest.raises(ValueError):
        is_norm_from_K(0, 2)


def test_is_norm_against_search():
    rng = random.Random(4)
    ks = [2, -1, 3, -2, 5]
    pool = [1, -1, 2, -2, 3, -3, 4, 7, Q(1, 2), Q(-7, 2), Q(9, 4)]
    for _ in range(60):
        a, k = rng.choice(pool), rng.choice(ks)
        got = is_norm_from_K(a, k)
        if norm_search(a, k):
            assert got
        if got:
            # certified norms of small height should have small witnesses
            assert norm_search(a, k, bound=60)


def test_quadext_field_operations():
    k = Q(3)
    x = QuadExtScalar(2, 5, k)
    y = QuadExtScalar(-1, Q(1, 2), k)
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x * y) / y == x
    assert x * x.inverse() == 1
    assert sqrt_k(k) * sqrt_k(k) == 3
    with pytest.raises(ValueError):
        QuadExtScalar(1, 1, 4)
    with pytest.raises(ValueError):
        x + QuadExtScalar(1, 1, 5)


def test_quadext_conjugation_is_ring_involution():
    rng = random.Random(5)
    k = Q(2)
    for _ in range(40):
        x = QuadExtScalar(rng.randint(-5, 5), rng.randint(-5, 5), k)
        y = QuadExtScalar(rng.randint(-5, 5), rng.randint(-5, 5), k)
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x.conj() == x) == (x.y == 0)
        prod = x * x.conj()
        assert prod.y == 0 and prod.x == x.norm()


def test_relevant_places_cover():
    assert relevant_places(Q(5, 6), 7) == [REAL, 2, 3, 5, 7]


def test_rational_element_hashes_like_its_fraction():
    assert QuadExtScalar(3, 0, 2) == Q(3)
    assert len({QuadExtScalar(3, 0, 2), Q(3)}) == 1


# ---------------------------------------------------------------- Laurent polynomials


def evaluate(p, point):
    """A Laurent polynomial (or a plain number) at {variable: value}."""
    if not isinstance(p, Laurent):
        return p
    total = Q(0)
    for monomial, c in p.terms.items():
        for v, e in monomial:
            c = c * point[v] ** e
        total += c
    return total


def test_laurent_matches_fractions_at_rational_points():
    """Seeded expressions built from variables, Fractions and ints, with
    every operator and its reflection, agree at rational points with the
    same computation done in Fractions."""
    rng = random.Random(6)
    names = ("x", "y", "z")
    for _ in range(40):
        point = {v: Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for v in names}
        pool = [(variable(v), point[v]) for v in names]
        pool += [(Q(c, 2), Q(c, 2)) for c in (-3, 1, 5)] + [(2, Q(2)), (-1, Q(-1))]
        for _ in range(10):
            (p, a), (q, b) = rng.choice(pool), rng.choice(pool)
            monomial = isinstance(p, Laurent) and len(p.terms) == 1
            invertible = len(q.terms) == 1 if isinstance(q, Laurent) else q != 0
            op = rng.choice("+-*/^")
            if op == "+":
                pool.append((p + q, a + b))
            elif op == "-":
                pool.append((p - q, a - b))
            elif op == "/" and invertible:
                pool.append((p / q, a / b))
            elif op == "^":
                e = rng.randint(-2, 3) if monomial else rng.randint(0, 2)
                pool.append((p**e, a**e))
            else:
                pool.append((p * q, a * b))
        for p, a in pool:
            assert evaluate(p, point) == a


def test_laurent_ring_laws_and_monomial_inverse():
    x, y = variable("x"), variable("y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x * (1 / x) == 1 and (3 * x / y) * (y / x) == 3
    assert 1 / (2 * x * y) == Q(1, 2) * x**-1 * y**-1
    assert x - x == 0 and not (x - x) and bool(x)
    assert x != y and x + 1 != x
    with pytest.raises(ValueError):
        1 / (x + y)
    with pytest.raises(ValueError):
        x / (x + 1)
    with pytest.raises(ZeroDivisionError):
        1 / (x - x)


def test_laurent_constant_equals_and_hashes_like_its_fraction():
    k = Q(2)
    for c in (Q(0), Q(3), Q(-7, 4)):
        p = Laurent([((), c)])
        assert p == c and c == p and hash(p) == hash(c)
        assert len({p, c}) == 1
    r = QuadExtScalar(1, 1, k) * QuadExtScalar(1, -1, k)  # rational, -1
    assert Laurent([((), r)]) == -1 and hash(Laurent([((), r)])) == hash(Q(-1))
    x = variable("x")
    assert x * 2 - x - x == 0 and hash(x * 2 - x - x) == hash(Q(0))
    assert hash(x + 1) == hash(1 + x)


def test_laurent_conj_and_scalar_protocol():
    k = Q(3)
    s, x = QuadExtScalar(1, 2, k), variable("x")
    p = s * x + QuadExtScalar(0, 1, k)
    assert p.conj() == iota(p) == s.conj() * x + QuadExtScalar(0, -1, k)
    assert p.conj().conj() == p
    for t in (Q(2), Q(-1, 3)):
        assert evaluate(p.conj(), {"x": t}) == iota(evaluate(p, {"x": t}))
        assert evaluate(p * p.conj(), {"x": t}) == evaluate(p, {"x": t}).norm()
    assert iota(x) == x
    assert as_scalar(p) is p
    assert repr(2 * x * variable("y") ** -1 - 1) == "(-1) + (2)*x*y^-1"
    assert repr(x - x) == "0" and repr(QuadExtScalar(1, 1, k) * x) == "(1+1*sqrt(3))*x"
    assert repr(QuadExtScalar(1, -1, k) * x) == "(1-1*sqrt(3))*x"
    assert repr(QuadExtScalar(0, -1, 2)) == "0-1*sqrt(2)" and repr(QuadExtScalar(1, Q(-1, 2), k)) == "1-1/2*sqrt(3)"


# ---------------------------------------------------------------- number theory


def sieve(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return flags


def test_is_prime_matches_a_sieve():
    flags = sieve(10**5)
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if flags[n]
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime((2**61 - 1) * (2**31 - 1))


def test_is_prime_proves_or_raises():
    big = 2**89 - 1  # prime, past the bound of the Miller-Rabin bases
    with pytest.raises(ValueError, match="27-digit"):
        is_prime(big)
    assert not is_prime(big * (2**61 - 1))  # a composite is still refuted
    with pytest.raises(ValueError, match="27-digit"):
        factor(big)


def test_next_prime():
    assert [next_prime(n) for n in (-5, 0, 1, 2, 13, 24)] == [2, 2, 2, 3, 17, 29]
    assert next_prime(10**12) == 10**12 + 39


def test_factor_matches_trial_division():
    """Seeded products of primes below 10^12, some squared or cubed, against
    the primes they were built from; each of those is proved prime by trial
    division up to its square root.  The square of a 16-digit prime, past
    rho's reach, is split by `_root` alone."""
    flags = sieve(10**6)
    small = [p for p in range(10**6) if flags[p]]

    def trial_prime(n):
        divisors = itertools.takewhile(lambda p: p * p <= n, small)
        return n > 1 and all(n % p for p in divisors)

    rng = random.Random(12)
    assert factor(1) == {}
    p = next_prime(10**15)
    assert factor(p**2) == {p: 2}
    for _ in range(80):
        n, want = 1, {}
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(2, 10 ** rng.randint(1, 12))
            while not trial_prime(p):
                p += 1
            e = rng.choice((1, 1, 1, 2, 3))
            n *= p**e
            want[p] = want.get(p, 0) + e
        assert factor(n) == want


def test_root_is_the_floor_kth_root():
    """_root(m, k) is the r with r^k <= m < (r + 1)^k, on seeded m up to
    10^40, exact k-th powers and their neighbours included."""
    rng = random.Random(161)
    for _ in range(200):
        m = rng.randint(1, 10 ** rng.randint(1, 40))
        for k in range(2, 9):
            power = scalars._root(m, k) ** k
            for n in (m, power, power - 1, power + 1):
                if n >= 1:
                    r = scalars._root(n, k)
                    assert r**k <= n < (r + 1) ** k, (n, k)


def test_sqrt_mod_squarefree():
    """A root exactly when a is a square modulo every prime of n."""
    rng = random.Random(4)
    for _ in range(200):
        primes = rng.sample([2, 3, 5, 7, 11, 13, 101, 1009, 10007], rng.randint(1, 4))
        n = 1
        for p in primes:
            n *= p
        a = rng.randrange(-n, n)
        t = sqrt_mod(a, n)
        squares = all(any((x * x - a) % p == 0 for x in range(p)) for p in primes)
        assert (t is not None) == squares
        assert t is None or (t * t - a) % n == 0
