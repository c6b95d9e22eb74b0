"""The packed Laurent polynomial against the tuple-keyed one it replaced,
kept here as the reference: terms keyed by sorted (variable, exponent)
tuples, a monomial product merged variable by variable, a power made by
repeated multiplication.  Seeded expressions over more variables than one
machine word holds fields for, met in a different order on every seed,
must agree on terms, repr, equality, hash, conj, products, inverses and
powers; and an exponent past the packed bound raises on every path."""

import random
from fractions import Fraction as Q

import pytest

from quadalg import scalars
from quadalg.scalars import EXPONENT_BOUND, Laurent, QuadExtScalar, div, iota, rat, variable

N_VARIABLES = 72  # 72 fields of 24 bits: 27 words of 64 bits


class Reference:
    """The tuple-keyed Laurent polynomial: {monomial: c}, each monomial a
    sorted tuple of (variable, nonzero exponent) pairs."""

    def __init__(self, pairs=()):
        terms = {}
        for m, c in pairs:
            terms[m] = terms[m] + c if m in terms else c
        self.terms = {m: rat(c) for m, c in terms.items() if c}

    def __add__(self, other):
        return Reference([*self.terms.items(), *other.terms.items()])

    def __mul__(self, other):
        return Reference(
            (monomial_product(m, n), c * d)
            for m, c in self.terms.items()
            for n, d in other.terms.items()
        )

    def __neg__(self):
        return Reference((m, -c) for m, c in self.terms.items())

    def inverse(self):
        ((m, c),) = self.terms.items()
        return Reference([(tuple((v, -e) for v, e in m), div(1, c))])

    def power(self, n: int):
        base = self if n >= 0 else self.inverse()
        out = Reference([((), 1)])
        for _ in range(abs(n)):
            out = out * base
        return out

    def conj(self):
        return Reference((m, iota(c)) for m, c in self.terms.items())

    def hash(self) -> int:
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def repr(self) -> str:
        return " + ".join(
            "*".join([f"({c})"] * (c != 1 or not m) + [v if e == 1 else f"{v}^{e}" for v, e in m])
            for m, c in sorted(self.terms.items())
        ) or "0"


def monomial_product(m: tuple, n: tuple) -> tuple:
    exps = dict(m)
    for v, e in n:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


K = Q(3)


def random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    x = Q(rng.randint(-9, 9), rng.randint(1, 4))
    if kind == 1:
        return rat(x) or 1
    return QuadExtScalar(x, Q(rng.randint(-3, 3), rng.randint(1, 3)), K)


def random_monomial(rng, names, width):
    chosen = rng.sample(names, rng.randint(0, width))
    return tuple(sorted((v, rng.choice([-3, -2, -1, 1, 2, 3])) for v in chosen))


def random_pair(rng, names, terms=4, width=5):
    """The same polynomial, packed and as the reference, from random pairs
    (a monomial may repeat, and coefficients may cancel)."""
    pairs = [(random_monomial(rng, names, width), random_coefficient(rng)) for _ in range(rng.randint(0, terms))]
    if pairs and rng.random() < 0.3:
        pairs.append((pairs[0][0], -pairs[0][1]))
    return Laurent(pairs), Reference(pairs)


def agree(p, ref) -> None:
    assert type(p) is Laurent
    assert p.terms == ref.terms
    assert repr(p) == ref.repr()
    assert hash(p) == ref.hash()
    assert bool(p) == bool(ref.terms)


@pytest.mark.parametrize("seed", range(6))
def test_packed_laurent_agrees_with_the_tuple_keyed_reference(seed):
    rng = random.Random(seed)
    names = [f"w{seed}_{i}" for i in range(N_VARIABLES)]
    order = names[:]
    rng.shuffle(order)  # fields are given in first-use order, here shuffled
    everything = Laurent([(tuple((v, 1) for v in order), 1)])
    assert everything.terms == {tuple(sorted((v, 1) for v in names)): 1}

    pool = [random_pair(rng, names) for _ in range(8)]
    pool.append((everything, Reference([(tuple(sorted((v, 1) for v in names)), 1)])))
    for _ in range(60):
        (p, rp), (q, rq) = rng.choice(pool), rng.choice(pool)
        size = len(rp.terms)
        op = rng.choice("+-*cin")
        if op == "+":
            pool.append((p + q, rp + rq))
        elif op == "-":
            pool.append((p - q, rp + -rq))
        elif op == "*" and size * len(rq.terms) <= 64:
            pool.append((p * q, rp * rq))
        elif op == "c":
            pool.append((p.conj(), rp.conj()))
        elif size == 1:  # an inverse or a power of a monomial
            n = -1 if op == "i" else rng.randint(-3, 4)
            pool.append((p**n, rp.power(n)))
        elif size <= 4:
            n = rng.randint(0, 3)
            pool.append((p**n, rp.power(n)))
    for p, rp in pool:
        agree(p, rp)
        agree(Laurent(rp.terms.items()), rp)  # the view round-trips
    for (p, rp), (q, rq) in zip(pool, pool[1:] + pool[:1]):
        assert (p == q) == (rp.terms == rq.terms)
        assert p == Laurent(reversed(list(rp.terms.items())))  # order of pairs does not matter


def test_a_monomial_power_is_one_step_and_within_the_bound():
    x = variable("x")
    assert x**100000 == Laurent([((("x", 100000),), 1)])
    assert (2 * x) ** 3 == 8 * x * x * x and (2 * x) ** -2 == Q(1, 4) / (x * x)
    assert x**EXPONENT_BOUND * x**-EXPONENT_BOUND == 1
    for n in (EXPONENT_BOUND + 1, -EXPONENT_BOUND - 1, 10**30):
        with pytest.raises(OverflowError):
            x**n
        with pytest.raises(OverflowError):  # before the coefficient's power is formed
            (QuadExtScalar(1, 1, 2) * x) ** n
    with pytest.raises(OverflowError):
        Laurent([((("x", EXPONENT_BOUND + 1),), 1)])


def test_a_product_past_the_bound_raises_and_one_below_it_is_exact():
    x, y = variable("x"), variable("y")
    half = 1 << 22  # two polynomials of bound 2^22: their product may reach 2^23
    with pytest.raises(OverflowError):
        x**half * x**half
    with pytest.raises(OverflowError):
        (x**half + y) ** 2  # by repeated squaring
    with pytest.raises(OverflowError):
        x**EXPONENT_BOUND * x
    # the bounds add up past the field, the exponents do not: unpacked, exact
    p = (x ** (half + 1) + y) * x**-half
    assert p.terms == {(("x", 1),): 1, (("x", -half), ("y", 1)): 1}
    assert p * x**-1 == 1 + y * x ** (-half - 1)


def test_a_power_of_a_polynomial_is_repeated_squaring():
    x, y = variable("x"), variable("y")
    p = x + 2 * y - 1
    want = Laurent([((), 1)])
    for n in range(7):
        assert p**n == want
        want = want * p
    with pytest.raises(ValueError):
        p**-1
    with pytest.raises(ZeroDivisionError):
        (x - x) ** -1
    assert (x - x) ** 0 == 1


def test_keys_add_and_negate():
    """Products, inverses and powers of monomials are key arithmetic."""
    x, y = variable("x"), variable("y")
    (kx,), (ky,) = x._terms, y._terms
    assert set((x * y**-2)._terms) == {kx - 2 * ky}
    assert set((1 / x)._terms) == {-kx} and set((x**5)._terms) == {5 * kx}
    assert scalars._unpack(kx - 2 * ky) == (("x", 1), ("y", -2))
