"""Laurent polynomials against a naive reference kept here: terms keyed by
sorted (variable, exponent) tuples, a monomial product summed in a dict and
sorted again, a power made by repeated multiplication.  Seeded expressions
over 72 variables, one monomial of all of them given in a shuffled order,
must agree on terms, repr, equality, hash, conj, products, inverses and
powers; and an exponent of any size is exact."""

import random
from fractions import Fraction as Q

import pytest

from quadalg.scalars import Laurent, QuadExtScalar, div, iota, rat, variable

N_VARIABLES = 72


class Reference:
    """The naive Laurent polynomial: {monomial: c}, each monomial a sorted
    tuple of (variable, nonzero exponent) pairs, built from monomials
    already in that form."""

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
    """The same polynomial, as a Laurent and as the reference, from random pairs
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
def test_laurent_agrees_with_the_naive_reference(seed):
    rng = random.Random(seed)
    names = [f"w{seed}_{i}" for i in range(N_VARIABLES)]
    order = names[:]
    rng.shuffle(order)  # a monomial's pairs may come in any order
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


def test_a_monomial_power_is_one_step():
    x = variable("x")
    assert x**100000 == Laurent([((("x", 100000),), 1)])
    assert (2 * x) ** 3 == 8 * x * x * x and (2 * x) ** -2 == Q(1, 4) / (x * x)
    assert (x * variable("y") ** -2) ** 0 == 1 and (3 * x) ** 0 == 1


def test_an_exponent_of_any_size_is_exact():
    x, y = variable("x"), variable("y")
    big = 1 << 40
    assert x**big * x**-big == 1
    assert (x**big).terms == {(("x", big),): 1}
    assert Laurent([((("x", 10**30), ("x", -(10**30) + 1)), 1)]) == x
    half = 1 << 22
    p = (x ** (half + 1) + y) * x**-half
    assert p.terms == {(("x", 1),): 1, (("x", -half), ("y", 1)): 1}
    assert p * x**-1 == 1 + y * x ** (-half - 1)
    assert (x**half + y) ** 2 == x ** (2 * half) + 2 * x**half * y + y * y


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
