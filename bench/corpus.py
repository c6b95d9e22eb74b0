"""Seeded inputs: the `witt_corpus` forms and the `cli_cold` invocation list.

Everything here is a pure function of the seed.  A corpus form is handed to
the program only as a form literal (the grammar of `quadalg form`); its
expected properties travel beside it and never reach the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Small primes keep factorization prompt (see the FOUND line on unbounded
# factorization in CHANGES.md); the odd larger ones give the Hilbert-symbol
# code primes that occur in one entry only.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
RARE_PRIMES = (31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

CORPUS_SIZE = 240  # a whole number of cycles of kind (5), dimension (16) and reuse rate (3)
KINDS = ("small_core", "definite_core", "hyperbolic", "twisted_difference", "pfister_sum")


@dataclass(frozen=True)
class Entry:
    """A nonzero rational sign * core * (num/den)^2 with a squarefree core."""

    sign: int
    primes: tuple[int, ...]  # the squarefree core, as its prime set
    num: int = 1
    den: int = 1

    def literal(self) -> str:
        core = 1
        for p in self.primes:
            core *= p
        n = self.sign * core * self.num * self.num
        d = self.den * self.den
        return str(n) if d == 1 else f"{n}/{d}"

    def rescaled(self, rng: random.Random) -> "Entry":
        """The same square class with a different square factor."""
        return Entry(self.sign, self.primes, rng.randint(1, 6), rng.choice((1, 1, 2, 3)))

    def negated(self) -> "Entry":
        return Entry(-self.sign, self.primes, self.num, self.den)


@dataclass(frozen=True)
class CorpusForm:
    kind: str
    literal: str
    entries: tuple[Entry, ...]  # the diagonal the literal expands to
    pfister_n: int = 0  # for pfister_sum: the form lies in I^n
    core_dim: int = 0  # for random kinds: the dimension of the core


@dataclass
class _EntrySource:
    """Draws entries, reusing earlier ones at a per-form rate so that the
    program's square-class cache sees a seeded mix of hits and misses."""

    rng: random.Random
    seen: list[Entry] = field(default_factory=list)

    def fresh(self) -> Entry:
        rng = self.rng
        n_primes = rng.choices((0, 1, 2, 3), weights=(2, 4, 3, 1))[0]
        pool = PRIMES + RARE_PRIMES if rng.random() < 0.2 else PRIMES
        primes = tuple(sorted(rng.sample(pool, n_primes)))
        num = rng.choice((1, 1, 1, 2, 3, 5))
        den = rng.choice((1, 1, 1, 1, 2, 3))
        e = Entry(rng.choice((1, -1)), primes, num, den)
        self.seen.append(e)
        return e

    def draw(self, reuse: float) -> Entry:
        if self.seen and self.rng.random() < reuse:
            return self.rng.choice(self.seen)
        return self.fresh()


def _literal(entries) -> str:
    return "<" + ",".join(e.literal() for e in entries) + ">"


def _pairs(src: _EntrySource, reuse: float, m: int) -> list[Entry]:
    """m hyperbolic planes a<1,-1>, each entry independently square-rescaled."""
    out = []
    for _ in range(m):
        a = src.draw(reuse)
        out += [a.rescaled(src.rng), a.negated().rescaled(src.rng)]
    return out


def _signed(e: Entry, sign: int) -> Entry:
    return Entry(sign, e.primes, e.num, e.den)


def _small_core(src: _EntrySource, reuse: float, dim: int, variant: int) -> CorpusForm:
    """Hyperbolic planes around a core of dimension at most 3.  Every other
    odd-dimensional core is isotropic by construction, sign * <a, b, -c>
    with c = a s^2 + b t^2, which leaves a one-dimensional anisotropic part;
    the rest have random entries and signs."""
    core_dim = 2 + dim % 2 if dim >= 3 else dim
    if core_dim == 3 and variant % 2 == 0:
        rng = src.rng
        a, b = (_signed(src.draw(reuse), 1) for _ in range(2))
        c = entry_value(a) * rng.randint(1, 4) ** 2 + entry_value(b) * rng.randint(1, 4) ** 2
        sign = rng.choice((1, -1))
        core = [_signed(a, sign), _signed(b, sign), _entry_of(-sign * c)]
        return _cored("isotropic_core", src, reuse, dim, core)
    return _cored("small_core", src, reuse, dim, [src.draw(reuse) for _ in range(core_dim)])


def entry_value(e: Entry) -> Fraction:
    core = 1
    for p in e.primes:
        core *= p
    return Fraction(e.sign * core * e.num * e.num, e.den * e.den)


def _entry_of(x: Fraction) -> Entry:
    """Write a nonzero rational as an Entry, by trial division."""
    sign = 1 if x > 0 else -1
    n = abs(x.numerator) * x.denominator  # same square class as |x|
    primes, square, p = [], 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            square *= p
        if n % p == 0:
            n //= p
            primes.append(p)
        p += 1
    if n > 1:
        primes.append(n)
    # x = sign * core * square^2 / den^2
    return Entry(sign, tuple(primes), square, x.denominator)


def _definite_core(src: _EntrySource, reuse: float, dim: int, variant: int) -> CorpusForm:
    """Hyperbolic planes around a definite core of any dimension."""
    core_dim = dim - 2 * (variant % ((dim + 1) // 2))
    sign = src.rng.choice((1, -1))
    core = [_signed(src.draw(reuse), sign) for _ in range(core_dim)]
    return _cored("definite_core", src, reuse, dim, core)


def _cored(kind, src, reuse, dim, core) -> CorpusForm:
    entries = core + _pairs(src, reuse, (dim - len(core)) // 2)
    src.rng.shuffle(entries)
    return CorpusForm(kind, _literal(entries), tuple(entries), core_dim=len(core))


def _hyperbolic(src: _EntrySource, reuse: float, dim: int, variant: int) -> CorpusForm:
    """A sum of a<1,-1> written with independently square-rescaled entries."""
    entries = tuple(_pairs(src, reuse, max(1, dim // 2)))
    return CorpusForm("hyperbolic", _literal(entries), entries)


def _twisted_difference(src: _EntrySource, reuse: float, dim: int, variant: int) -> CorpusForm:
    """q + (-q') with q' a square-rescaled permutation of q: Witt-trivial."""
    q = [src.draw(reuse) for _ in range(max(1, dim // 2))]
    q2 = [e.rescaled(src.rng).negated() for e in q]
    src.rng.shuffle(q2)
    entries = tuple(q + q2)
    return CorpusForm("twisted_difference", _literal(entries), entries)


# A square slot: <<1, ...>> is hyperbolic.
_SQUARE = Entry(1, ())


def _pfister_sum(src: _EntrySource, reuse: float, dim: int, variant: int) -> CorpusForm:
    """A sum of scaled n-fold Pfister forms, which lies in I^n.  Terms
    alternate between definite of the form's sign (negative slots) and
    split (one slot a nonzero square)."""
    rng = src.rng
    n = 1 + variant % 4
    sign = rng.choice((1, -1))
    terms, entries = [], []
    for j in range(max(1, dim >> n)):
        slots = [src.draw(reuse) for _ in range(n)]
        scale = src.draw(reuse)
        if (j + variant) % 2 == 0:
            slots = [_signed(a, -1) for a in slots]
            scale = _signed(scale, sign)
        else:
            slots[rng.randrange(n)] = _SQUARE.rescaled(rng)
        terms.append(f"{scale.literal()}*<<" + ",".join(s.literal() for s in slots) + ">>")
        entries += _pfister_entries(scale, slots)
    return CorpusForm("pfister_sum", " + ".join(terms), tuple(entries), pfister_n=n)


def _mul(x: Entry, y: Entry) -> Entry:
    """Product of two entries (the square factor is kept exactly)."""
    common = set(x.primes) & set(y.primes)
    primes = tuple(sorted(set(x.primes) ^ set(y.primes)))
    num, den = x.num * y.num, x.den * y.den
    for p in common:
        num *= p
    return Entry(x.sign * y.sign, primes, num, den)


def _pfister_entries(scale: Entry, slots) -> list[Entry]:
    """c<<a1,...,an>> = c * tensor of <1,-a_i>."""
    out = [scale]
    for a in slots:
        out = out + [_mul(e, a.negated()) for e in out]
    return out


_BUILDERS = {
    "small_core": _small_core,
    "definite_core": _definite_core,
    "hyperbolic": _hyperbolic,
    "twisted_difference": _twisted_difference,
    "pfister_sum": _pfister_sum,
}
REUSE_RATES = (0.0, 0.5, 0.9)


def witt_corpus(seed: int, size: int = CORPUS_SIZE) -> list[CorpusForm]:
    """`size` forms in a seeded order, then the fixed indefinite cores.
    Kind, dimension (1..16), entry reuse rate and the kind's own shape
    parameter follow a fixed schedule, so every seed gets the same mix of
    shapes; the seed picks the entries and the order."""
    rng = random.Random(seed)
    src = _EntrySource(rng)
    shapes = [
        (KINDS[i % len(KINDS)], 1 + i % 16, REUSE_RATES[i % len(REUSE_RATES)], i // len(KINDS))
        for i in range(size)
    ]
    rng.shuffle(shapes)
    return [_BUILDERS[kind](src, reuse, dim, variant) for kind, dim, reuse, variant in shapes] + INDEFINITE


# The seeded kinds keep every core definite or of dimension at most 3, so
# that no form of theirs meets the witness-search fault named in CHANGES.md
# and `failed` does not depend on the seed.  These indefinite cores of
# dimension 4..6 are the same for every seed and drive the general witness
# search in forms (ternary subforms, the common-value split); the ones that
# meet the fault fail on every run.  The first is the fault's reported case.
_FAULT_CASE = (Entry(-1, (17,), 1, 3), Entry(1, (2, 11, 23), 5, 2), Entry(-1, (17,), 5, 3), Entry(1, (7,), 1, 2))
INDEFINITE_SIZE = 24
INDEFINITE_SEED = 1


def _indefinite_cores() -> list[CorpusForm]:
    forms = [CorpusForm("indefinite_core", _literal(_FAULT_CASE), _FAULT_CASE, core_dim=len(_FAULT_CASE))]
    src = _EntrySource(random.Random(INDEFINITE_SEED))
    for i in range(INDEFINITE_SIZE):
        while True:
            core = [src.fresh() for _ in range(4 + i % 3)]
            if len({e.sign for e in core}) == 2:
                break
        forms.append(CorpusForm("indefinite_core", _literal(core), tuple(core), core_dim=len(core)))
    return forms


INDEFINITE = _indefinite_cores()


# --------------------------------------------------------------------------
# cli_cold


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    malformed: bool = False


# The embedding of A1 into A3 as the block-diagonal SL2 (Rost multiplier 2);
# only a readable file is needed, for the call that omits --source.
EMBEDDING = [[1], [0], [1]]


def cli_invocations(workdir: str) -> list[Invocation]:
    """The fixed invocation list; file arguments point into `workdir`."""
    missing = f"{workdir}/missing.json"
    emb = f"{workdir}/embedding.json"
    return [
        Invocation("form_Q", ("form", "7H + <1>", "--json")),
        Invocation("form_R", ("form", "<<-1,-1,-1,-1>>", "--field", "R", "--json")),
        Invocation("hermitian", ("hermitian", "<1,-1,2>", "--k", "3", "--json")),
        Invocation("fold_E6", ("rootsys", "--type", "E6", "--fold", "--json")),
        Invocation("fold_D4", ("rootsys", "--type", "D4", "--fold", "triality", "--json")),
        Invocation("cocycle", ("cayley", "--cocycle", "1", "3", "1/3", "--json")),
        Invocation("descend_k", ("descend", "--k", "2")),
        Invocation("descend_ka", ("descend", "--k", "2", "--a", "3")),
        Invocation(
            "verify_only",
            ("verify-paper", "--only", "P14", "--json", f"{workdir}/verify_P14.json"),
        ),
        Invocation("bad_triple", ("cayley", "--triple", missing), True),
        Invocation(
            "bad_embedding", ("rootsys", "--type", "A3", "--embedding", missing, "--source", "A1"), True
        ),
        Invocation("no_source", ("rootsys", "--type", "A3", "--embedding", emb), True),
    ]
