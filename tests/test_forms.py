import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction as Q
from math import isqrt, prod

import pytest

from quadalg import forms, scalars
from quadalg.forms import (
    DiagonalForm,
    HermitianDiagonal,
    HypothesisViolation,
    arason_trivial,
    direct_sum,
    form,
    form_literal,
    hermitian_hyperbolic,
    hyperbolic,
    in_power_I,
    invariants,
    is_isotropic,
    isometric,
    low_rank_kernel_check,
    parse_form,
    pfister,
    scale,
    signature,
    trace_form,
    witt_decompose,
    witt_equivalent,
    witt_trivial,
)
from quadalg.exactmat import diagonal, diagonalize, freeze, pairing
from quadalg.scalars import Place, REAL, div, hilbert_symbol, relevant_places, square_class

import witness_chain  # the isotropic-vector chain, kept as a reference
from witness_chain import isotropic_vector
from reference import in_k_witt_ideal, isometric_over_K, pairwise_hasse, reference_isotropic_at, tensor
from reference import reference_in_power_I_over_R, reference_witt_trivial

SMALL = [1, -1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10, -15, 30]


def form_value(q, v):
    """q(v) for the diagonal form q."""
    return pairing(diagonal(q.entries), v, v)


def rnd_form(rng, dim, field="Q"):
    return DiagonalForm(
        field,
        tuple(Q(rng.choice(SMALL)) * rng.choice([1, 4, 9]) for _ in range(dim)),
    )


# ---------------------------------------------------------------- algebra ops


def test_construction_rules():
    with pytest.raises(ValueError):
        form([1, 0])
    with pytest.raises(ValueError):
        DiagonalForm("C", (Q(1),))
    with pytest.raises(ValueError):
        direct_sum(form([1]), form([1], field="R"))
    with pytest.raises(ValueError):
        scale(0, form([1]))
    # entries are canonical: an int when integral, a bool read as its int
    q = form([True, Q(4, 2), Q(1, 2), "-3"])
    assert [(a, type(a)) for a in q.entries] == [(1, int), (2, int), (Q(1, 2), Q), (-3, int)]


def test_pfister_examples():
    assert pfister(-1).entries == (1, 1)
    phi = pfister(-1, -1, -1, -1, field="R")
    assert phi.dim == 16 and all(a == 1 for a in phi.entries)
    assert tensor(form([1, -1]), form([5])).entries == (5, -5)
    assert isometric(tensor(form([1, -1]), form([5])), hyperbolic(1))
    slots, chain = (2, Q(-3, 4), 5), form([1])
    for a in slots:
        chain = tensor(chain, form([1, -a]))
    assert pfister(*slots).entries == chain.entries  # in the order of `tensor`


def test_invariants_examples():
    hyp = invariants(parse_form("<1,-1>"))
    assert (hyp.dim, hyp.disc, hyp.hasse, hyp.signature) == (2, 1, set(), 0)
    q23 = invariants(form([2, 3]))
    assert q23.disc == -6
    assert Place(3) in q23.hasse
    phi = pfister(-1, -1, -1, -1, field="R")
    q_alpha = scale(-1, DiagonalForm("R", phi.entries[1:]))
    assert invariants(q_alpha).disc == 1


def test_real_invariants_see_only_signs():
    """Over R the discriminant lives in R*/R*^2 = {+1, -1}: isometric forms
    get equal invariants, and no entry is factored."""
    assert invariants(form([2], "R")) == invariants(form([1], "R"))
    assert invariants(form([-3, 5], "R")) == invariants(form([-1, 1], "R"))
    assert invariants(form([-3, 5], "R")).disc == 1
    huge = 200000000000950000000000777  # two 14-digit primes
    assert invariants(form([huge, -1], "R")).disc == 1
    rng = random.Random(11)
    for _ in range(30):
        q = rnd_form(rng, rng.randint(0, 8), "R")
        signs = form([1 if a > 0 else -1 for a in q.entries], "R")
        assert isometric(q, signs)
        assert invariants(q) == invariants(signs)


def test_invariants_are_isometry_invariants():
    rng = random.Random(0)
    for _ in range(30):
        q = rnd_form(rng, rng.randint(1, 7))
        entries = list(q.entries)
        rng.shuffle(entries)
        scaled = [a * rng.choice([1, 4, Q(1, 4), 9]) for a in entries]
        assert invariants(q) == invariants(form(scaled))


# ---------------------------------------------------------------- isotropy


def test_isotropy_examples():
    assert not is_isotropic(form([1, 1, 1]))
    assert not is_isotropic(form([1, -2]))
    assert is_isotropic(form([1, 1, 1, 1, -7]))
    assert is_isotropic(form([1, -1]))
    assert not is_isotropic(form([1, 1, 1], "R"))
    assert is_isotropic(form([1, 1, -1], "R"))
    assert not is_isotropic(form([1, 5, -2, -10]))  # the (2,-5) quaternion norm


def test_isotropic_vector_is_a_witness():
    rng = random.Random(1)
    found = 0
    while found < 40:
        q = rnd_form(rng, rng.randint(2, 9))
        if not is_isotropic(q):
            continue
        v = isotropic_vector(q)
        assert any(bool(x) for x in v)
        assert form_value(q, v) == 0
        found += 1


def test_isotropic_vector_over_r_is_a_rational_zero_or_refused():
    q = form([1, -4], "R")
    v = isotropic_vector(q)
    assert any(v) and form_value(q, v) == 0
    for entries in ([2, -1], [2, -3, 5]):
        q = form(entries, "R")
        assert is_isotropic(q)
        with pytest.raises(ValueError, match="isotropic over R but has no rational isotropic vector"):
            isotropic_vector(q)


# the form whose witness took 43,399 `next_prime` calls in a prime walk
WALK_FORM = form([-195199, 9035, 685499, 4503])


def test_isotropic_vector_solves_for_the_split_class_without_a_prime_walk(monkeypatch):
    calls = []
    real = forms.next_prime
    monkeypatch.setattr(forms, "next_prime", lambda n: calls.append(n) or real(n))
    v = isotropic_vector(WALK_FORM)
    assert any(v) and form_value(WALK_FORM, v) == 0
    assert 0 < len(calls) <= 100


def has_isotropic_ternary_subform(ds):
    return any(
        all(reference_isotropic_at(sub, v) for v in relevant_places(-1, *sub))
        for sub in itertools.combinations(ds, 3)
    )


def split_forms(seed, count):
    """Isotropic forms of dimension 4, 5 and 6 in turn, with squarefree
    entries of three primes below 200 and no isotropic ternary subform, so
    that every witness is split through a class."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ds = [rng.choice((1, -1)) * prod(rng.sample(HARSH_PRIMES, 3)) for _ in range(4 + len(out) % 3)]
        q = form(ds)
        if is_isotropic(q) and not has_isotropic_ternary_subform(ds):
            out.append(q)
    return out


def test_isotropic_vector_splits_forms_with_no_isotropic_ternary_subform(monkeypatch):
    """Each step of the split is taken: dimension 4 solves for its class
    over F2, dimension 5 takes a value of its head and solves the
    quaternary rest, and a longer form keeps five of its entries first."""
    steps = []
    chain, solve = witness_chain._isotropic_vector_squarefree, witness_chain._f2_solve
    monkeypatch.setattr(witness_chain, "_isotropic_vector_squarefree", lambda ds: steps.append(len(ds)) or chain(ds))
    monkeypatch.setattr(witness_chain, "_f2_solve", lambda *args: steps.append("F2") or solve(*args))
    for q in split_forms(17, 15):
        start = len(steps)
        v = isotropic_vector(q)
        assert any(v) and form_value(q, v) == 0, q
        # the dimensions the chain was called with, then the F2 solves
        assert steps[start] == q.dim and set(steps[start + 1 :]) <= {4, "F2"}
    walk = list(zip(steps, steps[1:]))
    assert (4, "F2") in walk and (5, 4) in walk and (6, 4) in walk


def holzer_zero(a, b, c):
    """Reference zero of a normalized ternary ax^2 + by^2 + cz^2 by
    enumeration: a solvable one has a zero with each |x_i| at most the
    square root of the product of the other two coefficients (Holzer).
    The two coordinates with the smallest bounds are iterated and the third
    solved for; None when there is no zero."""
    order = sorted(range(3), key=lambda i: abs((a, b, c)[i]))
    co = [(a, b, c)[i] for i in order]  # |co[0]| <= |co[1]| <= |co[2]|
    bound_mid = isqrt(abs(co[0] * co[2]))
    bound_big = isqrt(abs(co[0] * co[1]))
    for s_big in range(bound_big + 1):
        for s_mid in range(bound_mid + 1):
            if s_mid == s_big == 0:
                continue
            num, r = divmod(-(co[1] * s_mid * s_mid + co[2] * s_big * s_big), co[0])
            if r == 0 and num >= 0 and isqrt(num) ** 2 == num:
                w = [0, 0, 0]
                w[order[0]], w[order[1]], w[order[2]] = isqrt(num), s_mid, s_big
                return tuple(w)
    return None


MIXED_SIGNS = [s for s in itertools.product((1, -1), repeat=3) if len(set(s)) == 2]


def normalized_ternaries(rng, count):
    """Distinct squarefree, pairwise coprime, mixed-sign coefficient
    triples built from the primes below 100."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    out = set()
    while len(out) < count:
        cs = [1, 1, 1]
        for p in rng.sample(primes, rng.randint(0, 4)):
            cs[rng.randrange(3)] *= p
        signs = rng.choice(MIXED_SIGNS)
        out.add(tuple(s * x for s, x in zip(signs, cs)))
    return sorted(out)


def test_legendre_solver_matches_holzer_enumeration():
    """The same verdict as the enumeration, an exact zero, and a zero near
    Holzer's bound: within 2 sqrt of the product of the other two
    coefficients (Mordell's reduction gives 2/sqrt(3))."""
    rng = random.Random(5)
    solvable = 0
    for a, b, c in normalized_ternaries(rng, 2000):
        w = witness_chain._legendre_equation_zero(a, b, c)
        assert (w is None) == (holzer_zero(a, b, c) is None), (a, b, c)
        if w is None:
            continue
        solvable += 1
        assert any(w) and a * w[0] ** 2 + b * w[1] ** 2 + c * w[2] ** 2 == 0
        co = (a, b, c)
        for i in range(3):
            j, k = (m for m in range(3) if m != i)
            assert w[i] ** 2 <= 4 * abs(co[j] * co[k]), (a, b, c, w)
    assert 500 < solvable < 1500


def test_witt_decompose_examples():
    idx, an = witt_decompose(form([1, -1, 2]))
    assert idx == 1 and an.entries == (2,)
    idx, an = witt_decompose(pfister(-1, -1))
    assert idx == 0 and an.dim == 4
    assert witt_decompose(form([1, 1, 1, 1], "R")) == (0, form([1, 1, 1, 1], "R"))
    assert witt_decompose(form([1, 1, -1], "R")) == (1, form([1], "R"))
    idx, an = witt_decompose(parse_form("<2,3,-5,7,11,-13,17,19,-23,29,31,37,-41,43,47,53>"))
    assert f"{idx}H + {form_literal(an)}" == "4H + <2,2,2,2,2,2,38019,857180843188670>"


def test_witt_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        q = rnd_form(rng, rng.randint(1, 12))
        idx, an = witt_decompose(q)
        assert not is_isotropic(an)
        assert isometric(direct_sum(hyperbolic(idx), an), q)


# isotropic forms with no isotropic ternary subform, whose witness is split
# through a class that both halves represent
FAULT_FORMS = ("<-17/9,12650/4,-425/9,7/4>", "<9,267/4,1,-188/4>")
HARD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def hard_form(rng):
    """An indefinite form of dimension 4..6 whose entries carry up to three
    primes below 54 times a rational square."""
    while True:
        entries = []
        for _ in range(rng.randint(4, 6)):
            core = 1
            for p in rng.sample(HARD_PRIMES, rng.randint(0, 3)):
                core *= p
            square = Q(rng.randint(1, 3), rng.randint(1, 3)) ** 2
            entries.append(rng.choice((1, -1)) * core * square)
        if min(entries) < 0 < max(entries):
            return form(entries)


def assert_witt_split(q):
    idx, an = witt_decompose(q)
    assert not is_isotropic(an)
    assert isometric(direct_sum(hyperbolic(idx), an), q)
    return idx, an


@pytest.mark.parametrize("literal", FAULT_FORMS)
def test_witt_decompose_fault_forms(literal):
    idx, an = assert_witt_split(parse_form(literal))
    assert (idx, an.dim) == (1, 2)


def test_witt_decompose_hard_indefinite_forms():
    rng = random.Random(3)
    for _ in range(40):
        assert_witt_split(hard_form(rng))


HARSH_PRIMES = scalars._primes_below(200)


def harsh_form(rng):
    """A form of dimension 1..12 whose entries carry up to three primes
    below 200 times a rational square."""
    entries = []
    for _ in range(rng.randint(1, 12)):
        core = prod(rng.sample(HARSH_PRIMES, rng.randint(0, 3)))
        square = Q(rng.randint(1, 3), rng.randint(1, 3)) ** 2
        entries.append(rng.choice((1, -1)) * core * square)
    return form(entries)


def test_witt_decompose_certifies_harsh_forms_factoring_nothing_large(monkeypatch):
    """A chain of witnesses on these forms grew pivots far past the primes
    of the input and raised on some ("cannot prove a 29-digit number
    prime").  Read off the invariants, nothing of 12 digits or more reaches
    `factor` or `is_prime` while decomposing."""
    rng = random.Random(5)
    harsh = [harsh_form(rng) for _ in range(200)]
    for cached in vars(scalars).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    seen = []
    for name in ("factor", "is_prime"):
        real = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda n, real=real: seen.append(n) or real(n))
    results = [witt_decompose(q) for q in harsh]
    monkeypatch.undo()
    assert seen and max(seen) < 10**12
    built = [len(forms._cancelled(q)[1]) > an.dim >= 2 for q, (_, an) in zip(harsh, results)]
    assert sum(built) > 100
    for q, (index, an) in zip(harsh, results):
        assert isometric(direct_sum(hyperbolic(index), an), q) and not is_isotropic(an), q


def test_witt_equivalence_examples():
    assert witt_equivalent(form([1, -1]), form([2, -2]))
    assert isometric(form([1, -1]), form([2, -2]))
    phi = pfister(-1, -1, -1, -1, field="R")
    q_alpha = scale(-1, DiagonalForm("R", phi.entries[1:]))
    q = parse_form("7H + <1>", field="R")
    assert not isometric(q_alpha, q)
    assert signature(q_alpha) == -15 and signature(q) == 1


# ---------------------------------------------------------------- I^n chain


def test_in_power_I_examples():
    phi = pfister(-1, -1, -1, -1, field="R")
    assert in_power_I(phi, 4)
    assert in_power_I(scale(-1, phi), 4)
    assert not in_power_I(pfister(-1, -1, -1), 4)  # signature 8
    assert in_power_I(pfister(-1, -1, -1), 3)
    # past I^3 the signature decides over Q as over R: I^n = I^3 and 2^n | sig
    assert all(in_power_I(form([1, -1]), n) for n in range(5, 9))
    assert in_power_I(pfister(-1, -1, -1, -1, -1), 5)
    assert not in_power_I(pfister(-1, -1, -1, -1, -1), 6)
    assert in_power_I(pfister(-1, -1, -1, -1), 4)
    assert not in_power_I(pfister(-1, -1, -1, -1), 5)
    assert in_power_I(hyperbolic(4, "R"), 5)  # any n over R


def test_pfister_forms_lie_in_their_ideal():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        slots = [rng.choice(SMALL) for _ in range(n)]
        assert in_power_I(pfister(*slots), n)


def test_arason_examples():
    assert arason_trivial(scale(2, pfister(3, 2, -1)))
    assert not arason_trivial(pfister(-1, -1, -1))
    assert arason_trivial(DiagonalForm("Q", ()))
    with pytest.raises(HypothesisViolation):
        arason_trivial(form([1, 1]))


def test_hauptsatz_at_desk_scale():
    """Every generated q in I^4 over Q with dim < 16 is hyperbolic."""
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randint(0, 7)
        entries = []
        for _ in range(m):
            a = Q(rng.choice(SMALL))
            entries += [a * rng.choice([1, 4, 9]), -a * rng.choice([1, 4, 25])]
        rng.shuffle(entries)
        q = form(entries) if entries else DiagonalForm("Q", ())
        assert in_power_I(q, 4) if q.dim else True
        idx, an = witt_decompose(q) if q.dim else (0, q)
        assert an.dim == 0


def test_low_rank_kernel_check_branches():
    assert low_rank_kernel_check(parse_form("5H + <1>"), parse_form("5H + <1>"))
    phi = pfister(-1, -1, -1, -1, field="R")
    q_alpha = scale(-1, DiagonalForm("R", phi.entries[1:]))
    with pytest.raises(HypothesisViolation) as exc:
        low_rank_kernel_check(parse_form("7H + <1>", "R"), q_alpha)
    assert exc.value.reason == "rank-bound"
    with pytest.raises(HypothesisViolation) as exc:
        low_rank_kernel_check(form([1] * 5), form([1] * 6))
    assert exc.value.reason == "dim-mismatch"
    with pytest.raises(HypothesisViolation) as exc:
        low_rank_kernel_check(form([1, -1, 2, 3]), form([1, -1, 2, 3]))
    assert exc.value.reason == "dim-small"
    with pytest.raises(HypothesisViolation) as exc:
        low_rank_kernel_check(form([1, 1, 1, 1, 1]), form([1, 1, 1, 1, 2]))
    assert exc.value.reason == "not-in-I3"
    # rostcalc(2,3) wiring: hypotheses hold, e3 trivial, forms isometric
    from quadalg import descent

    q = descent.twist_a_expected(2)
    q_z = descent.rostcalc_expected_qz(2, 3)
    assert low_rank_kernel_check(q, q_z) is True
    # a genuinely nontrivial-e3 pair: low_rank concludes non-isometry
    q2 = descent.twist_a_expected(-1)
    qz2 = descent.rostcalc_expected_qz(-1, -1)
    assert low_rank_kernel_check(q2, qz2) is False


# ---------------------------------------------------------------- hermitian


def test_trace_form_examples():
    h = HermitianDiagonal("R", Q(-1), hermitian_hyperbolic(3, -1, "R").entries + (Q(1),))
    qd = trace_form(h)
    assert isometric(qd, direct_sum(hyperbolic(6, "R"), pfister(-1, field="R")))
    h7 = HermitianDiagonal("R", Q(-1), (Q(-1),) * 7)
    assert trace_form(h7).entries == (-1,) * 14
    assert trace_form(HermitianDiagonal("Q", Q(2), (Q(1),))).entries == (1, -2)
    for field, k in (("Q", 4), ("R", 2), ("R", 0)):
        with pytest.raises(ValueError):
            HermitianDiagonal(field, Q(k), (Q(1),))


def test_trace_form_against_direct_expansion():
    """Trace form of <l_1..l_n> equals the 2n-dimensional form of
    v -> h(v, v) expanded in the basis (1, sqrt k) coordinatewise."""
    rng = random.Random(5)
    for _ in range(20):
        k = Q(rng.choice([2, 3, 5, -1, -2]))
        n = rng.randint(1, 5)
        lams = [Q(rng.choice(SMALL)) for _ in range(n)]
        h = HermitianDiagonal("Q", k, tuple(lams))
        got = trace_form(h)
        # h(v,v) = sum lam_i N(v_i) with N(x + y sqrt k) = x^2 - k y^2
        expanded = []
        for lam in lams:
            expanded += [lam, -lam * k]
        assert isometric(got, form(expanded))
        gram = [[Q(0)] * (2 * n) for _ in range(2 * n)]
        for i, lam in enumerate(lams):
            gram[2 * i][2 * i] = lam
            gram[2 * i + 1][2 * i + 1] = -lam * k
        diag = [square_class(x) for x in diagonalize(freeze(gram))]
        assert isometric(got, form(diag))


def test_2a6_trace_difference():
    d = Q(-1)
    q = trace_form(HermitianDiagonal("R", d, (Q(-1),) * 7))
    qd = trace_form(
        HermitianDiagonal("R", d, hermitian_hyperbolic(3, d, "R").entries + (Q(1),))
    )
    diff = direct_sum(q, -qd)
    assert witt_equivalent(diff, scale(-1, pfister(-1, -1, -1, -1, field="R")))
    assert in_power_I(diff, 4)
    assert not isometric(q, qd)


# ---------------------------------------------------------------- over K


def test_k_ideal_membership():
    assert in_k_witt_ideal(tensor(form([1, -2]), form([1, 5])), 2)
    assert not in_k_witt_ideal(form([1, 1]), 2)
    assert in_k_witt_ideal(form([1, 1]), -1)
    assert in_k_witt_ideal(hyperbolic(3), 7)


def peel_in_k_witt_ideal(q, k):
    """Reference K-ideal test by peeling: an anisotropic class in
    <1,-k> W(Q) is <1,-k>-divisible, so removing a<1,-k> for a value a
    drops the anisotropic dimension by 2 until nothing is left."""
    phi = witt_decompose(q)[1]
    while phi.dim:
        a = phi.entries[0]
        shorter = witt_decompose(direct_sum(phi, form([-a, a * k])))[1]
        if shorter.dim > phi.dim - 2:
            return False
        phi = shorter
    return True


def test_k_ideal_membership_matches_peeling():
    rng = random.Random(8)
    pairs = [(parse_form(literal), k) for literal in FAULT_FORMS for k in (-7, 3)]
    for _ in range(30):
        k = rng.choice([2, 3, 5, 6, 7, -1, -2, -3, -5, -7])
        psi = rnd_form(rng, rng.randint(1, 3))
        member = direct_sum(tensor(form([1, -k]), psi), hyperbolic(rng.randint(0, 1)))
        pairs.append((member, k))
        assert in_k_witt_ideal(member, k)
        pairs.append((direct_sum(member, form([rng.choice(SMALL), rng.choice(SMALL)])), k))
        pairs.append((hard_form(rng), k))
    answers = [in_k_witt_ideal(q, k) for q, k in pairs]
    assert answers == [peel_in_k_witt_ideal(q, k) for q, k in pairs]
    assert True in answers and False in answers


def test_isometric_over_K():
    assert isometric_over_K(form([1, -3]), form([-2, 6]), 2)
    assert not isometric_over_K(form([1, 1]), form([-1, -1]), 5)
    assert not isometric_over_K(form([1, -2]), form([1, -3]), 7)
    assert isometric_over_K(form([1, -2]), form([1, -3]), 6)
    rng = random.Random(6)
    for _ in range(20):
        q = rnd_form(rng, rng.randint(1, 6))
        k = rng.choice([2, 3, -1, -2, 5])
        assert isometric_over_K(q, scale(rng.choice([1, 4, 9]), q), k)


# ---------------------------------------------------------------- literals


def test_parse_and_print():
    q = parse_form("7H + <1>")
    assert q.dim == 15 and signature(q) == 1
    assert parse_form("<<-1,-1>>").entries == (1, 1, 1, 1)
    assert parse_form("2*<3,5>").entries == (6, 10)
    assert parse_form("2*<<2>>").entries == (2, -4)
    assert parse_form("<1/2,-3>").entries == (Q(1, 2), -3)
    assert form_literal(form([Q(1, 2), -3])) == "<1/2,-3>"
    assert parse_form(form_literal(q)) == q
    assert parse_form("H") == parse_form("1H") and parse_form("H").dim == 2
    assert parse_form("1*<1>").entries == (1,)
    for bad in ("", "<1,>", "<1> + ", "3x", "<1> <2>", "1*", "0*<1>"):
        with pytest.raises(ValueError):
            parse_form(bad)


def test_a_literal_of_the_most_entries_parses_and_one_more_does_not():
    """MAX_LITERAL_DIM is 2^16: 32768H and a 16-slot Pfister form spell
    exactly that many entries."""
    pfister16 = "<<" + ",".join(["-1"] * 16) + ">>"
    for at_bound in ("32768H", pfister16):
        assert parse_form(at_bound).dim == forms.MAX_LITERAL_DIM
        with pytest.raises(ValueError, match="more than"):
            parse_form(at_bound + " + <1>")


def test_invariants_json_shape():
    payload = forms.invariants_json(form([2, 3]))
    assert payload["dim"] == 2 and payload["disc"] == -6
    assert set(payload) == {"dim", "disc", "hasse", "signature"}


def test_hasse_symbols_product_formula():
    """The Hasse symbols multiply to +1 over all places (the real place
    included): the stored places, those with symbol -1, are even in
    number."""
    rng = random.Random(7)
    for _ in range(40):
        q = rnd_form(rng, rng.randint(1, 8))
        assert len(invariants(q).hasse) % 2 == 0


# ------------------------------------------- the O(n) Witt layer, checked
# against the quadratic-time routes it replaced, kept as references


def shared_prime_entry(rng, rational):
    """A signed product of powers of 2, 3, 5 and 7 (so entries share primes
    and need not be squarefree), over another such product if `rational`."""

    def part():
        out = 1
        for p in (2, 3, 5, 7):
            out *= p ** rng.choice((0, 0, 1, 2, 3))
        return out

    return rng.choice((1, -1)) * Q(part(), part() if rational else 1)


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def unit_times_powers(rng):
    """A signed unit of a random residue 1, 3, 5 or 7 mod 8 times powers
    (0 to 3) of three primes up to 31, so squarefree or not."""
    unit = 8 * rng.randint(0, 4) + rng.choice((1, 3, 5, 7))
    power = prod(p ** rng.choice((0, 0, 1, 2, 3)) for p in rng.sample(PRIMES_TO_31, 3))
    return rng.choice((1, -1)) * unit * power


def test_hasse_prefix_products_match_pairwise():
    rng = random.Random(17)
    for trial in range(120):
        q = form([shared_prime_entry(rng, trial % 2) for _ in range(rng.randint(0, 16))])
        classes = [square_class(a) for a in q.entries]
        inv = invariants(q)
        for v in relevant_places(*q.entries) + [Place(11)]:
            expected = pairwise_hasse(q.entries, v)
            assert forms._hasse(classes, v) == expected
            assert (-1 if v in inv.hasse else 1) == expected
            if trial % 2 == 0:  # integers that are not squarefree
                assert forms._hasse([int(a) for a in q.entries], v) == expected
    # units of every residue mod 8 times primes up to 31, at 2, 3, ..., 31
    # and the real place
    places = [REAL] + [Place(p) for p in PRIMES_TO_31]
    for _ in range(60):
        entries = [unit_times_powers(rng) for _ in range(rng.randint(0, 12))]
        classes = [square_class(a) for a in entries]
        inv = invariants(form(entries))
        for v in places:
            expected = pairwise_hasse(entries, v)
            assert forms._hasse(entries, v) == expected
            assert forms._hasse(classes, v) == expected
            assert (-1 if v in inv.hasse else 1) == expected


def test_isotropic_at_matches_the_case_analysis():
    rng = random.Random(19)
    for _ in range(300):
        entries = [
            rng.choice((1, -1)) * prod(rng.sample(PRIMES_TO_31[:6], rng.randint(0, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        local = all(reference_isotropic_at(entries, v) for v in relevant_places(-1, *entries))
        assert is_isotropic(form(entries)) == local, entries


def test_isotropy_at_a_prime_from_dimension_five_reads_no_symbol(monkeypatch):
    """With |signature| >= 3, or a definite residue, the anisotropic
    dimension is |signature| and no place is read; over R it always is."""
    for name in ("_hasse", "hilbert_symbol", "is_local_square"):
        monkeypatch.setattr(forms, name, lambda *args: pytest.fail("a symbol was read"))
    cases = {
        ("Q", (1, 2, 3, 5, 7)): False,
        ("Q", (1, 2, 3, 5, -7)): True,
        ("Q", (2,) * 7): False,
        ("Q", (2, -8, 3, -3, 5)): True,  # 2H + <5>
        ("Q", (1, 1)): False,
        ("R", (1, 2, 3, 5, 7)): False,
        ("R", (1, -2)): True,
        ("R", (2, -3, 5)): True,
        ("R", (-3, -5)): False,
    }
    for (field, entries), isotropic in cases.items():
        assert is_isotropic(form(entries, field)) == isotropic, (field, entries)


def test_the_anisotropic_dimension_is_read_once_per_form(monkeypatch):
    """`witt_decompose` runs the existence loop and `is_isotropic` then
    reads its result off the form: |signature| < 3 and an indefinite
    residue, so the loop must run."""
    calls, real = [], forms._exists
    monkeypatch.setattr(forms, "_exists", lambda *args: calls.append(args) or real(*args))
    q = form([1, 2, -3, 5, -6, -7])  # 2H + <5,-7>, with no two classes opposite
    assert witt_decompose(q)[0] == 2 and calls
    calls.clear()
    assert is_isotropic(q) and calls == []


def test_hyperbolic_hasse_defects_closed_form():
    for m in range(13):
        assert forms._hyperbolic_hasse(m) == invariants(hyperbolic(m)).hasse
        assert forms._hasse_defects(invariants(hyperbolic(m))) == set()


def dense_split(q, v):
    """The complement of span(v, e_j) from an explicit basis, its Gram
    matrix through `pairing`, and `diagonalize`."""
    a = q.entries
    support = [i for i, x in enumerate(v) if x != 0]
    j, k = support[0], support[-1]
    b = a[j] * v[j]
    basis = []
    for m in range(q.dim):
        if m in (j, k):
            continue
        beta = Q(a[m] * v[m]) / b
        alpha = -beta * a[j] / b
        vec = [-alpha * x for x in v]
        vec[m] += 1
        vec[j] -= beta
        basis.append(vec)
    g = diagonal(q.entries)
    gram = [[pairing(g, x, y) for y in basis] for x in basis]
    return tuple(map(square_class, diagonalize(freeze(gram))))


def isotropic_pairs(rng, count):
    """Seeded isotropic (q, v): witnesses of random isotropic forms, and
    random v with the last entry of q solved for q(v) = 0."""
    pairs = []
    while len(pairs) < count:
        q = rnd_form(rng, rng.randint(2, 9))
        if is_isotropic(q):
            pairs.append((q, isotropic_vector(q)))
        v = [Q(rng.randint(-3, 3)) for _ in range(rng.randint(2, 9))]
        v[-1] = Q(rng.choice((1, 2, 3)))
        head = [Q(rng.choice(SMALL)) for _ in v[:-1]]
        last = -sum(a * x * x for a, x in zip(head, v)) / v[-1] ** 2
        if last:
            pairs.append((form(head + [last]), tuple(v)))
    return pairs


# <1,-1,2,-2>: the first pivot is zero, so the second index is swapped in;
# <1,-1,-1,1>: every pivot is zero from the start;
# <1,1,-2,-2,2>: one pivot, then a 2x2 block whose pivots are all zero
SPLIT_CASES = [
    ([1, -1, 2, -2], (1, 1, 1, 1), False),
    ([1, -1, -1, 1], (1, 1, 1, 1), True),
    ([1, 1, -2, -2, 2], (1, 1, 1, 1, 1), True),
]


@pytest.mark.parametrize("entries, v, repaired", SPLIT_CASES)
def test_split_hyperbolic_pivot_cases_match_dense(monkeypatch, entries, v, repaired):
    q, v = form(entries), tuple(Q(x) for x in v)
    expected = dense_split(q, v)
    blocks = []
    real = diagonalize
    monkeypatch.setattr(sys.modules[__name__], "diagonalize", lambda g: blocks.append(g) or real(g))
    assert split_hyperbolic(q, v).entries == expected
    assert bool(blocks) == repaired


def test_split_hyperbolic_matches_dense_route():
    rng = random.Random(23)
    for q, v in isotropic_pairs(rng, 150):
        assert split_hyperbolic(q, v).entries == dense_split(q, v)


# ------------------------------------------------ operation-count gates


def test_invariants_make_no_hilbert_symbol_and_one_legendre_per_odd_place(monkeypatch):
    symbols, legendres = [], []
    real_legendre = scalars._legendre
    monkeypatch.setattr(forms, "hilbert_symbol", lambda a, b, v: symbols.append(v) or hilbert_symbol(a, b, v))
    # `_hasse` lives in scalars and looks `_legendre` up there
    monkeypatch.setattr(scalars, "_legendre", lambda u, p: legendres.append(p) or real_legendre(u, p))
    q = form([2, -3, 5, 7, -6, 10, 14, -15, 21, 35, -2, 3])
    odd = {v.p for v in relevant_places(*q.entries) if v.p > 2}
    inv = invariants(q)
    # pairwise: 66 symbols per place; prefix products: 11
    assert symbols == []
    assert len(legendres) == len(set(legendres)) and set(legendres) <= odd
    for v in relevant_places(*q.entries):
        assert (-1 if v in inv.hasse else 1) == pairwise_hasse(q.entries, v)


def test_split_hyperbolic_makes_no_bilinear_call(monkeypatch):
    """The split evaluates q once, at v, and pairs no two vectors."""
    pairs = isotropic_pairs(random.Random(29), 20)
    calls, real = [], pairing
    monkeypatch.setattr(sys.modules[__name__], "pairing", lambda *args: calls.append(args) or real(*args))
    for q, v in pairs:
        split_hyperbolic(q, v)
    assert [args[1:] for args in calls] == [(v, v) for _, v in pairs]


# squarefree-class entries, rescaled by squares, sharing primes across forms
FACTOR_GATE_FORMS = [
    form([2, Q(-27, 4), 5, 7 * 4, -30, Q(6, 25)]),
    form([Q(-3, 4), 10, -14, 35 * 9, 2]),
    form([2 * 9, -3, 5, Q(-7, 16), 1, 11]),
]


def test_factor_runs_once_per_square_class(monkeypatch):
    for cached in vars(scalars).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    calls = []
    real = scalars.factor
    monkeypatch.setattr(scalars, "factor", lambda n: calls.append(n) or real(n))
    for q in FACTOR_GATE_FORMS:
        q = form(q.entries)  # a fresh form, with nothing kept on it yet
        invariants(q)
        is_isotropic(q)
        relevant_places(*q.entries)
    assert calls and len(calls) == len(set(calls))


# indefinite forms whose anisotropic part is built by peeling, |signature| >= 5
PEELED = (parse_form("<1,1,1,1,1,1,-2>"), parse_form("<3,5,-7,11,-13,17,-19,23,-29>"))


def test_witt_decompose_reads_the_invariants_without_witnesses(monkeypatch):
    def refuse(*_):
        raise AssertionError("witness machinery called")

    monkeypatch.setattr(forms, "is_isotropic", refuse)
    for name in ("_witness", "_ternary_witness", "_isotropic_vector_squarefree"):
        monkeypatch.setattr(witness_chain, name, refuse)
    new, made = Q.__new__.__code__, []

    def count_fractions(frame, event, _):
        if event == "call" and frame.f_code is new:
            made.append(1)

    q1 = form([2, Q(-8, 9), 3, -12, 5, -45, 7])  # 3H + <7>: three opposite pairs cancel
    q2 = form([1, 2, -3, 5, -6, -7])  # 2H + <5,-7>, and no two classes are opposite
    fresh = [form(q.entries) for q in PEELED]  # nothing computed on them yet
    sys.setprofile(count_fractions)
    try:
        results = [witt_decompose(q) for q in (q1, q2, *fresh)]
    finally:
        sys.setprofile(None)
    monkeypatch.undo()
    assert made == []
    assert results[0] == (3, form([7]))
    index, an = results[1]
    assert index == 2 and isometric(an, form([5, -7]))
    assert [(index, an.dim) for index, an in results[2:]] == [(1, 5), (3, 3)]


@pytest.mark.parametrize("step", ["_peel", "_binary"])
def test_witt_decompose_certificate_catches_a_wrong_class(monkeypatch, step):
    real = getattr(forms, step)

    def peel_wrong(*args):
        c, d, eps = real(*args)
        return 2 * c, d, eps

    def binary_wrong(*args):
        (a, b), aux = real(*args)
        return (a, 2 * b), aux

    monkeypatch.setattr(forms, step, peel_wrong if step == "_peel" else binary_wrong)
    for q in PEELED:
        with pytest.raises(RuntimeError, match="certificate"):
            witt_decompose(form(q.entries))


def test_invariants_take_one_hilbert_symbol_per_place_off_the_residue(monkeypatch):
    calls = []
    real = forms.hilbert_symbol
    monkeypatch.setattr(forms, "hilbert_symbol", lambda a, b, v: calls.append(v) or real(a, b, v))
    q = parse_form("7H + <1>")
    inv = invariants(q)
    assert (inv.disc, inv.hasse) == reference_invariants(q)
    # `reference_invariants`, over all 15 classes, takes 7 symbols per place
    assert calls and len(calls) == len(set(calls)) <= len(relevant_places(1))


def test_invariants_are_computed_once_and_read_only():
    q = form([2, 3, -5])
    inv = invariants(q)
    assert invariants(q) is inv
    with pytest.raises(AttributeError):
        inv.hasse.add(REAL)
    assert invariants(form([2, 3, -5])) == inv  # an equal form, its own copy
    for clone in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert clone == q and invariants(clone) == inv


# --------------------------------------------------------------------------
# the routes without cancellation, and the chain of explicit splits, kept as
# references


def reference_invariants(q):
    """(disc, Hasse places) over all of q's square classes: the
    prefix-product Hasse symbol prod_j (d_1...d_{j-1}, d_j)_v, n - 1
    symbols per place."""
    ds = [square_class(a) for a in q.entries]
    det, hasse = 1, set()
    for d in ds:
        det = square_class(det * d)
    for v in relevant_places(*ds):
        eps, prefix = 1, 1
        for d in ds:
            eps *= hilbert_symbol(prefix, d, v)
            prefix = square_class(prefix * d)
        if eps == -1:
            hasse.add(v)
    n = len(ds)
    return (-1) ** (n * (n - 1) // 2) * det, hasse


def split_hyperbolic(q, v):
    """Orthogonal complement of the hyperbolic plane through isotropic v.

    With j the first and k the last index where v is nonzero (k != j, as
    q(v) = 0), the plane is span(v, e_j).  The projection P onto its
    B-orthogonal complement kills e_j, and the only other relation among
    the P(e_m) is sum v_m P(e_m) = 0, so the P(e_m) with m not in {j, k}
    are a basis of the complement.  Their Gram matrix is
    diag(a_m) + s u u^T with u_m = a_m v_m and s = 1/(a_j v_j^2), and
    symmetric elimination keeps that shape: the pivot at d_t is
    p = d_t + s u_t^2, after which s becomes s d_t / p.  Pivots are chosen
    as `diagonalize` chooses them, so the diagonal is the one it
    gives; a block whose pivots are all zero goes to it as a matrix.
    """
    if form_value(q, v) != 0:
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
            out += map(square_class, diagonalize(freeze(block)))
            break
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        out.append(square_class(p))
        s = div(s * d[t], p)
    return DiagonalForm(q.field, tuple(out))


def reference_witt_decompose(q):
    """The chain of explicit splits run from q itself: isotropy by the
    local-global test over all of the current form's classes, one witness
    and one hyperbolic plane per step."""
    index, cur = 0, q
    while True:
        ds = [square_class(a) for a in cur.entries]
        if not all(reference_isotropic_at(ds, v) for v in relevant_places(-1, *ds)):
            return index, cur
        cur = split_hyperbolic(cur, witness_chain._witness(cur))
        index += 1


def mixed_forms(seed, count):
    """Forms over Q whose entries often share a square class with an earlier
    entry, or take its opposite, each rescaled by a rational square."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        entries = []
        for _ in range(rng.randint(1, 9)):
            if entries and rng.random() < 0.6:
                a = rng.choice((1, -1)) * square_class(rng.choice(entries))
            else:
                a = rng.choice(SMALL)
            entries.append(a * Q(rng.randint(1, 5), rng.randint(1, 3)) ** 2)
        out.append(form(entries))
    return out


MIXED = mixed_forms(11, 2000)


def test_mixed_forms_cancel_often_and_not_always():
    pairs = [forms._cancelled(q)[0] for q in MIXED]
    assert 1000 < sum(p > 0 for p in pairs) < 1800
    assert sum(p == 0 and is_isotropic(q) for p, q in zip(pairs, MIXED)) > 100


def test_invariants_match_the_reference_without_cancellation():
    for q in MIXED:
        inv = invariants(q)
        assert (inv.disc, inv.hasse) == reference_invariants(q), q


def witt_forms(seed, count):
    """Seeded forms over Q and R of dimension 0..10, entries +-1..210, 1/2
    and -3/4; every third is a form and its negative up to squares,
    shuffled, with one more entry in odd dimension."""
    rng = random.Random(seed)
    pool = list(range(1, 211)) + [Q(1, 2), Q(-3, 4)]
    out = []
    for i in range(count):
        dim = rng.randint(0, 10)
        entries = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(dim)]
        if i % 3 == 2:
            half = entries[: dim // 2]
            entries = half + [-a * rng.choice((1, 4, 9, Q(1, 4))) for a in half]
            rng.shuffle(entries)
            entries += [rng.choice(pool) for _ in range(dim % 2)]
        out.append(form(entries, "QR"[i % 2]))
    return out


def test_witt_verdicts_match_the_invariant_criteria():
    """`witt_trivial` (the anisotropic dimension is 0) agrees with the
    criterion read off the invariants, and over R `in_power_I`, on the
    ladder of Q, with signature = 0 mod 2^n; over Q a Witt-trivial form
    lies in every I^n."""
    qs = witt_forms(43, 2400)
    for q in qs:
        trivial = witt_trivial(q)
        assert trivial == reference_witt_trivial(q), q
        for n in range(1, 6):
            if q.field == "R":
                assert in_power_I(q, n) == reference_in_power_I_over_R(q, n), (q, n)
            elif trivial:
                assert in_power_I(q, n), (q, n)
    assert 600 < sum(map(witt_trivial, qs)) < 900


def peeled_forms(seed, count):
    """Forms whose residue is indefinite with |signature| >= 5 and longer
    than its anisotropic part, which is then definite and built by
    peeling: mostly positive entries, one or two negative ones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        entries = [rng.choice((1, 2, 3, 5, 6, 7, 10, 30)) for _ in range(rng.randint(6, 8))]
        entries += [-rng.choice((1, 2, 3, 5, 7)) for _ in range(rng.randint(1, 2))]
        q = form(a * rng.choice((1, 4, 9)) for a in entries)
        residue = forms._cancelled(q)[1]
        sig = sum(1 if d > 0 else -1 for d in residue)
        if min(residue) < 0 and abs(sig) >= 5 and len(residue) > abs(sig):
            out.append(q)
    return out


def test_witt_decompose_matches_the_split_chain_from_q():
    rng = random.Random(3)
    hard = [hard_form(rng) for _ in range(40)]
    for q in [*MIXED, *hard, *PEELED, *peeled_forms(13, 20)]:
        index, an = witt_decompose(q)
        ref_index, ref_an = reference_witt_decompose(q)
        assert index == ref_index and isometric(an, ref_an), q
        assert is_isotropic(q) == (index > 0) and not is_isotropic(an)
        assert 2 * index + an.dim == q.dim
