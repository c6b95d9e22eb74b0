import copy
import itertools
import pickle
import random
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
    in_k_witt_ideal,
    in_power_I,
    invariants,
    is_isotropic,
    isometric,
    isometric_over_K,
    isotropic_vector,
    low_rank_kernel_check,
    parse_form,
    pfister,
    scale,
    signature,
    tensor,
    trace_form,
    witt_decompose,
    witt_equivalent,
)
from quadalg.scalars import Place, REAL, hilbert_symbol, relevant_places, square_class

SMALL = [1, -1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10, -15, 30]


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
    assert (hyp.dim, hyp.disc, hyp.hasse, hyp.signature) == (2, 1, {}, 0)
    q23 = invariants(form([2, 3]))
    assert q23.disc == -6
    assert q23.hasse.get(Place(3), 1) == -1
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
        assert q.value(v) == 0
        found += 1


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
        w = forms._legendre_equation_zero(a, b, c)
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
    idx, an = witt_decompose(form([1, 1, 1, 1], "R"))
    assert idx == 0 and an.dim == 4


def test_witt_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        q = rnd_form(rng, rng.randint(1, 12))
        idx, an = witt_decompose(q)
        assert not is_isotropic(an)
        assert isometric(direct_sum(hyperbolic(idx), an), q)


# isotropic forms with no isotropic ternary subform, whose witness needs a
# common value other than their first entry
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
    with pytest.raises(ValueError):
        HermitianDiagonal("Q", Q(4), (Q(1),))
    with pytest.raises(ValueError):
        HermitianDiagonal("R", Q(2), (Q(1),))


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
        diag = forms._diagonalize_gram(gram)
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
    for bad in ("", "<1,>", "<1> + ", "3x", "<1> <2>", "1*"):
        with pytest.raises(ValueError):
            parse_form(bad)


def test_invariants_json_shape():
    payload = forms.invariants_json(form([2, 3]))
    assert payload["dim"] == 2 and payload["disc"] == -6
    assert set(payload) == {"dim", "disc", "hasse", "signature"}


def test_hasse_symbols_product_formula():
    """The stored Hasse symbols multiply to +1 over all places (the real
    place included): only places with symbol -1 are stored, so the count
    of stored places is even."""
    rng = random.Random(7)
    for _ in range(40):
        q = rnd_form(rng, rng.randint(1, 8))
        inv = invariants(q)
        assert len(inv.hasse) % 2 == 0
        prod = 1
        for v in inv.hasse.values():
            prod *= v
        assert prod == 1


# ------------------------------------------- the O(n) Witt layer, checked
# against the quadratic-time routes it replaced, kept here as references


def pairwise_hasse(entries, v):
    """prod_{i<j} (a_i, a_j)_v over all n(n-1)/2 pairs."""
    eps = 1
    for a, b in itertools.combinations(entries, 2):
        eps *= hilbert_symbol(a, b, v)
    return eps


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
            assert inv.hasse.get(v, 1) == expected
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
            assert inv.hasse.get(v, 1) == expected


def test_hyperbolic_hasse_defects_closed_form():
    for m in range(13):
        assert forms._hyperbolic_hasse(m) == set(invariants(hyperbolic(m)).hasse)
        assert forms._hasse_defects(invariants(hyperbolic(m))) == set()


def dense_split(q, v):
    """The complement of span(v, e_j) from an explicit basis, its Gram
    matrix through `bilinear`, and `_diagonalize_gram`."""
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
    gram = [[q.bilinear(x, y) for y in basis] for x in basis]
    return tuple(forms._diagonalize_gram(gram))


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
    dense = forms._diagonalize_gram
    monkeypatch.setattr(forms, "_diagonalize_gram", lambda g: blocks.append(g) or dense(g))
    assert forms._split_hyperbolic(q, v).entries == expected
    assert bool(blocks) == repaired


def test_split_hyperbolic_matches_dense_route():
    rng = random.Random(23)
    for q, v in isotropic_pairs(rng, 150):
        assert forms._split_hyperbolic(q, v).entries == dense_split(q, v)


# ------------------------------------------------ operation-count gates


def test_invariants_make_no_hilbert_symbol_and_one_legendre_per_odd_place(monkeypatch):
    symbols, legendres = [], []
    real_legendre = forms._legendre
    monkeypatch.setattr(forms, "hilbert_symbol", lambda a, b, v: symbols.append(v) or hilbert_symbol(a, b, v))
    monkeypatch.setattr(forms, "_legendre", lambda u, p: legendres.append(p) or real_legendre(u, p))
    q = form([2, -3, 5, 7, -6, 10, 14, -15, 21, 35, -2, 3])
    odd = {v.p for v in relevant_places(*q.entries) if v.p > 2}
    inv = invariants(q)
    # pairwise: 66 symbols per place; prefix products: 11
    assert symbols == []
    assert len(legendres) == len(set(legendres)) and set(legendres) <= odd
    for v in relevant_places(*q.entries):
        assert inv.hasse.get(v, 1) == pairwise_hasse(q.entries, v)


def test_split_hyperbolic_makes_no_bilinear_call(monkeypatch):
    pairs = isotropic_pairs(random.Random(29), 20)

    def refuse(*_):
        raise AssertionError("bilinear called")

    monkeypatch.setattr(DiagonalForm, "bilinear", refuse)
    for q, v in pairs:
        forms._split_hyperbolic(q, v)


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


def test_witt_decompose_decides_isotropy_once_per_split(monkeypatch):
    decided, split = [], []
    real, real_split = forms.is_isotropic, forms._split_hyperbolic
    monkeypatch.setattr(forms, "is_isotropic", lambda q: decided.append(q.dim) or real(q))
    monkeypatch.setattr(
        forms, "_split_hyperbolic", lambda q, v: split.append(q.dim) or real_split(q, v)
    )
    q = form([2, Q(-8, 9), 3, -12, 5, -45, 7])  # 3H + <7>: three opposite pairs cancel
    assert witt_decompose(q) == (3, form([7]))
    assert decided == [1] and split == []  # one decision, on the residue <7>
    decided.clear()
    q = form([1, 2, -3, 5, -6, -7])  # 2H + <5,-7>, and no two classes are opposite
    assert witt_decompose(q) == (2, form([5, -7]))
    assert split == [6, 4]
    # the chain decides once per split (6, 4, 2); the first witness tests its
    # ternary subforms place by place, with no form and no second decision
    assert decided == [6, 4, 2]


def test_invariants_take_one_hilbert_symbol_per_place_off_the_residue(monkeypatch):
    calls = []
    real = forms.hilbert_symbol
    monkeypatch.setattr(forms, "hilbert_symbol", lambda a, b, v: calls.append(v) or real(a, b, v))
    q = parse_form("7H + <1>")
    inv = invariants(q)
    assert (inv.disc, dict(inv.hasse)) == reference_invariants(q)
    # `reference_invariants`, over all 15 classes, takes 7 symbols per place
    assert calls and len(calls) == len(set(calls)) <= len(relevant_places(1))


def test_invariants_are_computed_once_and_read_only():
    q = form([2, 3, -5])
    inv = invariants(q)
    assert invariants(q) is inv
    with pytest.raises(TypeError):
        inv.hasse[REAL] = -1
    assert invariants(form([2, 3, -5])) == inv  # an equal form, its own copy
    for clone in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert clone == q and invariants(clone) == inv


# --------------------------------------------------------------------------
# the routes without cancellation, kept as references


def reference_invariants(q):
    """(disc, hasse) over all of q's square classes: the prefix-product
    Hasse symbol prod_j (d_1...d_{j-1}, d_j)_v, n - 1 symbols per place."""
    ds = [square_class(a) for a in q.entries]
    det, hasse = 1, {}
    for d in ds:
        det = square_class(det * d)
    for v in relevant_places(*ds):
        eps, prefix = 1, 1
        for d in ds:
            eps *= hilbert_symbol(prefix, d, v)
            prefix = square_class(prefix * d)
        if eps == -1:
            hasse[v] = -1
    n = len(ds)
    return (-1) ** (n * (n - 1) // 2) * det, hasse


def reference_witt_decompose(q):
    """The chain of explicit splits run from q itself: isotropy by the
    local-global test over all of the current form's classes, one witness
    and one hyperbolic plane per step."""
    index, cur = 0, q
    while True:
        ds = [square_class(a) for a in cur.entries]
        if not all(forms._isotropic_at(ds, v) for v in relevant_places(-1, *ds)):
            return index, cur
        cur = forms._split_hyperbolic(cur, forms._witness(cur))
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
        assert (inv.disc, dict(inv.hasse)) == reference_invariants(q), q


def test_witt_decompose_matches_the_split_chain_from_q():
    for q in MIXED:
        index, an = witt_decompose(q)
        ref_index, ref_an = reference_witt_decompose(q)
        assert index == ref_index and isometric(an, ref_an), q
        assert is_isotropic(q) == (index > 0) and not is_isotropic(an)
        assert 2 * index + an.dim == q.dim
