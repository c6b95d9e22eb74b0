"""Property tests for the scalar layer, the Witt invariants and the form
literals, on a fixed seed and a bounded number of examples, so every run
draws the same cases.  A property run is not a proof: the exact
certificates in the other test files stay."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from quadalg.forms import (
    DiagonalForm,
    form,
    form_literal,
    invariants,
    isometric,
    parse_form,
    witt_decompose,
)
from quadalg.scalars import (
    Laurent,
    Place,
    QuadExtScalar,
    REAL,
    as_scalar,
    div,
    exact_sum,
    hilbert_symbol,
    is_local_square,
    parse_scalar,
    rat,
    relevant_places,
    square_class,
)

FIXED = settings(derandomize=True, max_examples=150, deadline=None, database=None)

PLACES = [REAL] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]

nonzero_ints = st.integers(-3000, 3000).filter(bool)
nonzero_rationals = st.builds(Q, nonzero_ints, st.integers(1, 300))
places = st.sampled_from(PLACES)


def forms_of(a):
    """a as an int (when it is one), as its Fraction and as a*c^2 for
    rational c, which must all be treated alike."""
    return st.builds(lambda c: [a, Q(a), a * c * c], nonzero_rationals)


@FIXED
@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_reciprocity(a, b):
    product = 1
    for v in relevant_places(a, b):
        product *= hilbert_symbol(a, b, v)
    assert product == 1


@FIXED
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals, places)
def test_hilbert_symbol_is_bimultiplicative_and_symmetric(a, b, c, v):
    assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
    assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


@FIXED
@given(nonzero_ints.flatmap(forms_of), nonzero_rationals, places)
def test_scalar_layer_sees_only_the_square_class(variants, b, v):
    int_form = variants[0]
    for a in variants:
        assert square_class(a) == square_class(int_form)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(int_form, b, v)
        assert hilbert_symbol(b, a, v) == hilbert_symbol(b, int_form, v)
        assert is_local_square(a, v) == is_local_square(int_form, v)
        assert relevant_places(a) == relevant_places(int_form)
        assert relevant_places(a, b) == relevant_places(int_form, b)


@FIXED
@given(
    st.lists(nonzero_rationals, min_size=1, max_size=8).flatmap(
        lambda entries: st.tuples(
            st.just(entries),
            st.permutations(entries),
            st.lists(nonzero_rationals, min_size=len(entries), max_size=len(entries)),
        )
    )
)
def test_invariants_ignore_order_and_square_factors(drawn):
    entries, permuted, scales = drawn
    rescaled = [a * c * c for a, c in zip(permuted, scales)]
    assert invariants(form(rescaled)) == invariants(form(entries))


def isometric_variant(entries):
    """A form isometric to <entries>: permuted and rescaled by squares,
    after the binary move <a, b> = <a + b, ab(a + b)> on the first two
    entries (when a + b != 0), which changes their square classes."""
    moved = list(entries)
    if len(moved) > 1 and moved[0] + moved[1]:
        a, b = moved[:2]
        moved[:2] = [a + b, a * b * (a + b)]
    return st.tuples(
        st.permutations(moved),
        st.lists(nonzero_rationals, min_size=len(moved), max_size=len(moved)),
    ).map(lambda t: [x * c * c for x, c in zip(*t)])


small_entries = st.lists(nonzero_rationals, min_size=1, max_size=5)


@FIXED
@given(
    small_entries.flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.one_of(
                isometric_variant(q),
                st.lists(nonzero_rationals, min_size=len(q), max_size=len(q)),
            ),
        )
    ),
    small_entries,
)
def test_witt_cancellation(pair, r_entries):
    """q + r = q' + r implies q = q'; with r and -r both present, the
    opposite classes cancel and the residue carries the answer."""
    (q_entries, q2_entries), r = pair, form(r_entries)
    q, q2 = form(q_entries), form(q2_entries)
    assert isometric(q + r, q2 + r) == isometric(q, q2)
    index, anisotropic = witt_decompose(q + r + -r)
    q_index, q_anisotropic = witt_decompose(q)
    assert index == q_index + r.dim and isometric(anisotropic, q_anisotropic)


@FIXED
@given(st.lists(nonzero_rationals, max_size=8), st.sampled_from(["Q", "R"]))
def test_form_literal_round_trip(entries, field):
    q = DiagonalForm(field, tuple(entries))
    parsed = parse_form(form_literal(q), field)
    assert parsed == q
    assert [type(a) for a in parsed.entries] == [type(rat(a)) for a in entries]


# signs, ASCII digits, Arabic-Indic three, Devanagari seven, superscript two
# (a digit that is not decimal), fullwidth one, and the separators
SCALAR_CHARS = st.sampled_from(list("+-0123456789/ _.eE") + ["\u0663", "\u096d", "\u00b2", "\uff11"])


@FIXED
@example("-0")
@example("007")
@example("4/2")
@example("3/6")
@example("1/0")
@example("+5")
@given(st.text(SCALAR_CHARS, max_size=8))
def test_parse_scalar_reads_what_fraction_reads(text):
    try:
        expected = rat(Q(text.strip()))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_scalar(text)
        return
    got = parse_scalar(text)
    assert got == expected and type(got) is type(expected)


# ------------------------------------------------ the arithmetic fast paths

K = Q(3)
rationals = st.builds(Q, st.integers(-20, 20), st.integers(1, 6))
quads = st.builds(lambda x, y: QuadExtScalar(x, y, K), rationals, rationals)
monomials = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-2, 2).filter(bool)),
    max_size=3,
    unique_by=lambda t: t[0],
).map(lambda pairs: tuple(sorted(pairs)))
laurents = st.lists(st.tuples(monomials, st.one_of(rationals, quads)), max_size=4).map(Laurent)
scalars = st.one_of(st.integers(-5, 5), rationals, quads, st.just(QuadExtScalar(0, 0, K)))


@FIXED
@given(laurents, scalars)
def test_laurent_times_a_scalar_is_the_constant_product(p, c):
    constant = Laurent([((), as_scalar(c))])
    want = p * constant
    for got in (p * c, c * p):
        assert got == want and got.terms == want.terms
        assert all(got.terms.values())  # a product that cancels leaves no term
    if not c:
        assert not (p * c).terms


@FIXED
@given(quads, st.one_of(quads, rationals, st.integers(-5, 5)))
def test_quadext_results_keep_fraction_parts_and_the_field(a, b):
    results = [a + b, b + a, a - b, b - a, a * b, b * a, -a, a.conj()]
    if b:
        results += [a / b]
    if a:
        results += [a.inverse(), b / a]
    for r in results:
        assert type(r) is QuadExtScalar
        assert canonical(r.x) and canonical(r.y)
        assert canonical(r.k) and r.k == a.k


def canonical(v) -> bool:
    """An exact rational in canonical form: an int when it is integral and
    a Fraction otherwise (never an integral Fraction, never a float)."""
    return type(v) is (int if v.denominator == 1 else Q)


def canonical_coefficient(c) -> bool:
    if type(c) is QuadExtScalar:
        return canonical(c.x) and canonical(c.y) and canonical(c.k)
    return canonical(c)


# ints and Fractions, the integral ones included in both forms
exact_rationals = st.one_of(st.integers(-50, 50), rationals, st.integers(-9, 9).map(Q))


@FIXED
@given(exact_rationals, exact_rationals.filter(bool))
def test_div_is_the_exact_quotient_in_canonical_form(a, b):
    q = div(a, b)
    assert q == Q(a) / Q(b)
    assert type(q) is (int if (Q(a) / Q(b)).denominator == 1 else Q)


@FIXED
@given(exact_rationals, st.sampled_from([0, Q(0)]))
def test_div_by_zero_raises_and_nothing_becomes_a_float(a, zero):
    with pytest.raises(ZeroDivisionError):
        div(a, zero)
    for b in (1, 2, 3, -7, Q(2, 3)):
        assert not isinstance(div(a, b), float)
        if a:
            assert not isinstance(div(b, a), float)


@FIXED
@given(quads, st.one_of(quads, exact_rationals))
def test_quadext_results_have_canonical_parts(a, b):
    results = [a + b, b + a, a - b, b - a, a * b, b * a, -a, a.conj()]
    results.append(QuadExtScalar(a.x, Q(2), Q(3)))  # the constructor demotes too
    if b:
        results += [div(a, b)]
    if a:
        results += [a.inverse(), div(b, a)]
    for r in results:
        assert type(r) is QuadExtScalar and canonical_coefficient(r)
    assert canonical(a.norm()) and canonical(a.trace())


@FIXED
@given(laurents, laurents, st.one_of(exact_rationals, quads), monomials, st.integers(-2, 2))
def test_laurent_results_have_canonical_coefficients(p, r, c, m, n):
    monomial = Laurent([(m, 2)])
    results = [p + r, p - r, p * r, p * c, c * p, p + c, -p, p.conj()]
    results += [div(p, monomial), p * monomial**n, monomial**n]  # n = 0 included
    if c:
        results.append(div(p, c))
    for f in results:
        assert type(f) is Laurent and all(canonical_coefficient(x) for x in f.terms.values())
    assert (monomial**n) * (monomial**-n) == 1


@FIXED
@given(st.lists(st.one_of(exact_rationals, quads, laurents), max_size=6))
def test_exact_sum_is_the_sum_in_canonical_form(values):
    total = exact_sum(values)
    assert total == sum(values, 0)
    if type(total) is Laurent:
        assert all(canonical_coefficient(x) for x in total.terms.values())
    else:
        assert canonical_coefficient(total)
    assert type(exact_sum([])) is int and exact_sum([]) == 0


def test_quadext_still_rejects_a_square_k():
    with pytest.raises(ValueError):
        QuadExtScalar(1, 1, 4)
