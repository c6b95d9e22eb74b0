import random
from fractions import Fraction as Q

import pytest

from quadalg import cayley, verify
from quadalg.cayley import (
    BASIS,
    Octonion,
    Similitude,
    SimilitudeTriple,
    S8,
    build_cayley_table,
    coboundary_triple,
    diag_d,
    generic_a,
    generic_octonion,
    is_related_triple,
    m_matrix,
    perm_P,
    special_cocycle,
    special_cocycle_iota_closed_form,
    u,
)
from quadalg.exactmat import freeze, identity, mat_inv, mat_mul, mat_vec, pairing, scal_mul
from quadalg.scalars import QuadExtScalar, div, is_square, variable

from reference import ONE, calibration_search


def rnd_oct(rng, lo=-4, hi=4):
    return Octonion([Q(rng.randint(lo, hi)) for _ in range(8)])


def test_gram_and_involution_tables():
    table = build_cayley_table()
    assert table.gram_deviations() == {(3, 6): Q(1, 2), (4, 5): Q(1, 2)}
    for i in (1, 2, 3, 6, 7, 8):
        assert u(i).conj() == -u(i)
    assert u(4).conj() == u(5) and u(5).conj() == u(4)
    # S8 values on the unaffected pairs
    assert u(1).norm_pairing(u(8)) == 1
    assert u(2).norm_pairing(u(7)) == 1
    assert all(u(i).norm() == 0 for i in range(1, 9))


CANDIDATE_SCALES = (Q(-2), Q(1), Q(1), Q(1), Q(1), Q(-1), Q(-2), Q(1))


def reference_products(scales):
    """Reference: the dense coordinates of u_i u_j, from the Zorn product of
    Fraction unit vectors, scaled and relabelled by hand.  u_i is
    scales[i] times the unit of slot `_SLOTS[i]`, so a coefficient c at
    slot `_SLOTS[t]` of slot(i) slot(j) is scales[i] scales[j] c /
    scales[t] at u_t."""
    f0, f1 = Q(0), Q(1)
    unit = lambda a: tuple(f1 if m == a else f0 for m in range(8))
    u_at = {slot: t for t, slot in enumerate(cayley._SLOTS)}
    products = [[None] * 8 for _ in range(8)]
    for i, a in enumerate(cayley._SLOTS):
        for j, b in enumerate(cayley._SLOTS):
            coords = [f0] * 8
            for m, c in enumerate(cayley._zorn_mul(unit(a), unit(b))):
                t = u_at[m]
                coords[t] = Q(scales[i]) * scales[j] * c / scales[t]
            products[i][j] = tuple(coords)
    return products


def reference_mul_coords(products, x, y):
    """Reference: the dense product, every entry of every reference row,
    one running sum per output coordinate."""
    out = [0] * 8
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for m, g in enumerate(products[i][j]):
                if g:
                    out[m] = out[m] + c * g
    return tuple(Q(0) + v for v in out)


def candidate_table():
    """A calibration_search candidate that is not the calibrated table."""
    return cayley.CayleyTable(*cayley._build_tables(CANDIDATE_SCALES))


TABLES = {
    "calibrated": (build_cayley_table, cayley._CAL_SCALES),
    "candidate": (candidate_table, CANDIDATE_SCALES),
}


def coordinate_pairs():
    rng = random.Random(12)
    k = Q(3)
    x, y = generic_octonion("x").coords, generic_octonion("y").coords
    z = special_cocycle(generic_a())
    rational = lambda: tuple(Q(rng.choice([-3, -1, 0, 0, 1, 2]), rng.randint(1, 3)) for _ in range(8))
    quad = lambda: tuple(QuadExtScalar(rng.randint(-2, 2), rng.randint(-2, 2), k) for _ in range(8))
    return {
        "generic": (x, y),
        "generic_square": (x, x),  # coordinates whose terms cancel
        "generic_times_rational": (x, rational()),
        "multi_term": (mat_vec(z.t[0].matrix, x), mat_vec(z.t[1].matrix, y)),
        "sum_of_generics": (tuple(a + b for a, b in zip(x, y)), tuple(a - b for a, b in zip(x, y))),
        "quadratic": (quad(), quad()),
        "rational": (rational(), rational()),
        "unit": (ONE.coords, x),
    }


@pytest.mark.parametrize("name", sorted(TABLES))
def test_sparse_product_matches_the_dense_reference(name):
    build, scales = TABLES[name]
    table, products = build(), reference_products(scales)
    for pair, (x, y) in coordinate_pairs().items():
        got, want = cayley._mul_coords(table, x, y), reference_mul_coords(products, x, y)
        assert got == want, pair
        assert [type(v) for v in got] == [type(v) for v in want], pair


def test_structure_constants_are_the_nonzero_products():
    assert candidate_table().constants != build_cayley_table().constants
    for build, scales in TABLES.values():
        table, products = build(), reference_products(scales)
        for i in range(8):
            for j in range(8):
                dense = [Q(0)] * 8
                for m, g in table.constants[i][j]:
                    assert g != 0
                    dense[m] = g
                assert tuple(dense) == products[i][j]


def test_integral_structure_constants_are_ints():
    """Each constant is held in canonical form: an int when integral, else
    a Fraction, whatever the type of the scales it was built from."""
    for build, _ in TABLES.values():
        for row in build().constants:
            for entries in row:
                for _, g in entries:
                    assert type(g) is (int if g.denominator == 1 else Q), g


def test_the_one_map_gives_s8_and_related_z_triples_over_q_sqrt_2():
    """Over K = Q(sqrt 2), with u3, u4, u5 scaled by s = sqrt 2 and u6 by
    -s, the one monomial map gives the Gram S8 exactly, and the generic
    z-triple is related on that table."""
    s = QuadExtScalar(0, 1, 2)
    table = cayley.CayleyTable(*cayley._build_tables((2, 2, s, s, s, -s, -1, -1)))
    assert table.gram == S8
    assert cayley._relates(table, special_cocycle(generic_a()))


def test_unit_and_algebra_basics():
    rng = random.Random(0)
    x = rnd_oct(rng)
    assert ONE * x == x and x * ONE == x
    assert x.conj().conj() == x
    assert x.conj().norm() == x.norm()
    assert x * x.conj() == x.norm() * ONE
    assert x.conj() == 2 * x.norm_pairing(ONE) * ONE - x


def test_composition_is_exactly_multiplicative():
    """The polarized identity B(xy, x'y') + B(xy', x'y) = B(x,x')B(y,y')
    on all basis 4-tuples proves n(xy) = n(x)n(y) for every x, y."""

    def B(a, b):
        return 2 * a.norm_pairing(b)

    prods = [[BASIS[i] * BASIS[j] for j in range(8)] for i in range(8)]
    for i in range(8):
        for k in range(8):
            bik = B(BASIS[i], BASIS[k])
            for j in range(8):
                for l in range(8):
                    lhs = B(prods[i][j], prods[k][l]) + B(prods[i][l], prods[k][j])
                    assert lhs == bik * B(BASIS[j], BASIS[l])


def test_star_product():
    rng = random.Random(1)
    x, y = rnd_oct(rng), rnd_oct(rng)
    assert ONE.conj() * ONE.conj() == ONE
    assert x.conj() * ONE.conj() == x.conj()
    assert ONE.conj() * y.conj() == y.conj()
    assert u(1).conj() * u(8).conj() == -u(1) * -u(8)
    assert (x.conj() * y.conj()).norm() == x.norm() * y.norm()


def test_similitude_basics():
    p = Similitude(perm_P())
    assert p.mu == 1
    assert p.sigma_n() == p and p.det() == p.mu**4
    eye = Similitude(identity(8))
    assert eye.mu == 1
    with pytest.raises(ValueError):
        # singular matrices are not similitudes
        Similitude(freeze(tuple(tuple(Q(0) for _ in range(8)) for _ in range(8))))
    with pytest.raises(ValueError):
        # swapping u1 and u3 mixes pairs with different Gram values
        m = [[Q(int(i == j)) for j in range(8)] for i in range(8)]
        m[0][0] = m[2][2] = Q(0)
        m[0][2] = m[2][0] = Q(1)
        Similitude(freeze(m))


def test_sigma_n_involution_and_mu_multiplicativity():
    rng = random.Random(2)
    a = (Q(2), Q(3), Q(1, 6))
    z = special_cocycle(a)
    for s in z.t:
        assert s.sigma_n().sigma_n() == s
        assert mat_mul(s.sigma_n().matrix, s.matrix) == scal_mul(s.mu, identity(8))
    s, t = z.t[0], z.t[1]
    st = Similitude(mat_mul(s.matrix, t.matrix))
    assert st.mu == s.mu * t.mu


def test_m_matrix_properties():
    a = (Q(1), Q(3), Q(1, 3))
    for j in range(3):
        m = Similitude(m_matrix(j, a))
        assert m.mu == a[j]
        assert m.det() == a[j] ** 4
        assert m.det() == m.mu**4


def test_related_triples():
    eye = Similitude(identity(8))
    neg = Similitude(scal_mul(Q(-1), identity(8)))
    assert is_related_triple(SimilitudeTriple((eye, eye, eye)))
    assert is_related_triple(SimilitudeTriple((eye, neg, neg)))
    assert not is_related_triple(SimilitudeTriple((neg, eye, eye)))
    # multipliers of a related triple always multiply to 1
    z = special_cocycle((Q(2), Q(5), Q(1, 10)))
    mus = z.multipliers
    assert mus[0] * mus[1] * mus[2] == 1


def basis_related(T):
    """The pointwise reference: the relatedness identity on all 64 basis
    pairs, which span every pair by bilinearity."""

    def image(s, x):
        return Octonion(mat_vec(s.matrix, x.coords))

    return all(
        image(T[i], x.conj() * y.conj())
        == T[i].mu * (image(T[i + 2], x).conj() * image(T[i + 1], y).conj())
        for i in range(3)
        for x in BASIS
        for y in BASIS
    )


def test_generic_relatedness_agrees_with_basis_pairs():
    eye = Similitude(identity(8))
    neg = Similitude(scal_mul(Q(-1), identity(8)))
    two = Similitude(scal_mul(Q(2), identity(8)))
    z = special_cocycle((Q(2), Q(5), Q(1, 10)))
    triples = [
        (eye, eye, eye),
        (eye, neg, neg),
        (neg, eye, eye),
        (two, eye, eye),
        z.t,
        (z.t[1], z.t[0], z.t[2]),
        (z.t[0], z.t[1], Similitude(mat_mul(z.t[2].matrix, neg.matrix))),
    ]
    verdicts = [is_related_triple(SimilitudeTriple(t)) for t in triples]
    assert verdicts == [basis_related(SimilitudeTriple(t)) for t in triples]
    assert verdicts == [True, True, False, False, True, False, False]


def test_z_related_for_the_generic_a():
    a = generic_a()
    assert a[0] * a[1] * a[2] == 1
    z = special_cocycle(a)
    assert is_related_triple(z)
    assert z.multipliers == a
    assert all(s.det() == s.mu**4 for s in z.t)


def test_special_cocycle():
    with pytest.raises(ValueError):
        special_cocycle((Q(1), Q(2), Q(3)))
    a = (Q(1), Q(3), Q(1, 3))
    z = special_cocycle(a)
    assert z.multipliers == a
    assert is_related_triple(z)
    assert all(s.det() == s.mu**4 for s in z.t)
    assert verify.cocycle_verdict(z)[1]["cocycle_condition"] is True
    for j in range(3):
        assert z.t[j].iota_twisted().matrix == special_cocycle_iota_closed_form(j, a)
    # a = (1,1,1): z_j = dP
    triv = special_cocycle((Q(1), Q(1), Q(1)))
    dp = mat_mul(diag_d(), perm_P())
    assert all(s.matrix == dp for s in triv.t)


def test_z_related_for_random_product_one_triples():
    rng = random.Random(3)
    for _ in range(5):
        a0 = Q(rng.randint(1, 8))
        a1 = Q(rng.randint(1, 8), rng.randint(1, 4))
        a = (a0, a1, 1 / (a0 * a1))
        z = special_cocycle(a)
        assert is_related_triple(z)
        assert z.multipliers == a
        assert all(s.det() == s.mu**4 for s in z.t)


def test_coboundary_triple_and_freedom():
    k = Q(2)
    one = QuadExtScalar(1, 0, k)
    with pytest.raises(ValueError):
        coboundary_triple((one, one, QuadExtScalar(2, 0, k)))  # product != 1
    lam = (QuadExtScalar(3, -2, k), QuadExtScalar(1, 1, k), QuadExtScalar(1, 1, k))
    ell = coboundary_triple(lam)
    assert is_related_triple(ell)
    # the freedom identity iota(l_j) z_{a',j} l_j^-1 = z_{a,j} is P24's claim
    (p24,) = verify.run_checks(only="P24")
    assert p24.witness["freedom_identity"] == [True] * 3
    # identity case: lambda = (1,1,1)
    assert all(s.matrix == identity(8) for s in coboundary_triple((one, one, one)).t)


def test_k_coefficient_triples_related():
    # K-valued product-one triples give related triples over K (group
    # elements; the K/F cocycle condition is particular to F-valued a)
    k = Q(3)
    a = (
        QuadExtScalar(1, 0, k),
        QuadExtScalar(2, 1, k),
        QuadExtScalar(2, 1, k).inverse(),
    )
    z = special_cocycle(a)
    assert is_related_triple(z)
    assert z.multipliers == a


def test_calibration_search_documents_the_obstruction():
    res = calibration_search()
    # the 64 candidates off S8 only at (4,5) all keep the involution table
    # and none relates the z-triples: relatedness pins (3,6)
    assert res["s8_except_45"] == 64
    assert res["s8_except_45_with_involution"] == 64
    assert res["s8_except_45_with_relatedness"] == 0
    assert res["calibrated"]["scales"] == cayley._CAL_SCALES
    devs = res["calibrated"]["gram_deviations"]
    assert set(devs) == {(3, 6), (4, 5)}
    # (4,5): the involution makes u4 + u5 = trace(u4) 1, so
    # n(u4 + u5) = trace(u4)^2, here 1 = 1^2; S8's n(u4, u5) = 1 would
    # make n(u4 + u5) = 2, and 2 is no rational square
    w = u(4) + u(5)
    trace_u4 = 2 * u(4).norm_pairing(ONE)
    assert u(4).conj() == u(5) and w == trace_u4 * ONE
    assert w.norm() == trace_u4**2 == 1
    assert pairing(S8, w.coords, w.coords) == 2 and not is_square(Q(2))


def special_family_cases():
    """Seeded product-one triples over Q, over Q(sqrt k) and of Laurent
    monomials."""
    rng = random.Random(20)
    cases = []
    for _ in range(3):
        a0, a1 = Q(rng.randint(1, 9), rng.randint(1, 4)), Q(-rng.randint(1, 9), rng.randint(1, 4))
        cases.append((a0, a1, 1 / (a0 * a1)))
    for k in (Q(2), Q(-1), Q(5)):
        b = QuadExtScalar(rng.randint(1, 5), rng.randint(-3, 3), k)
        cases.append((QuadExtScalar(1, 0, k), b, b.inverse()))
    s, t = variable("s"), variable("t")
    cases.append((s, t * t, div(1, s * t * t)))
    cases.append((s, div(1, s), 1))
    return cases


@pytest.mark.parametrize("a", special_family_cases())
def test_the_family_shortcut_agrees_with_the_direct_proof(a):
    z = special_cocycle(a)
    direct = cayley._relates(build_cayley_table(), z)
    assert direct and is_related_triple(z) == direct


def count_relates(monkeypatch):
    calls = []
    real = cayley._relates
    monkeypatch.setattr(cayley, "_relates", lambda table, T: calls.append(T) or real(table, T))
    return calls


def test_the_special_family_is_proved_once(monkeypatch):
    cayley._special_family_related.cache_clear()
    calls = count_relates(monkeypatch)
    for a in special_family_cases():
        assert is_related_triple(special_cocycle(a))
    assert calls == [special_cocycle(generic_a())]


def test_product_one_triples_that_are_not_special_are_proved_directly(monkeypatch):
    eye = Similitude(identity(8))
    neg = Similitude(scal_mul(Q(-1), identity(8)))
    k = Q(2)
    lam = (QuadExtScalar(3, -2, k), QuadExtScalar(1, 1, k), QuadExtScalar(1, 1, k))
    z = special_cocycle((Q(2), Q(5), Q(1, 10)))
    triples = [
        SimilitudeTriple((eye, neg, neg)),  # the kernel triple
        coboundary_triple(lam),
        SimilitudeTriple((z.t[1], z.t[0], z.t[2])),  # multipliers permuted
    ]
    for T in triples:
        mus = T.multipliers
        assert mus[0] * mus[1] * mus[2] == 1
    calls = count_relates(monkeypatch)
    assert [is_related_triple(T) for T in triples] == [True, True, False]
    assert calls == triples
