import random
from fractions import Fraction as Q

import pytest

from quadalg import albert, cayley, descent, verify
from quadalg.albert import (
    AlbertElement,
    AlbertMap,
    IDENTITY,
    ZERO,
    a_form_value,
    a_project,
    c_only,
    cross,
    e_idem,
    g_map,
    identity_map,
    in_subgroup_H,
    moving_lemma_data,
    norm_N,
    preserves_a_form,
    psi,
    restrict_to_A,
    sharp,
    swap_map,
    trace_form_T,
    trilinear_N,
)
from quadalg.cayley import Octonion, Similitude, SimilitudeTriple, u
from quadalg.exactmat import (
    dense,
    det as mdet,
    freeze,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    pullback,
    rank,
    scal_mul,
)
from quadalg.scalars import QuadExtScalar, variable

from reference import ALBERT_BASIS, ONE, a_embed, linear_map_from_action

rng_pool = [-3, -2, -1, 0, 0, 1, 2, 3]


def rnd_albert(rng, denom=2):
    return AlbertElement([Q(rng.choice(rng_pool), rng.randint(1, denom)) for _ in range(27)])


def rnd_oct(rng):
    return Octonion([Q(rng.choice(rng_pool)) for _ in range(8)])


def special_z(a=Q(3)):
    return cayley.special_cocycle((Q(1), a, 1 / a))


# Independent routes, kept here as references for the closed forms.


def to_matrix(x):
    """The hermitian 3x3 octonion matrix of x: eps_i on the diagonal, c_i in
    the (i+1, i+2) slot and conj(c_i) in the (i+2, i+1) slot."""
    m = [[Octonion([0] * 8)] * 3 for _ in range(3)]
    for i in range(3):
        m[i][i] = x.eps[i] * ONE
        m[(i + 1) % 3][(i + 2) % 3] = x.c[i]
        m[(i + 2) % 3][(i + 1) % 3] = x.c[i].conj()
    return m


def from_matrix(m):
    """The Albert element of a hermitian octonion matrix; raises on any
    other matrix."""
    eps = []
    for i in range(3):
        d = m[i][i]
        if d.coords[3] != d.coords[4] or any(bool(d.coords[t]) for t in (0, 1, 2, 5, 6, 7)):
            raise ValueError("matrix is not hermitian: diagonal not scalar")
        eps.append(d.coords[3])
    c = [m[1][2], m[2][0], m[0][1]]
    for i in range(3):
        if m[(i + 2) % 3][(i + 1) % 3] != c[i].conj():
            raise ValueError("matrix is not hermitian")
    return albert.element(eps, c)


def mat3_mul(a, b):
    return [
        [
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            for j in range(3)
        ]
        for i in range(3)
    ]


def jordan_product(x, y):
    """x . y = (xy + yx)/2 in the hermitian matrix representation."""
    mx, my = to_matrix(x), to_matrix(y)
    p, q = mat3_mul(mx, my), mat3_mul(my, mx)
    half = Q(1, 2)
    return from_matrix(
        [[half * (p[i][j] + q[i][j]) for j in range(3)] for i in range(3)]
    )


def sharp_via_matrix(x):
    """x# = x^2 - T(x) x + sigma(x) 1 from the matrix representation
    (sigma the second characteristic coefficient)."""
    m = to_matrix(x)
    m2 = mat3_mul(m, m)
    t1 = x.eps[0] + x.eps[1] + x.eps[2]
    sq = from_matrix(m2)
    t2 = sq.eps[0] + sq.eps[1] + sq.eps[2]
    sigma = Q(1, 2) * (t1 * t1 - t2)
    return sq - t1 * x + sigma * IDENTITY


def cross_by_duality(x, y):
    """The defining route for the cross product: solve the T-duality
    against all 27 basis vectors."""
    vals = [6 * trilinear_N(x, y, b) for b in ALBERT_BASIS]
    return AlbertElement(mat_vec(albert._t_gram_inv(), vals))


def psi_via_action(i, j, x):
    """The defining route for psi_ij(x): the congruence by 1 + x E_ij run on
    each of the 27 basis elements."""

    def act(a):
        m = to_matrix(a)
        # left-multiply by 1 + x E_ij: row i gains x * row j
        m1 = [row[:] for row in m]
        m1[i - 1] = [m[i - 1][t] + x * m[j - 1][t] for t in range(3)]
        # right-multiply by 1 + conj(x) E_ji: column i gains column j * conj(x)
        xbar = x.conj()
        m2 = [row[:] for row in m1]
        for t in range(3):
            m2[t][i - 1] = m1[t][i - 1] + m1[t][j - 1] * xbar
        return from_matrix(m2)

    return linear_map_from_action(act)


def swap_via_action():
    return linear_map_from_action(
        lambda x: albert.element(
            (x.eps[0], x.eps[2], x.eps[1]), (x.c[0].conj(), x.c[2].conj(), x.c[1].conj())
        )
    )


def norm_via_two_products(x):
    """N(x) with t((c0 c1) c2) read off the second product."""
    e0, e1, e2 = x.eps
    c0, c1, c2 = x.c
    return e0 * e1 * e2 - e0 * c0.norm() - e1 * c1.norm() - e2 * c2.norm() + 2 * ((c0 * c1) * c2).norm_pairing(ONE)


def a_gram_algebra():
    """Polarized Gram of the intrinsic A-form T(e0, j#) = eps1 eps2 - n(c)
    in the A basis order; differs from the display at the hyperbolic
    e-block (by 2) and at the two calibrated octonion pairs.  Read off the
    form at the generic v in A: v_r v_c has coefficient (1 + [r != c]) g_rc."""
    v = [variable(f"v{s}") for s in range(10)]
    q = trace_form_T(e_idem(0), sharp(a_embed(v))).terms
    entry = lambda r, c: q.get(next(iter((v[r] * v[c]).terms)), Q(0)) / (1 + (r != c))
    return freeze([[entry(r, c) for c in range(10)] for r in range(10)])


def in_H_via_dagger(f):
    """The 27-dimensional route to H: f and dagger(f) applied to e0."""
    e0 = e_idem(0)
    return f(e0) == e0 and f.dagger()(e0) == e0


def restrict_via_embedding(f):
    """The 27-dimensional route to the A-restriction: f on each embedded
    A basis vector, projected back to A."""
    if not in_H_via_dagger(f):
        raise ValueError("map is not in H")
    cols = [a_project(f(a_embed([int(t == s) for t in range(10)]))) for s in range(10)]
    return freeze([[cols[c][r] for c in range(10)] for r in range(10)])


def test_jordan_and_trace_basics():
    e0, e1 = e_idem(0), e_idem(1)
    assert jordan_product(e0, e0) == e0
    assert jordan_product(e0, e1) == ZERO
    assert trace_form_T(e0, e0) == 1
    assert norm_N(IDENTITY) == 1
    assert norm_N(e_idem(0) + e_idem(1) + Q(5) * e_idem(2)) == 5
    rng = random.Random(0)
    x, y = rnd_albert(rng), rnd_albert(rng)
    assert jordan_product(x, y) == jordan_product(y, x)
    assert trace_form_T(x, y) == trace_form_T(y, x)


def test_trace_form_is_nondegenerate():
    from quadalg.albert import _t_gram

    assert mdet(_t_gram()) != 0
    assert rank(_t_gram()) == 27


def test_closed_form_t_gram_is_the_trace_form():
    """Each entry of the T-Gram, which `trace_form_T` pairs by, is
    trace(a . b) for basis elements a, b, on the matrix route."""
    from quadalg.albert import _t_gram

    g = dense(_t_gram())
    for m, a in enumerate(ALBERT_BASIS):
        for n, b in enumerate(ALBERT_BASIS):
            t = g[m][n]
            assert t == sum(jordan_product(a, b).eps)
            # canonical form: an int when integral, else a Fraction
            assert type(t) is (int if t.denominator == 1 else Q)


def test_c_slot_trace_pairing():
    rng = random.Random(1)
    for i in range(3):
        x8, y8 = rnd_oct(rng), rnd_oct(rng)
        got = trace_form_T(c_only(i, x8), c_only(i, y8))
        assert got == 2 * x8.norm_pairing(y8)


def test_sharp_closed_form_matches_matrix_route():
    rng = random.Random(2)
    for _ in range(15):
        x = rnd_albert(rng)
        assert sharp(x) == sharp_via_matrix(x)
        assert sharp(sharp(x)) == norm_N(x) * x  # the adjoint identity


def test_norm_duality_identities():
    rng = random.Random(3)
    for _ in range(10):
        x, y = rnd_albert(rng), rnd_albert(rng)
        assert 6 * norm_N(x) == trace_form_T(x, cross(x, x))
        assert cross(x, y) == cross_by_duality(x, y)
        assert trilinear_N(x, x, x) == norm_N(x)


def test_cross_examples():
    e = [e_idem(i) for i in range(3)]
    for i in range(3):
        assert cross(e[i], e[(i + 1) % 3]) == e[(i + 2) % 3]
    assert sharp(e[0]) == ZERO
    assert sharp(e[0] + e[1]) == e[2]
    j = c_only(0, Q(1, 2) * (u(2) + u(8)))
    assert sharp(j) == ZERO


def test_mccrimmon_linearization_instance():
    rng = random.Random(4)
    e0 = e_idem(0)
    for _ in range(50):
        y = rnd_albert(rng)
        assert cross(e0, cross(e0, cross(e0, y))) == cross(e0, y)


def test_g_action():
    eye = Similitude(identity(8))
    trip = SimilitudeTriple((eye, eye, eye))
    assert g_map(trip) == identity_map()
    rng = random.Random(5)
    x = rnd_albert(rng)
    neg = Similitude(scal_mul(Q(-1), identity(8)))
    gm = g_map(SimilitudeTriple((eye, neg, neg)))(x)
    assert gm.eps == x.eps
    assert gm.c[0] == x.c[0] and gm.c[1] == -x.c[1] and gm.c[2] == -x.c[2]
    # unrelated triples are rejected
    with pytest.raises(ValueError):
        g_map(SimilitudeTriple((neg, eye, eye)))


def test_g_preserves_norm():
    z = special_z(Q(5))
    assert g_map(z).preserves_norm()
    gz = g_map(z)
    rng = random.Random(6)
    for _ in range(10):
        x = rnd_albert(rng)
        assert norm_N(gz(x)) == norm_N(x)


def test_preserves_norm_rejects_non_isometries():
    assert identity_map().preserves_norm()
    assert not albert.AlbertMap(scal_mul(Q(2), identity(27))).preserves_norm()
    assert not albert.AlbertMap(scal_mul(Q(-1), identity(27))).preserves_norm()
    # the bar-less slot swap is not a norm isometry (see swap_map)
    barless = linear_map_from_action(
        lambda x: albert.element((x.eps[0], x.eps[2], x.eps[1]), (x.c[0], x.c[2], x.c[1]))
    )
    assert not barless.preserves_norm()


def test_g_map_of_the_generic_z_triple_preserves_norm():
    a = cayley.generic_a()
    assert g_map(cayley.special_cocycle(a)).preserves_norm()


def test_specialcor_and_moving_lemma():
    z = special_z()
    c = Q(1, 2) * (u(2) + u(8))
    j = c_only(0, c)
    assert c.norm() == 0 and sharp(j) == ZERO
    assert moving_lemma_data(z, j) == (1, c_only(0, Q(1, 2) * (u(1) + u(7))))
    # r = T(j, eta iota j) is bilinear in j: scaling j by s scales r by s^2
    assert moving_lemma_data(z, Q(3) * j)[0] == 9
    with pytest.raises(ValueError):
        moving_lemma_data(z, ZERO)  # r = 0 hypothesis failure
    with pytest.raises(ValueError):
        moving_lemma_data(z, c_only(1, u(1)))  # not in e0 x J
    with pytest.raises(ValueError):
        moving_lemma_data(z, a_embed([1, 0, 0, 0, 1, 1, 0, 0, 0, 0]))  # sharp != 0
    # e1 is a rank-one element of A; its r-value is mu(t1)^{-1}
    assert moving_lemma_data(z, e_idem(1))[0] == Q(1, 3)


def test_dagger():
    z = special_z()
    gz = g_map(z)
    assert identity_map().dagger() == identity_map()
    assert gz.dagger().dagger() == gz
    want = g_map(
        SimilitudeTriple(
            tuple(Similitude(mat_inv(s.sigma_n().matrix)) for s in z.t)
        )
    )
    assert gz.dagger() == want
    p = psi(3, 2, u(5))
    assert AlbertMap(mat_mul(gz.matrix, p.matrix)).dagger() == AlbertMap(
        mat_mul(gz.dagger().matrix, p.dagger().matrix)
    )
    rng = random.Random(7)
    x, y = rnd_albert(rng), rnd_albert(rng)
    assert trace_form_T(gz(x), gz.dagger()(y)) == trace_form_T(x, y)


def test_psi():
    assert psi(3, 2, Octonion([Q(0)] * 8)) == identity_map()
    for i, j in ((2, 2), (1, 4), (4, 1), (0, 2)):
        with pytest.raises(ValueError):
            psi(i, j, u(5))
    p = psi(3, 2, u(5))
    assert in_subgroup_H(p)
    assert p.preserves_norm()
    assert p.dagger() == psi(2, 3, -u(4))
    # psi with index 1 does not fix e0
    q = psi(1, 2, u(5))
    assert q.preserves_norm()
    assert not in_subgroup_H(q)


PAIRS = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]


@pytest.mark.parametrize("i, j", PAIRS)
def test_psi_closed_form_is_the_congruence(i, j):
    # the generic octonion stands for every x: both sides are linear maps
    # whose entries are polynomials in its coordinates
    k = QuadExtScalar
    over_k = Octonion([k(1, 2, 3), 0, 0, Q(1, 2), 0, k(0, 1, 3), 0, k(-1, 1, 3)])
    for x in (cayley.generic_octonion("x"), over_k, u(5), -u(4)):
        assert psi(i, j, x) == psi_via_action(i, j, x)


def test_swap_map_closed_form_is_the_congruence():
    assert swap_map() == swap_via_action()


def test_cross_and_norm_closed_forms_on_generic_elements():
    x, y = albert.generic_element("x"), albert.generic_element("y")
    assert cross(x, y) == sharp(x + y) - sharp(x) - sharp(y)
    assert norm_N(x) == norm_via_two_products(x)


def test_a_cold_ledger_forms_each_generic_value_once(monkeypatch):
    """One cold pass forms the star product of the generic octonions, the
    norm of the generic Albert element and d P once each: the checks that
    need them share one value."""
    from test_ledger_mutants import clear_caches

    x, y = cayley.generic_octonion("x").coords, cayley.generic_octonion("y").coords
    star_args = (cayley._conj_coords(x), cayley._conj_coords(y))
    generic = albert.generic_element("x")
    d, p = cayley.diag_d(), cayley.perm_P()
    counts = {"X star Y": 0, "N(X)": 0, "d P": 0}
    mul_coords, real_norm, real_mat_mul = cayley._mul_coords, albert.norm_N, cayley.mat_mul

    def counted_mul_coords(table, a, b):
        counts["X star Y"] += (a, b) == star_args
        return mul_coords(table, a, b)

    def counted_norm(e):
        counts["N(X)"] += e == generic
        return real_norm(e)

    def counted_mat_mul(a, b):
        counts["d P"] += a == d and b == p
        return real_mat_mul(a, b)

    clear_caches()
    monkeypatch.setattr(cayley, "_mul_coords", counted_mul_coords)
    monkeypatch.setattr(albert, "norm_N", counted_norm)
    monkeypatch.setattr(cayley, "mat_mul", counted_mat_mul)
    try:
        reports = verify.run_checks()
    finally:
        monkeypatch.undo()
        clear_caches()
    assert [r.status for r in reports].count("pass") == 28
    assert counts == {"X star Y": 1, "N(X)": 1, "d P": 1}


def test_restrict_to_A():
    z = special_z()
    gz = g_map(z)
    r = restrict_to_A(gz)
    assert preserves_a_form(r)
    assert mdet(r) == 1
    p = psi(3, 2, u(5))
    rp = restrict_to_A(p)
    assert preserves_a_form(rp) and mdet(rp) == 1
    # V45(1) shape in A coordinates
    expect = [[Q(int(i == j)) for j in range(10)] for i in range(10)]
    expect[3][4] += 1
    expect[5][6] += 1
    assert rp == freeze(expect)
    with pytest.raises(ValueError):
        restrict_to_A(psi(1, 2, u(5)))  # not in H


def test_swap_map():
    sw = swap_map()
    assert in_subgroup_H(sw)
    assert sw.preserves_norm()
    r = restrict_to_A(sw)
    assert mdet(r) == 1  # the norm-preserving swap; see the module notes
    g = a_gram_algebra()
    assert pullback(r, g) == g


def test_a_subspace():
    g = [variable(f"v{s}") for s in range(10)]
    assert a_form_value(g) == 2 * g[4] * g[5] - 2 * sum(g[r] * g[9 - r] for r in range(4))
    v = [Q(0)] * 10
    v[4], v[5] = Q(1), Q(1)  # e1 + e2
    assert a_form_value(v) == 2
    j = a_embed(v)
    assert trace_form_T(e_idem(0), sharp(j)) == 1  # the algebra A-form value
    with pytest.raises(ValueError):
        a_project(e_idem(0))
    x = a_embed([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert a_project(x) == tuple(Q(t) for t in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10))


def test_serialization_round_trip():
    rng = random.Random(8)
    x = rnd_albert(rng)
    assert AlbertElement(x.coords) == albert.element(x.eps, x.c) == x
    m = g_map(special_z())
    y = m(x)
    assert AlbertElement(y.coords) == albert.element(y.eps, y.c) == y


def kernel_triple():
    eye = Similitude(identity(8))
    neg = Similitude(scal_mul(Q(-1), identity(8)))
    return SimilitudeTriple((eye, neg, neg))


def h_cases():
    """The maps in H: g-maps of special cocycles over Q and Q(sqrt k), psi
    maps, the slot swap, the identity and the kernel triple's; and two not
    in H: psi(1, 2, u5) fixes e0 but its dagger does not, psi(2, 1, u5)
    moves e0."""
    ks = [QuadExtScalar(x, y, k) for x, y, k in ((1, 1, Q(2)), (2, -3, Q(-1)), (0, 1, Q(7)))]
    in_h = [g_map(special_z(a)) for a in (Q(3), Q(-2, 5), Q(7, 4), *ks)]
    in_h += [psi(3, 2, u(5)), psi(2, 3, Q(1, 2) * u(1) - u(7)), swap_map(), identity_map()]
    in_h.append(g_map(kernel_triple()))
    return in_h, [psi(1, 2, u(5)), psi(2, 1, u(5))]


def test_h_and_the_a_restriction_agree_with_the_27_dimensional_route():
    in_h, outside = h_cases()
    e0 = e_idem(0)
    assert outside[0](e0) == e0 and outside[1](e0) != e0
    for f in in_h + outside:
        assert in_subgroup_H(f) == in_H_via_dagger(f) == (f in in_h)
    for f in in_h:
        got, want = restrict_to_A(f), restrict_via_embedding(f)
        assert all(x == y and str(x) == str(y) for r, s in zip(dense(got), dense(want)) for x, y in zip(r, s))
    for f in outside:
        for route in (restrict_to_A, restrict_via_embedding):
            with pytest.raises(ValueError):
                route(f)


def test_singular_and_a_leaving_maps_are_rejected_by_both_routes():
    singular = [list(row) for row in dense(identity(27))]
    singular[26][26] = 0  # fixes e0 but has no dagger
    singular = AlbertMap(freeze(singular))
    for route in (in_subgroup_H, in_H_via_dagger, restrict_to_A, restrict_via_embedding):
        with pytest.raises(ValueError, match="dagger needs an invertible map"):
            route(singular)
    leaving = [list(row) for row in dense(identity(27))]
    leaving[12][3] = 1  # fixes e0 with its dagger, but moves u1 out of A
    leaving = AlbertMap(freeze(leaving))
    assert in_subgroup_H(leaving) and in_H_via_dagger(leaving)
    for route in (restrict_to_A, restrict_via_embedding):
        with pytest.raises(ValueError, match="does not lie in the subspace A"):
            route(leaving)
