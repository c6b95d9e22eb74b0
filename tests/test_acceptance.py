"""The acceptance gate: each criterion runs at its stated size and
tolerance (everything is exact arithmetic, so the tolerance is equality)
and prints one pass/fail line."""

import random
from fractions import Fraction as Q

from quadalg import albert, cayley, descent, forms, rootsys
from quadalg.cayley import Octonion, Similitude, SimilitudeTriple, u
from quadalg.exactmat import identity, mat_inv, scal_mul
from quadalg.scalars import (
    Place,
    QuadExtScalar,
    REAL,
    hilbert_symbol,
    relevant_places,
)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_acceptance_1_rostcalc_reproduction():
    ok = True
    for k, a in [(2, 3), (-1, -1), (3, -2), (5, 7), (-2, -3)]:
        rep = descent.rostcalc_report(k, a)
        ok &= rep.qz_matches_table
        diff = forms.direct_sum(rep.q_z, -rep.q)
        ok &= forms.witt_equivalent(diff, forms.scale(2, forms.pfister(a, k, -1)))
    _report(1, "rostcalc descent for five (k,a) pairs", ok)


def test_acceptance_2_twista_reproduction():
    ok = True
    for k in (2, 3, -5):
        q = descent.twist_a_descend(k)
        ok &= forms.isometric(q, descent.twist_a_expected(k))
    _report(2, "twistA descent for three k", ok)


def test_acceptance_3_counterexample_triptych():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    q_alpha = forms.scale(-1, forms.DiagonalForm("R", phi.entries[1:]))
    q = forms.parse_form("7H + <1>", field="R")
    b7 = (
        forms.invariants(q_alpha).disc == 1
        and not forms.isometric(q_alpha, q)
        and forms.arason_trivial(forms.direct_sum(q_alpha, -q))
    )
    d8 = forms.in_power_I(phi, 4) and not forms.isometric(phi, forms.hyperbolic(8, "R"))
    d = Q(-1)
    h = forms.HermitianDiagonal("R", d, (Q(-1),) * 7)
    hd = forms.HermitianDiagonal(
        "R", d, forms.hermitian_hyperbolic(3, d, "R").entries + (Q(1),)
    )
    tq, tqd = forms.trace_form(h), forms.trace_form(hd)
    diff = forms.direct_sum(tq, -tqd)
    a6 = (
        forms.witt_equivalent(diff, forms.scale(-1, phi))
        and forms.in_power_I(diff, 4)
        and not forms.isometric(tq, tqd)
    )
    _report(3, "B7 / 1D8 / 2A6 counterexamples", b7 and d8 and a6)


def test_acceptance_4_rost_multipliers():
    a1, a3 = rootsys.build_root_datum("A1"), rootsys.build_root_datum("A3")
    ok = rootsys.rost_multiplier(rootsys.sl_block_diagonal_embedding(2), a1, a3) == 2
    ok &= rootsys.rost_multiplier(rootsys.sl_corner_embedding(2), a1, a3) == 1
    folds = [("E6", ""), ("D4", "triality")]
    folds += [(f"D{n}", "") for n in range(4, 9)]
    folds += [(f"A{2 * l + 1}", "") for l in range(1, 4)]
    expected_labels = {
        "E6": "F4",
        "D4 triality": "G2",
        **{f"D{n}": f"B{n - 1}" for n in range(4, 9)},
        **{f"A{2 * l + 1}": f"C{l + 1}" for l in range(1, 4)},
    }
    for label, name in folds:
        rd = rootsys.build_root_datum(label)
        fr = rootsys.fold(rd, name=name)
        key = f"{label} {name}".strip()
        ok &= fr.folded.label == expected_labels[key]
        cf = rootsys.canonical_form(rd)
        for col, orbit in enumerate(fr.orbits):
            vec = [fr.embedding.matrix[i][col] for i in range(rd.rank)]
            ok &= cf.value(vec) == len(orbit)  # value = orbit size
        ok &= rootsys.rost_multiplier(fr.embedding, fr.folded, rd) == 1
    _report(4, "Rost multipliers and foldings", ok)


def test_acceptance_5_albert_identity_suite():
    rng = random.Random(100)
    e = [albert.e_idem(i) for i in range(3)]
    ok = all(albert.cross(e[i], e[(i + 1) % 3]) == e[(i + 2) % 3] for i in range(3))
    for _ in range(20):
        x = albert.AlbertElement.from_coords(
            [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(27)]
        )
        ok &= 6 * albert.norm_N(x) == albert.trace_form_T(x, albert.cross(x, x))
    # the rank-one element of the special-cocycle computation
    z = cayley.special_cocycle((Q(1), Q(3), Q(1, 3)))
    c = Q(1, 2) * (u(2) + u(8))
    j = albert.c_only(0, c)
    ok &= c.norm() == 0
    ok &= albert.sharp(j) == albert.ZERO
    jp = albert.g_map(z)(j.iota())
    ok &= albert.trace_form_T(j, jp) == 1
    for _ in range(50):
        y = albert.AlbertElement.from_coords(
            [Q(rng.randint(-3, 3)) for _ in range(27)]
        )
        e0 = e[0]
        ok &= albert.cross(e0, albert.cross(e0, albert.cross(e0, y))) == albert.cross(e0, y)
    ok &= albert.g_map(z).preserves_norm()
    gz = albert.g_map(z)
    want = albert.g_map(
        SimilitudeTriple(tuple(Similitude(mat_inv(s.sigma_n().matrix)) for s in z.t))
    )
    ok &= gz.dagger() == want  # g_t dagger = g_{sigma_n(t)^{-1}}
    ok &= albert.psi(3, 2, u(5)).dagger() == albert.psi(2, 3, -u(4))
    _report(5, "Albert identity suite", ok)


def test_acceptance_6_cayley_suite():
    ok = all(
        (u(i) * u(j)).norm() == u(i).norm() * u(j).norm()
        for i in range(1, 9)
        for j in range(1, 9)
    )
    rng = random.Random(101)
    z_related_status = []
    for _ in range(5):
        a0 = Q(rng.randint(1, 9))
        a1 = Q(rng.randint(1, 9), rng.randint(1, 4))
        a = (a0, a1, 1 / (a0 * a1))
        z = cayley.special_cocycle(a)
        ok &= z.multipliers == a  # mu(z_j) = a_j
        ok &= all(s.det() == s.mu**4 for s in z.t)  # det(z_j) = a_j^4
        z_related_status.append(cayley.is_related_triple(z))
    z0 = cayley.special_cocycle((Q(2), Q(3), Q(1, 6)))
    ok &= cayley.cocycle_condition_holds(z0)  # z iota(z) = 1
    k = Q(2)
    lam = (
        QuadExtScalar(3, -2, k),
        QuadExtScalar(1, 1, k),
        QuadExtScalar(1, 1, k),
    )
    a = (Q(1), Q(2), Q(1, 2))
    a_prime = tuple(ai * li.norm() for ai, li in zip(a, lam))
    ok &= cayley.freedom_identity_holds(a, a_prime, lam)
    # the relatedness status is recorded, never passed silently
    status = "related" if all(z_related_status) else "OPEN-QUESTION (not related)"
    print(f"  z-triple relatedness status: {status}")
    ok &= all(z_related_status)
    _report(6, "Cayley suite", ok)


def test_acceptance_7_property_suites():
    rng = random.Random(102)
    pool = [1, -1, 2, -2, 3, -3, 5, 7, -7, 10, -15, 30, Q(3, 7), Q(-2, 5)]
    places = [REAL] + [Place(p) for p in (2, 3, 5, 7)]
    ok = True
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        v = rng.choice(places)
        ok &= hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
            a, c, v
        )
        prod = 1
        for w in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, w)
        ok &= prod == 1
    small = [1, -1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10, -15, 30]
    for _ in range(100):
        q = forms.form(
            [Q(rng.choice(small)) * rng.choice([1, 4, 9]) for _ in range(rng.randint(1, 12))]
        )
        idx, an = forms.witt_decompose(q)
        ok &= not forms.is_isotropic(an)
        ok &= forms.isometric(forms.direct_sum(forms.hyperbolic(idx), an), q)
    for _ in range(50):  # Hauptsatz at desk scale: dim < 16 in I^4 is hyperbolic
        m = rng.randint(1, 7)
        entries = []
        for _ in range(m):
            a = Q(rng.choice(small))
            entries += [a * rng.choice([1, 4, 9]), -a * rng.choice([1, 4, 25])]
        rng.shuffle(entries)
        q = forms.form(entries)
        ok &= forms.in_power_I(q, 4)
        ok &= forms.witt_decompose(q)[1].dim == 0
    for _ in range(20):  # hermitian trace forms against direct expansion
        k = Q(rng.choice([2, 3, 5, -1, -2]))
        lams = [Q(rng.choice(small)) for _ in range(rng.randint(1, 5))]
        h = forms.HermitianDiagonal("Q", k, tuple(lams))
        expanded = []
        for lam in lams:
            expanded += [lam, -lam * k]
        ok &= forms.isometric(forms.trace_form(h), forms.form(expanded))
    _report(7, "property suites", ok)
