"""The ledger of source-calculation checks behind `verify-paper`.

Each check has a stable identifier, a location string naming the
calculation it reproduces, and a callable returning (status, witness).
A check states named claims, each the value it computed and the value the
paper states, and `_verdict` derives both: "pass" when all agree, and a
witness of the computed values that names the claims that broke.  A claim
may also carry the value the package documents for it: one that differs
from the paper but computed its documented value is open, not failed.
That is how P17 (the calibrated Gram against S8) and P29's slot swap
(its determinant on A) come out "open-question", never passed silently.
"""

from __future__ import annotations

import time
from fractions import Fraction
from collections.abc import Callable
from functools import lru_cache

from . import albert, cayley, descent, forms, rootsys
from .exactmat import (
    dense,
    det as mdet,
    from_nonzeros,
    identity,
    mat_inv,
    mat_mul,
    pairing,
    scal_mul,
    transpose,
)
from .scalars import REAL, QuadExtScalar, _Frozen, div, hilbert_symbol, is_norm_from_K, variable

SCHEMA_VERSION = 4

_F1 = Fraction(1)


class CheckResult(_Frozen):
    """One ledger line: the check's id and location, its status (pass |
    fail | open-question) and its witness."""

    __slots__ = ("check_id", "location", "status", "witness")

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "location": self.location,
            "status": self.status,
            "witness": self.witness,
        }


def _verdict(
    claims: dict[str, tuple], shown: dict | None = None, documented: dict | None = None
) -> tuple[str, dict]:
    """The status and witness of claims {name: (computed, stated)}.  A claim
    whose computed value differs from the stated one is open when it equals
    the value the package documents for it, `documented` {name: (value,
    reason)}, and failed otherwise.  The status is "fail" when a claim
    failed, "open-question" when one is open, and "pass" when none differs.
    The witness holds the `shown` values and each claim's computed value;
    it names the failed claims in "failed" and the open ones, with their
    reasons, in "open"."""
    documented = documented or {}
    witness = {**(shown or {}), **{name: got for name, (got, _) in claims.items()}}
    differ = [name for name, (got, want) in claims.items() if got != want]
    open_ = {n: documented[n][1] for n in differ if n in documented and claims[n][0] == documented[n][0]}
    failed = [name for name in differ if name not in open_]
    if failed:
        witness["failed"] = failed
    if open_:
        witness["open"] = open_
    return ("fail" if failed else "open-question" if open_ else "pass"), witness


def _reason(error: type, fn: Callable, *args) -> str | None:
    """The reason (else the message) of the `error` fn(*args) raises, or None."""
    try:
        fn(*args)
    except error as exc:
        return getattr(exc, "reason", str(exc))
    return None


# --------------------------------------------------------------------------
# Witt-ring counterexamples


def _check_b7_pfister():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    return _verdict({
        "dim": (phi.dim, 16),
        "signature": (forms.signature(phi), 16),
        "in_I4": (forms.in_power_I(phi, 4), True),
    })


def _b7_forms():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    q_alpha = forms.scale(-1, forms.DiagonalForm("R", phi.entries[1:]))
    q = forms.direct_sum(forms.hyperbolic(7, "R"), forms.form([1], "R"))
    return phi, q_alpha, q


def _check_b7_disc():
    _, q_alpha, _ = _b7_forms()
    inv = forms.invariants(q_alpha)
    return _verdict({"disc": (inv.disc, 1), "dim": (inv.dim, 15)})


def _check_b7_not_isometric():
    _, q_alpha, q = _b7_forms()
    return _verdict({
        "signature_q_alpha": (forms.signature(q_alpha), -15),
        "signature_q": (forms.signature(q), 1),
        "isometric": (forms.isometric(q_alpha, q), False),
    })


def _check_b7_arason():
    _, q_alpha, q = _b7_forms()
    diff = forms.direct_sum(q_alpha, -q)
    return _verdict({
        "dim": (diff.dim, 30),
        "signature": (forms.signature(diff), -16),
        "arason_trivial": (forms.arason_trivial(diff), True),
        "in_I4": (forms.in_power_I(diff, 4), True),
    })


def _check_b7_sharpness():
    _, q_alpha, q = _b7_forms()
    reason = _reason(forms.HypothesisViolation, forms.low_rank_kernel_check, q, q_alpha)
    return _verdict({"reason": (reason, "rank-bound")})


def _check_1d8():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    return _verdict({
        "signature_phi": (forms.signature(phi), 16),
        "in_I4": (forms.in_power_I(phi, 4), True),
        "isometric(phi, 8H)": (forms.isometric(phi, forms.hyperbolic(8, "R")), False),
    })


def _check_acor_trace():
    d = Fraction(2)
    even = forms.trace_form(forms.hermitian_hyperbolic(3, d))
    odd = forms.trace_form(
        forms.HermitianDiagonal("Q", d, forms.hermitian_hyperbolic(3, d).entries + (_F1,))
    )
    h6 = forms.hyperbolic(6)
    return _verdict({
        "isometric(even, 6H)": (forms.isometric(even, h6), True),
        "isometric(odd, 6H + <<2>>)": (forms.isometric(odd, h6 + forms.pfister(d)), True),
    }, {"even": forms.form_literal(even), "odd": forms.form_literal(odd)})


def _a6_trace_forms():
    d = Fraction(-1)
    h = forms.HermitianDiagonal("R", d, (Fraction(-1),) * 7)
    hd = forms.HermitianDiagonal(
        "R", d, forms.hermitian_hyperbolic(3, d, "R").entries + (_F1,)
    )
    return forms.trace_form(h), forms.trace_form(hd)


def _check_2a6_trace():
    q, _ = _a6_trace_forms()
    neg_pf = forms.scale(-1, forms.pfister(-1, field="R"))
    want = neg_pf
    for _ in range(6):  # -7<<-1>> means seven orthogonal copies
        want = forms.direct_sum(want, neg_pf)
    return _verdict({"isometric(q, -7<<-1>>)": (forms.isometric(q, want), True)},
                    {"trace_form": forms.form_literal(q)})


def _check_2a6_difference():
    q, qd = _a6_trace_forms()
    diff = forms.direct_sum(q, -qd)
    want = forms.scale(-1, forms.pfister(-1, -1, -1, -1, field="R"))
    return _verdict({
        "signature_diff": (forms.signature(diff), -16),
        "diff ~ -<<-1,-1,-1,-1>>": (forms.witt_equivalent(diff, want), True),
        "in_I4": (forms.in_power_I(diff, 4), True),
        "isometric(q, q_d)": (forms.isometric(q, qd), False),
    })


def _check_rostcalc_witt_class():
    """q_z - q at (k, a) = (2, 3) has the Witt class <2><<3,2,-1>>, which
    is hyperbolic: q_z - q is isotropic of Witt index 10.  <<3,2>> is
    anisotropic, with Hasse symbol -1 at 3 and at the real place.  These
    are controls on the local symbols, isotropy and the Witt split."""
    k, a = Fraction(2), Fraction(3)
    q_z = descent.rostcalc_expected_qz(k, a)
    diff = forms.direct_sum(q_z, -descent.twist_a_expected(k))
    pf, want = forms.pfister(a, k), forms.scale(2, forms.pfister(a, k, -1))
    return _verdict({
        "class <2><<3,2,-1>>": (forms.witt_equivalent(diff, want), True),
        "hasse(<<3,2>>)": (sorted(repr(v) for v in forms.invariants(pf).hasse), ["p=3", "real"]),
        "isotropic(<<3,2>>)": (forms.is_isotropic(pf), False),
        "isotropic(q_z - q)": (forms.is_isotropic(diff), True),
        "witt_index(q_z - q)": (forms.witt_decompose(diff)[0], 10),
    }, {"q_z": forms.form_literal(q_z)})


# --------------------------------------------------------------------------
# foldings and Rost multipliers

# the quasi-split foldings of the catalog, each named by its root datum and
# diagram automorphism, with the type the paper states for the folded datum
_FOLDED_TYPES = {
    "E6": "F4",
    "D4 triality": "G2",
    **{f"D{n}": f"B{n - 1}" for n in range(4, 9)},
    **{f"A{2 * l + 1}": f"C{l + 1}" for l in range(1, 4)},
}


@lru_cache(maxsize=1)
def _all_foldings() -> tuple:
    """(name, root datum, FoldResult) for each of `_FOLDED_TYPES`, folded
    once per process: P11, P12 and P13 read the same results."""
    out = []
    for name in _FOLDED_TYPES:
        datum, _, automorphism = name.partition(" ")
        rd = rootsys.build_root_datum(datum)
        out.append((name, rd, rootsys.fold(rd, name=automorphism)))
    return tuple(out)


def _check_e6_fold():
    fr = next(fr for name, _, fr in _all_foldings() if name == "E6")
    return _verdict({
        "folded": (fr.folded.label, "F4"),
        "orbit_sizes": (sorted(fr.orbit_sizes), [1, 1, 2, 2]),
    })


def _check_orbit_values():
    claims = {}
    for name, rd, fr in _all_foldings():
        gram = rootsys.canonical_form(rd)
        columns = dense(transpose(fr.embedding.matrix))
        vals = [str(pairing(gram, column, column)) for column in columns]
        claims[name] = ({"folded": fr.folded.label, "values": vals},
                        {"folded": _FOLDED_TYPES[name], "values": [str(len(o)) for o in fr.orbits]})
    return _verdict(claims)


def _check_fold_multipliers():
    return _verdict({
        name: (rootsys.rost_multiplier(fr.embedding, fr.folded, rd), 1)
        for name, rd, fr in _all_foldings()
    })


def _check_sl_embeddings():
    a1, a3 = rootsys.build_root_datum("A1"), rootsys.build_root_datum("A3")
    block = rootsys.rost_multiplier(rootsys.sl_block_diagonal_embedding(2), a1, a3)
    corner = rootsys.rost_multiplier(rootsys.sl_corner_embedding(2), a1, a3)
    return _verdict({"block": (block, 2), "corner": (corner, 1)})


def _check_a2l_rejected():
    rejected = {label: rootsys.build_root_datum(label) for label in ("A2", "A4")}
    return _verdict({
        label: (_reason(rootsys.FoldingError, rootsys.fold, rd), "nonreduced-BC")
        for label, rd in rejected.items()
    })


def _check_canonical_gram():
    a2 = rootsys.build_root_datum("A2")
    gram = rootsys.canonical_form(a2)
    half_cartan = scal_mul(2, gram) == a2.cartan
    g2_vals = sorted(set(rootsys.coroot_values(rootsys.build_root_datum("G2")).values()))
    return _verdict({
        "A2_gram_is_half_cartan": (half_cartan, True),
        "G2_values": ([str(v) for v in g2_vals], ["1", "3"]),
    })


# --------------------------------------------------------------------------
# the Cayley algebra


def _check_cayley_gram():
    """The calibrated Gram against S8: the paper states no deviation."""
    reason = (
        "exact S8 is unattainable over Q together with the involution "
        "table or the relatedness of the z-triples (both force "
        "trace(u4)^2 = 2); all printed source values live on the "
        "unaffected pairs and reproduce exactly"
    )
    records = cayley.deviation_records
    return _verdict(
        {"deviations": (records(cayley.build_cayley_table().gram_deviations()), [])},
        documented={"deviations": (records(cayley.GRAM_DEVIATIONS), reason)},
    )


def table_verdict(table: cayley.CayleyTable) -> tuple[str, dict]:
    """A Cayley table judged on the generic octonion X: 1 = u4 + u5 is its
    two-sided unit, and the involution that every octonion and star product
    uses (`cayley._conj_coords`) is conj X = T(X) 1 - X, with T(X) = 2n(1, X)
    read from the table's Gram (Springer and Veldkamp 2000, 1.3);
    bar(u1..u8) is that involution on the basis."""
    one, x = (cayley.u(4) + cayley.u(5)).coords, cayley.generic_octonion("x").coords
    trace = 2 * pairing(table.gram, one, x)
    signs = ((1, ""), (-1, "-"))
    names = {s * cayley.u(j): f"{sign}u{j}" for j in range(1, 9) for s, sign in signs}
    bars = [names.get(cayley.u(i).conj(), "other") for i in range(1, 9)]
    return _verdict({
        "1X = X": (cayley._mul_coords(table, one, x) == x, True),
        "X1 = X": (cayley._mul_coords(table, x, one) == x, True),
        "conj(X) = T(X)1 - X": (cayley._conj_coords(x) == tuple(trace * e - c for e, c in zip(one, x)), True),
        "bar(u1..u8)": (bars, ["-u1", "-u2", "-u3", "u5", "u4", "-u6", "-u7", "-u8"]),
    })


def _check_composition():
    x, y = cayley.generic_octonion("x"), cayley.generic_octonion("y")
    return _verdict({
        "n(XY) = n(X)n(Y)": ((x * y).norm() == x.norm() * y.norm(), True),
        "generic_coordinates": (len(set(x.coords + y.coords)), 16),
    })


def _check_p_and_m_similitudes():
    p = cayley.Similitude(cayley.perm_P())
    a = cayley.generic_a()
    ms = [cayley.Similitude(cayley.m_matrix(j, a)) for j in range(3)]
    return _verdict({
        "mu_P": (str(p.mu), "1"),
        "sigma_n(P) = P": (p.sigma_n() == p, True),
        "mu(m_j)": ([str(m.mu) for m in ms], [str(x) for x in a]),
        "det(m_j)": ([str(m.det()) for m in ms], [str(x**4) for x in a]),
    })


def _check_small_triples_related():
    eye = cayley.Similitude(identity(8))
    neg = cayley.Similitude(scal_mul(Fraction(-1), identity(8)))
    return _verdict({
        "(1,1,1)": (cayley.is_related_triple(cayley.SimilitudeTriple((eye, eye, eye))), True),
        "(1,-1,-1)": (cayley.is_related_triple(cayley.SimilitudeTriple((eye, neg, neg))), True),
        "(-1,1,1)": (cayley.is_related_triple(cayley.SimilitudeTriple((neg, eye, eye))), False),
    })


def _check_z_related():
    """The relatedness of z_{K,a} for every a with a0 a1 a2 = 1, proved on
    the generic a."""
    a = cayley.generic_a()
    z = cayley.special_cocycle(a)
    return _verdict({
        "related": (cayley.is_related_triple(z), True),
        "multipliers": ([str(m) for m in z.multipliers], [str(x) for x in a]),
        "det_is_mu4": (all(s.det() == s.mu**4 for s in z.t), True),
    })


def cocycle_verdict(z: cayley.SimilitudeTriple) -> tuple[str, dict]:
    """The special cocycle z = m_j(a) d P judged for K/F, a being its
    multipliers (P22): the iota-twist of each z_j has its stated closed
    form, and z_j iota(z_j) = 1, the 1-cocycle condition."""
    a = z.multipliers
    twists = [s.iota_twisted().matrix for s in z.t]
    eye = identity(cayley.DIM)
    return _verdict({
        "iota-twist closed form": (
            [tw == cayley.special_cocycle_iota_closed_form(j, a) for j, tw in enumerate(twists)],
            [True] * 3,
        ),
        "cocycle_condition": (all(mat_mul(s.matrix, tw) == eye for s, tw in zip(z.t, twists)), True),
    }, {"a": [str(x) for x in a]})


def _check_freedom_identity():
    """iota(l_j) z_{a',j} l_j^-1 = z_{a,j} for each j, with l the
    coboundary triple of lambda and a'_j = a_j N(lambda_j)."""
    k = Fraction(2)
    lam = (QuadExtScalar(3, -2, k), QuadExtScalar(1, 1, k), QuadExtScalar(1, 1, k))
    a = (Fraction(1), Fraction(2), Fraction(1, 2))
    z = cayley.special_cocycle(a)
    z_prime = cayley.special_cocycle(tuple(ai * li.norm() for ai, li in zip(a, lam)))
    ell = cayley.coboundary_triple(lam)
    moved = [
        mat_mul(l_j.iota_twisted().matrix, mat_mul(zp_j.matrix, mat_inv(l_j.matrix))) == z_j.matrix
        for l_j, zp_j, z_j in zip(ell.t, z_prime.t, z.t)
    ]
    return _verdict({
        "freedom_identity": (moved, [True] * 3),
        "coboundary_related": (cayley.is_related_triple(ell), True),
    }, {"lambda_norms": [str(x.norm()) for x in lam]})


# --------------------------------------------------------------------------
# the Albert algebra


def _check_albert_basics():
    e = [albert.e_idem(i) for i in range(3)]
    x = albert.generic_element("x")
    x8, y8 = cayley.generic_octonion("y"), cayley.generic_octonion("z")
    products = [albert.cross(e[i], e[i - 2]) for i in range(3)]
    t_x = albert.trace_form_T(x, albert.cross(x, x))
    t_c0 = albert.trace_form_T(albert.c_only(0, x8), albert.c_only(0, y8))
    return _verdict({
        "T(e0,e0)": (str(albert.trace_form_T(e[0], e[0])), "1"),
        "e_i x e_(i+1) = e_(i+2)": (products == [e[2], e[0], e[1]], True),
        "6N(X) = T(X, X x X)": (6 * albert.generic_norm() == t_x, True),
        # the trace pairing on the c0 slot is the full norm polarization
        "T(c0(x), c0(y)) = 2n(x, y)": (t_c0 == 2 * x8.norm_pairing(y8), True),
        "generic_coordinates": (len(set(x.coords)), 27),
    })


def _specialcor_data():
    a = Fraction(3)
    z = cayley.special_cocycle((Fraction(1), a, div(1, a)))
    c = Fraction(1, 2) * (cayley.u(2) + cayley.u(8))
    j = albert.c_only(0, c)
    return z, c, j


def _check_specialcor():
    """The rank-one j in general position: j' = eta_iota(iota j) and
    r = T(j, j'), with the identities of the frame (j, e0, e0 x j') that
    drive the repositioning argument for special cocycles."""
    z, c, j = _specialcor_data()
    r, j_prime = albert.moving_lemma_data(z, j)
    c_prime = Fraction(1, 2) * (cayley.u(1) + cayley.u(7))
    e0 = albert.e_idem(0)
    frame = albert.cross(e0, j_prime)
    return _verdict({
        "n(c)": (str(c.norm()), "0"),
        "j# = 0": (albert.sharp(j) == albert.ZERO, True),
        "j' = c0((u1 + u7)/2)": (j_prime == albert.c_only(0, c_prime), True),
        "r": (str(r), "1"),
        "T(e0,e0) = 1": (albert.trace_form_T(e0, e0) == 1, True),
        "e0 x (e0 x j') = j'": (albert.cross(e0, frame) == j_prime, True),
        "j x (e0 x j') = r e0": (albert.cross(j, frame) == r * e0, True),
        "6N(e0, j, e0 x j') = r": (6 * albert.trilinear_N(e0, j, frame) == r, True),
    })


def _check_g_action():
    eye = cayley.Similitude(identity(8))
    neg = cayley.Similitude(scal_mul(Fraction(-1), identity(8)))
    gmm = albert.g_map(cayley.SimilitudeTriple((eye, neg, neg)))
    z, _, _ = _specialcor_data()
    gz = albert.g_map(z)
    rz = albert.restrict_to_A(gz)
    return _verdict({
        "kernel_restricts_to_identity": (albert.restrict_to_A(gmm) == identity(10), True),
        "g_z preserves N": (gz.preserves_norm(), True),
        "det_z_on_A": (str(mdet(rz)), "1"),
        "g_z preserves the A-form": (albert.preserves_a_form(rz), True),
    })


def _check_dagger_identities():
    z, _, _ = _specialcor_data()
    gz = albert.g_map(z)
    inverse_adjoints = tuple(cayley.Similitude(mat_inv(s.sigma_n().matrix)) for s in z.t)
    want = albert.g_map(cayley.SimilitudeTriple(inverse_adjoints))
    p = albert.psi(3, 2, cayley.u(5))
    gz_dagger, p_dagger = gz.dagger(), p.dagger()
    m = descent.dagger_cocycle_matrix()
    m_inv, to_a = mat_inv(m), albert.restrict_to_A
    return _verdict({
        "g_z+ = g_(sigma_n(z)^-1)": (gz_dagger == want, True),
        "psi32(u5)+ = psi23(-u4)": (p_dagger == albert.psi(2, 3, -cayley.u(4)), True),
        "1+ = 1": (albert.identity_map().dagger() == albert.identity_map(), True),
        "g_z++ = g_z": (gz_dagger.dagger() == gz, True),
        # M-conjugation implements dagger on the A-restrictions
        "M g_z|A M^-1 = g_z+|A": (mat_mul(m, mat_mul(to_a(gz), m_inv)) == to_a(gz_dagger), True),
        "M psi|A M^-1 = psi+|A": (mat_mul(m, mat_mul(to_a(p), m_inv)) == to_a(p_dagger), True),
    })


def _check_psi_restriction():
    p = albert.psi(3, 2, cayley.u(5))
    r = albert.restrict_to_A(p)
    # V45(1) structure: identity plus E[4,5] and E[6,7] in A coordinates
    # (1-based rows/cols of the display), i.e. indices (3,4) and (5,6)
    expect = from_nonzeros(10, 10, [(i, i, 1) for i in range(10)] + [(3, 4, 1), (5, 6, 1)])
    return _verdict({
        "matches_V45(1)": (r == expect, True),
        "preserves_a_form": (albert.preserves_a_form(r), True),
        "preserves_norm": (p.preserves_norm(), True),
    })


def _check_swap_map():
    reason = (
        "the displayed bar-less slot swap has determinant -1 on A but "
        "is not a norm isometry; the norm-preserving hermitian "
        "congruence conjugates entries and has determinant +1"
    )
    sw = albert.swap_map()
    return _verdict({
        "det_on_A": (str(mdet(albert.restrict_to_A(sw))), "-1"),
        "norm_isometry": (sw.preserves_norm(), True),
    }, documented={"det_on_A": ("1", reason)})


def _check_a_gram_display():
    """The A-form as displayed: -2(v0 v9 + v1 v8 + v2 v7 + v3 v6) + 2 v4 v5
    on generic A-coordinates v0..v9, then two of its values."""
    v = [variable(f"v{i}") for i in range(10)]
    display = 2 * v[4] * v[5] - 2 * (v[0] * v[9] + v[1] * v[8] + v[2] * v[7] + v[3] * v[6])
    e12 = albert.a_project(albert.e_idem(1) + albert.e_idem(2))
    u36 = albert.a_project(albert.c_only(0, cayley.u(3) - cayley.u(6)))
    return _verdict({
        "display": (albert.a_form_value(v) == display, True),
        "value(e1+e2)": (str(albert.a_form_value(e12)), "2"),  # the S2 block: 2 alpha beta
        "value(u3-u6)": (str(albert.a_form_value(u36)), "2"),
    })


# --------------------------------------------------------------------------
# descent


def twista_verdict(k: int | Fraction) -> tuple[str, dict]:
    """The twistA descent at k judged: the A-form descended along M is
    4H + <-2, 2k>.  A square k raises ValueError."""
    q, expected = descent.twist_a_descend(k), descent.twist_a_expected(k)
    return _verdict(
        {"isometric": (forms.isometric(q, expected), True)},
        {"descended": forms.form_literal(q), "expected": forms.form_literal(expected)},
    )


def rostcalc_verdict(k: int | Fraction, a: int | Fraction) -> tuple[str, dict]:
    """The special-cocycle computation at (k, a) judged: q_z matches the
    table, q_z - q has the Witt class <2><<a,k,-1>>, and its Arason class
    is trivial, q_z - q in I^4, exactly when the real symbol (a)(k)(-1)
    is, which over Q is nontrivial exactly when a < 0 and k < 0 (Serre,
    III.1.2); outside I^3, q_z - q fails both claims, raising nothing.
    An input that the computation rejects raises ValueError."""
    q_z, q = descent.rostcalc_qz(k, a), descent.twist_a_expected(k)
    diff, arason = forms.direct_sum(q_z, -q), forms.scale(2, forms.pfister(a, k, -1))
    real_symbol = a < 0 and k < 0
    return _verdict({
        "qz_matches_table": (forms.isometric(q_z, descent.rostcalc_expected_qz(k, a)), True),
        "difference_witt_class_ok": (forms.witt_equivalent(diff, arason), True),
        "arason_class_trivial": (forms.in_power_I(diff, 4), not real_symbol),
        "real_symbol_nontrivial": (hilbert_symbol(a, k, REAL) == -1, real_symbol),
    }, {"k": str(k), "a": str(a), "q_z": forms.form_literal(q_z), "q": forms.form_literal(q)})


def rostcalc_table_verdict(k: int | Fraction, a: int | Fraction) -> tuple[str, dict]:
    """The descent table at (k, a) judged, row by row: the displayed
    vectors are fixed by the cocycle, take their stated A-form values, and
    span the form the row contributes to q_z."""
    z = descent.special_cocycle_on_A(k, a)
    parts = {}
    for row in descent.rostcalc_table_rows(k, a):
        vs, contribution = row["vectors"], row["contribution"]
        parts[row["subspace"]] = _verdict({
            "fixed": (all(z.is_fixed(v) for v in vs), True),
            "values": ([str(albert.a_form_value(v)) for v in vs], [str(x) for x in row["values"]]),
            "span": (forms.isometric(descent.span_form(albert.A_GRAM, vs), contribution), True),
        }, {"contribution": forms.form_literal(contribution), "vectors": [[str(x) for x in v] for v in vs]})
    return _bundle(parts)


_STATUS_RANK = {"pass": 0, "open-question": 1, "fail": 2}


def _bundle(parts: dict[str, tuple[str, dict]]) -> tuple[str, dict]:
    """The worst status of the parts, with their witnesses by name; a
    failing bundle names the parts that failed."""
    status = max((s for s, _ in parts.values()), key=_STATUS_RANK.__getitem__)
    witness = {name: w for name, (_, w) in parts.items()}
    failed = [name for name, (s, _) in parts.items() if s == "fail"]
    if failed:
        witness["failed"] = failed
    return status, witness


def _check_p29():
    return _bundle({
        "swap": _check_swap_map(),
        "a_gram_display": _check_a_gram_display(),
        "psi_on_A": _check_psi_restriction(),
    })


def _check_p30():
    pairs = ((2, 3), (-1, -1), (3, -2), (5, 7), (-2, -3))  # two with a nontrivial real symbol
    # a is a norm from Q(sqrt k) iff (k,a)_v = 1 at every place v (Serre, III.1.2).
    # By hand: (k,a)_v = -1 at v = 3 for (2,3), at the real place for (-1,-1) and
    # (-2,-3), and at v = 5 for (5,7); at (3,-2), -2 = 1 - 3*1^2 is a norm.
    norms = (False, False, True, False, False)
    return _bundle({
        "twistA": _bundle({f"k={k}": twista_verdict(k) for k in (2, 3, -5)}),
        "rostcalc": _bundle({f"(k,a)=({k},{a})": rostcalc_verdict(k, a) for k, a in pairs}),
        "norm_condition": _verdict(
            {f"(k,a)=({k},{a})": (is_norm_from_K(a, k), norm) for (k, a), norm in zip(pairs, norms)}
        ),
        "descent_table": rostcalc_table_verdict(2, 3),
        # K = Q(sqrt k) is a field only for a nonsquare k
        "square_k_rejected": _verdict(
            {"k=4": (_reason(ValueError, descent.twist_a_cocycle, 4), "k must not be a square")}
        ),
    })


CHECKS: list[tuple[str, str, Callable[[], tuple[str, dict]]]] = [
    ("P01", "spin kernels: the 4-fold Pfister form over R", _check_b7_pfister),
    ("P02", "spin kernels: disc q_alpha = 1", _check_b7_disc),
    ("P03", "spin kernels: q_alpha not isometric to 7H+<1>", _check_b7_not_isometric),
    ("P04", "spin kernels: e3(q_alpha - q) trivial", _check_b7_arason),
    ("P05", "spin kernels: d + d_an = 16 sharpness", _check_b7_sharpness),
    ("P06", "spin kernels: the 8H counterexample", _check_1d8),
    ("P07", "unitary kernels: hermitian trace forms", _check_acor_trace),
    ("P08", "unitary kernels: trace form of <-1>^7 over C/R", _check_2a6_trace),
    ("P09", "unitary kernels: the 2A6 difference in I^4", _check_2a6_difference),
    ("P10", "special cocycles: Witt class of q_z - q at (2,3)", _check_rostcalc_witt_class),
    ("P11", "foldings: E6 gives F4 with orbits 1,1,2,2", _check_e6_fold),
    ("P12", "foldings: the folded types and orbit-sum values", _check_orbit_values),
    ("P13", "foldings: Rost multiplier 1 in every case", _check_fold_multipliers),
    ("P14", "embeddings: SL2 in SL4 multipliers 2 and 1", _check_sl_embeddings),
    ("P15", "foldings: A_2l rejected (non-reduced BC_l)", _check_a2l_rejected),
    ("P16", "coroot forms: Cartan/2 when simply laced", _check_canonical_gram),
    ("P17", "Cayley basis: Gram against S8", _check_cayley_gram),
    ("P18", "Cayley basis: involution table", lambda: table_verdict(cayley.build_cayley_table())),
    ("P19", "Cayley norm: composition law", _check_composition),
    ("P20", "similitudes: sigma_n(P) = P and the m_j data", _check_p_and_m_similitudes),
    ("P21", "triples: (1,1,1), (1,-1,-1) related and (-1,1,1) not", _check_small_triples_related),
    ("P22", "triples: the z-triples are related", _check_z_related),
    ("P23", "cocycles: iota-twist closed form and condition",
     lambda: cocycle_verdict(cayley.special_cocycle((Fraction(2), Fraction(3), Fraction(1, 6))))),
    ("P24", "cocycles: cohomologous special cocycles", _check_freedom_identity),
    ("P25", "Albert algebra: trace/cross/norm basics", _check_albert_basics),
    ("P26", "Albert algebra: the rank-one element in general position", _check_specialcor),
    ("P27", "g-action: kernel, norm preservation, det on A", _check_g_action),
    ("P28", "dagger: adjoint identities and the M-conjugation", _check_dagger_identities),
    ("P29", "subspace A: slot swap, form display and psi", _check_p29),
    ("P30", "descent: the twistA and rostcalc pipelines", _check_p30),
]


def run_checks(only: str | None = None, timings: dict | None = None) -> list[CheckResult]:
    """Run the ledger (deterministic order); `only` filters by identifier
    or by a word of the location, and `only=""` selects no check.  When
    `timings` is a dict, each check's wall time in seconds is stored in it
    under the check's id."""
    results = []
    for (check_id, location, fn), names in zip(CHECKS, _CHECK_NAMES):
        if only is not None and _token(only) not in names:
            continue
        start = time.perf_counter()
        try:
            status, witness = fn()
        except Exception as exc:  # failures are data, not crashes
            status, witness = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        if timings is not None:
            timings[check_id] = time.perf_counter() - start
        results.append(CheckResult(check_id, location, status, witness))
    return results


def _token(word: str) -> str:
    return word.strip(",:").lower()


# each check's names for `only`, its identifier and its location's tokens,
# lower-cased once at import
_CHECK_NAMES = [(_token(cid), *map(_token, location.split())) for cid, location, _ in CHECKS]


def report_json(results: list[CheckResult], timings: dict | None = None) -> dict:
    """The JSON report; with `timings` ({check id: seconds}) each check
    also carries its `elapsed_s`."""
    checks = [r.as_dict() for r in results]
    if timings is not None:
        checks = [{**c, "elapsed_s": round(timings[c["id"]], 6)} for c in checks]
    return {
        "schema": SCHEMA_VERSION,
        "tool": "quadalg verify-paper",
        "checks": checks,
        "summary": {
            "pass": sum(r.status == "pass" for r in results),
            "fail": sum(r.status == "fail" for r in results),
            "open-question": sum(r.status == "open-question" for r in results),
        },
    }


def render_table(results: list[CheckResult], timings: dict | None = None) -> str:
    """One line per check; with `timings` ({check id: seconds}) each line
    ends in the check's wall time."""
    lines = []
    width = max(len(r.location) for r in results) if results else 10
    for r in results:
        line = f"{r.check_id}  {r.location.ljust(width)}  {r.status}"
        if timings is not None:  # past the longest status, "open-question"
            line = f"{line.ljust(len(r.check_id) + width + 17)}  {timings[r.check_id]:.6f} s"
        lines.append(line)
    return "\n".join(lines)
