"""The ledger of source-calculation checks behind `verify-paper`.

Each check has a stable identifier, a location string naming the
calculation it reproduces, and a callable returning (status, witness);
statuses are "pass", "fail" or "open-question" (the latter reserved for
the documented calibration discrepancies, which must be surfaced and
never silently passed).
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Callable
from functools import lru_cache

from . import albert, cayley, descent, forms, rootsys
from .exactmat import det as mdet, from_nonzeros, identity, mat_inv, mat_mul, scal_mul
from .scalars import QuadExtScalar, _Frozen, div, variable

SCHEMA_VERSION = 2

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


def _ok(flag: bool, witness: dict) -> tuple[str, dict]:
    return ("pass" if flag else "fail"), witness


# --------------------------------------------------------------------------
# Witt-ring counterexamples


def _check_b7_pfister():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    good = (
        phi.dim == 16
        and all(a == 1 for a in phi.entries)
        and forms.in_power_I(phi, 4)
    )
    return _ok(good, {"dim": phi.dim, "signature": forms.signature(phi)})


def _b7_forms():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    q_alpha = forms.scale(-1, forms.DiagonalForm("R", phi.entries[1:]))
    q = forms.direct_sum(forms.hyperbolic(7, "R"), forms.form([1], "R"))
    return phi, q_alpha, q


def _check_b7_disc():
    _, q_alpha, _ = _b7_forms()
    inv = forms.invariants(q_alpha)
    return _ok(inv.disc == 1 and inv.dim == 15, {"disc": inv.disc})


def _check_b7_not_isometric():
    _, q_alpha, q = _b7_forms()
    return _ok(
        not forms.isometric(q_alpha, q),
        {
            "signature_q_alpha": forms.signature(q_alpha),
            "signature_q": forms.signature(q),
        },
    )


def _check_b7_arason():
    _, q_alpha, q = _b7_forms()
    diff = forms.direct_sum(q_alpha, -q)
    return _ok(
        forms.arason_trivial(diff) and forms.in_power_I(diff, 4),
        {"dim": diff.dim, "signature": forms.signature(diff)},
    )


def _check_b7_sharpness():
    _, q_alpha, q = _b7_forms()
    try:
        forms.low_rank_kernel_check(q, q_alpha)
    except forms.HypothesisViolation as exc:
        return _ok(exc.reason == "rank-bound", {"reason": exc.reason})
    return "fail", {"reason": "criterion unexpectedly applicable"}


def _check_1d8():
    phi = forms.pfister(-1, -1, -1, -1, field="R")
    q = forms.hyperbolic(8, "R")
    return _ok(
        forms.in_power_I(phi, 4) and not forms.isometric(phi, q),
        {"signature_phi": forms.signature(phi)},
    )


def _check_acor_trace():
    d = Fraction(2)
    even = forms.trace_form(forms.hermitian_hyperbolic(3, d))
    odd = forms.trace_form(
        forms.HermitianDiagonal("Q", d, forms.hermitian_hyperbolic(3, d).entries + (_F1,))
    )
    ok = forms.isometric(even, forms.hyperbolic(6)) and forms.isometric(
        odd, forms.direct_sum(forms.hyperbolic(6), forms.pfister(d))
    )
    return _ok(ok, {"even": forms.form_literal(even), "odd": forms.form_literal(odd)})


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
    return _ok(forms.isometric(q, want), {"trace_form": forms.form_literal(q)})


def _check_2a6_difference():
    q, qd = _a6_trace_forms()
    diff = forms.direct_sum(q, -qd)
    want = forms.scale(-1, forms.pfister(-1, -1, -1, -1, field="R"))
    ok = (
        forms.witt_equivalent(diff, want)
        and forms.in_power_I(diff, 4)
        and not forms.isometric(q, qd)
    )
    return _ok(ok, {"signature_diff": forms.signature(diff)})


def _check_rostcalc_witt_class():
    k, a = Fraction(2), Fraction(3)
    q_z = descent.rostcalc_expected_qz(k, a)
    q = descent.twist_a_expected(k)
    diff = forms.direct_sum(q_z, -q)
    want = forms.scale(2, forms.pfister(a, k, -1))
    return _ok(
        forms.witt_equivalent(diff, want),
        {"q_z": forms.form_literal(q_z), "class": "<2><<3,2,-1>>"},
    )


# --------------------------------------------------------------------------
# foldings and Rost multipliers


@lru_cache(maxsize=1)
def _all_foldings() -> tuple:
    """(name, FoldResult) for every quasi-split folding of the catalog,
    folded once per process: P11, P12 and P13 read the same results."""
    out = [("E6", rootsys.fold(rootsys.build_root_datum("E6")))]
    out.append(("D4 triality", rootsys.fold(rootsys.build_root_datum("D4"), name="triality")))
    for n in range(4, 9):
        out.append((f"D{n}", rootsys.fold(rootsys.build_root_datum(f"D{n}"))))
    for l in range(1, 4):
        out.append((f"A{2 * l + 1}", rootsys.fold(rootsys.build_root_datum(f"A{2 * l + 1}"))))
    return tuple(out)


def _check_e6_fold():
    fr = dict(_all_foldings())["E6"]
    return _ok(
        fr.folded.label == "F4" and sorted(fr.orbit_sizes) == [1, 1, 2, 2],
        {"folded": fr.folded.label, "orbit_sizes": list(fr.orbit_sizes)},
    )


def _check_orbit_values():
    witness = {}
    good = True
    for name, fr in _all_foldings():
        src = name.split()[0]
        rd = rootsys.build_root_datum(src)
        cf = rootsys.canonical_form(rd)
        vals = []
        for col, orbit in enumerate(fr.orbits):
            v = [fr.embedding.matrix[i][col] for i in range(rd.rank)]
            vals.append(int(cf.value(v)))
        good &= vals == [len(o) for o in fr.orbits]
        witness[name] = {"folded": fr.folded.label, "values": vals}
    return _ok(good, witness)


def _check_fold_multipliers():
    witness = {}
    good = True
    for name, fr in _all_foldings():
        src = name.split()[0]
        rd = rootsys.build_root_datum(src)
        n = rootsys.rost_multiplier(fr.embedding, fr.folded, rd)
        witness[name] = n
        good &= n == 1
    return _ok(good, witness)


def _check_sl_embeddings():
    a1, a3 = rootsys.build_root_datum("A1"), rootsys.build_root_datum("A3")
    block = rootsys.rost_multiplier(rootsys.sl_block_diagonal_embedding(2), a1, a3)
    corner = rootsys.rost_multiplier(rootsys.sl_corner_embedding(2), a1, a3)
    return _ok(block == 2 and corner == 1, {"block": block, "corner": corner})


def _check_a2l_rejected():
    witness = {}
    good = True
    for l in (1, 2):
        try:
            rootsys.fold(rootsys.build_root_datum(f"A{2 * l}"))
            good = False
            witness[f"A{2 * l}"] = "not rejected"
        except rootsys.FoldingError as exc:
            witness[f"A{2 * l}"] = exc.reason
            good &= exc.reason == "nonreduced-BC"
    return _ok(good, witness)


def _check_canonical_gram():
    a2 = rootsys.build_root_datum("A2")
    cf = rootsys.canonical_form(a2)
    half_cartan = all(
        2 * cf.gram[i][j] == a2.cartan[i][j] for i in range(2) for j in range(2)
    )
    g2_vals = sorted(set(rootsys.coroot_values(rootsys.build_root_datum("G2")).values()))
    return _ok(
        half_cartan and g2_vals == [1, 3],
        {"A2_gram_is_half_cartan": half_cartan, "G2_values": [str(v) for v in g2_vals]},
    )


# --------------------------------------------------------------------------
# the Cayley algebra


def _check_cayley_gram():
    table = cayley.build_cayley_table()
    devs = table.gram_deviations()
    witness = {
        "deviations": [
            {"pair": [i, j], "value": str(got), "expected": str(want)}
            for i, j, got, want in devs
        ],
        "note": (
            "exact S8 is unattainable over Q together with the involution "
            "table or the relatedness of the z-triples (both force "
            "trace(u4)^2 = 2); all printed source values live on the "
            "unaffected pairs and reproduce exactly"
        ),
    }
    if not devs:
        return "pass", witness
    if {(i, j): got for i, j, got, _ in devs} == cayley.GRAM_DEVIATIONS:
        return "open-question", witness
    return "fail", witness


def _check_involution_table():
    good = all(cayley.u(i).conj() == -cayley.u(i) for i in (1, 2, 3, 6, 7, 8))
    good &= cayley.u(4).conj() == cayley.u(5) and cayley.u(5).conj() == cayley.u(4)
    return _ok(good, {"u4_bar": "u5", "u5_bar": "u4"})


def _check_composition():
    x, y = cayley.generic_octonion("x"), cayley.generic_octonion("y")
    return _ok((x * y).norm() == x.norm() * y.norm(), {"generic_coordinates": 16})


def _check_p_and_m_similitudes():
    p = cayley.Similitude(cayley.perm_P())
    good = p.mu == 1 and p.sigma_n() == p
    a = cayley.generic_a()
    for j in range(3):
        m = cayley.Similitude(cayley.m_matrix(j, a))
        good &= m.mu == a[j] and m.det() == a[j] ** 4
    return _ok(good, {"mu_P": 1, "a": [str(x) for x in a]})


def _check_small_triples_related():
    eye = cayley.Similitude(identity(8))
    neg = cayley.Similitude(scal_mul(Fraction(-1), identity(8)))
    flags = {
        "(1,1,1)": cayley.is_related_triple(cayley.SimilitudeTriple((eye, eye, eye))),
        "(1,-1,-1)": cayley.is_related_triple(cayley.SimilitudeTriple((eye, neg, neg))),
    }
    return _ok(all(flags.values()), flags)


def _check_z_related():
    """The relatedness of z_{K,a} for every a with a0 a1 a2 = 1, proved on
    the generic a; per the calibration contract this check must report its
    status rather than pass silently."""
    a = cayley.generic_a()
    z = cayley.special_cocycle(a)
    flags = {
        "related": cayley.is_related_triple(z),
        "multipliers_are_a": z.multipliers == a,
        "det_is_mu4": all(s.det() == s.mu**4 for s in z.t),
    }
    return _ok(all(flags.values()), {"a": [str(x) for x in a], **flags})


def _check_z_cocycle_condition():
    a = (Fraction(2), Fraction(3), Fraction(1, 6))
    z = cayley.special_cocycle(a)
    closed = all(
        z.t[j].iota_twisted().matrix == cayley.special_cocycle_iota_closed_form(j, a)
        for j in range(3)
    )
    return _ok(
        closed and cayley.cocycle_condition_holds(z),
        {"a": [str(x) for x in a]},
    )


def _check_freedom_identity():
    k = Fraction(2)
    lam = (
        QuadExtScalar(3, -2, k),
        QuadExtScalar(1, 1, k),
        QuadExtScalar(1, 1, k),
    )
    a = (Fraction(1), Fraction(2), Fraction(1, 2))
    a_prime = tuple(ai * li.norm() for ai, li in zip(a, lam))
    good = cayley.freedom_identity_holds(a, a_prime, lam)
    ell = cayley.coboundary_triple(lam)
    good &= cayley.is_related_triple(ell)
    return _ok(good, {"lambda_norms": [str(x.norm()) for x in lam]})


# --------------------------------------------------------------------------
# the Albert algebra


def _check_albert_basics():
    e = [albert.e_idem(i) for i in range(3)]
    good = albert.trace_form_T(e[0], e[0]) == 1
    good &= all(
        albert.cross(e[i], e[(i + 1) % 3]) == e[(i + 2) % 3] for i in range(3)
    )
    x = albert.generic_element("x")
    good &= 6 * albert.generic_norm() == albert.trace_form_T(x, albert.cross(x, x))
    # trace pairing on the c0 slot equals the full norm polarization
    x8, y8 = cayley.generic_octonion("y"), cayley.generic_octonion("z")
    good &= albert.trace_form_T(albert.c_only(0, x8), albert.c_only(0, y8)) == 2 * x8.norm_pairing(y8)
    return _ok(good, {"generic_coordinates": 27})


def _specialcor_data():
    a = Fraction(3)
    z = cayley.special_cocycle((Fraction(1), a, div(1, a)))
    c = Fraction(1, 2) * (cayley.u(2) + cayley.u(8))
    j = albert.c_only(0, c)
    return z, c, j


def _check_specialcor():
    z, c, j = _specialcor_data()
    ml = albert.moving_lemma_data(z, j)
    c_prime = Fraction(1, 2) * (cayley.u(1) + cayley.u(7))
    good = c.norm() == 0
    good &= albert.sharp(j) == albert.ZERO
    good &= ml.j_prime == albert.c_only(0, c_prime)
    good &= ml.r == 1
    good &= all(ml.checks.values())
    return _ok(good, {"r": str(ml.r), "checks": ml.checks})


def _check_g_action():
    eye = cayley.Similitude(identity(8))
    neg = cayley.Similitude(scal_mul(Fraction(-1), identity(8)))
    gmm = albert.g_map(cayley.SimilitudeTriple((eye, neg, neg)))
    kernel = albert.restrict_to_A(gmm) == identity(10)
    z, _, _ = _specialcor_data()
    gz = albert.g_map(z)
    rz = albert.restrict_to_A(gz)
    good = kernel and gz.preserves_norm() and mdet(rz) == 1 and albert.preserves_a_form(rz)
    return _ok(good, {"kernel_restricts_to_identity": kernel, "det_z_on_A": 1})


def _check_dagger_identities():
    z, _, _ = _specialcor_data()
    gz = albert.g_map(z)
    want = albert.g_map(
        cayley.SimilitudeTriple(
            tuple(cayley.Similitude(mat_inv(s.sigma_n().matrix)) for s in z.t)
        )
    )
    good = gz.dagger() == want
    p = albert.psi(3, 2, cayley.u(5))
    good &= p.dagger() == albert.psi(2, 3, -cayley.u(4))
    good &= albert.identity_map().dagger() == albert.identity_map()
    good &= gz.dagger().dagger() == gz
    # M-conjugation implements dagger on the A-restrictions
    m = descent.dagger_cocycle_matrix()
    for f in (gz, p):
        lhs = mat_mul(m, mat_mul(albert.restrict_to_A(f), mat_inv(m)))
        good &= lhs == albert.restrict_to_A(f.dagger())
    return _ok(good, {"psi_dagger": "psi32(u5)+ = psi23(-u4)"})


def _check_psi_restriction():
    p = albert.psi(3, 2, cayley.u(5))
    r = albert.restrict_to_A(p)
    # V45(1) structure: identity plus E[4,5] and E[6,7] in A coordinates
    # (1-based rows/cols of the display), i.e. indices (3,4) and (5,6)
    expect = from_nonzeros(10, 10, [(i, i, 1) for i in range(10)] + [(3, 4, 1), (5, 6, 1)])
    matches = r == expect
    good = matches and albert.preserves_a_form(r) and p.preserves_norm()
    return _ok(good, {"matches_V45(1)": matches})


def _check_swap_map():
    sw = albert.swap_map()
    r = albert.restrict_to_A(sw)
    d = mdet(r)
    witness = {
        "det_on_A": int(d),
        "norm_isometry": sw.preserves_norm(),
        "note": (
            "the displayed bar-less slot swap has determinant -1 on A but "
            "is not a norm isometry; the norm-preserving hermitian "
            "congruence conjugates entries and has determinant +1"
        ),
    }
    if d == -1:
        return "pass", witness
    ok = witness["norm_isometry"] and albert.in_subgroup_H(sw) and d == 1
    return ("open-question" if ok else "fail"), witness


def _check_a_gram_display():
    """The A-form as displayed: -2(v0 v9 + v1 v8 + v2 v7 + v3 v6) + 2 v4 v5
    on generic A-coordinates v0..v9, then two of its values."""
    v = [variable(f"v{i}") for i in range(10)]
    display = 2 * v[4] * v[5] - 2 * (v[0] * v[9] + v[1] * v[8] + v[2] * v[7] + v[3] * v[6])
    good = albert.a_form_value(v) == display
    e1 = albert.e_idem(1)
    e2 = albert.e_idem(2)
    v = albert.a_project(e1 + e2)
    good &= albert.a_form_value(v) == 2  # the S2 block: value 2 alpha beta
    j = albert.c_only(0, cayley.u(3) - cayley.u(6))
    good &= albert.a_form_value(albert.a_project(j)) == 2
    return _ok(good, {"value(e1+e2)": 2, "value(u3-u6)": 2})


# --------------------------------------------------------------------------
# descent


def _check_twista_descent():
    witness = {}
    good = True
    for k in (2, 3, -5):
        q = descent.twist_a_descend(k)
        match = forms.isometric(q, descent.twist_a_expected(k))
        witness[f"k={k}"] = {"descended": forms.form_literal(q), "matches": match}
        good &= match
    return _ok(good, witness)


def _rostcalc_holds(rep: descent.RostCalcReport) -> bool:
    """q_z matches the table, q_z - q has the expected Witt class, and the
    Arason class is trivial exactly when the real symbol is."""
    arason_ok = rep.arason_class_trivial == (not rep.real_symbol_nontrivial)
    return rep.qz_matches_table and rep.difference_witt_class_ok and arason_ok


def _check_rostcalc_pipeline():
    witness = {}
    good = True
    for k, a in [(2, 3), (-1, -1), (3, -2), (5, 7), (-2, -3)]:
        rep = descent.rostcalc_report(k, a)
        good &= _rostcalc_holds(rep)
        witness[f"(k,a)=({k},{a})"] = rep.as_dict()
    return _ok(good, witness)


def _check_rostcalc_table():
    rows = descent.rostcalc_table_rows(2, 3)
    good = all(row["fixed_ok"] and row["values_ok"] for row in rows)
    return _ok(
        good,
        {row["subspace"]: row["contribution"] for row in rows},
    )


_STATUS_RANK = {"pass": 0, "open-question": 1, "fail": 2}


def _bundle(parts: dict[str, tuple[str, dict]]) -> tuple[str, dict]:
    status = max((s for s, _ in parts.values()), key=_STATUS_RANK.__getitem__)
    return status, {name: w for name, (_, w) in parts.items()}


def _check_p29():
    return _bundle(
        {
            "swap": _check_swap_map(),
            "a_gram_display": _check_a_gram_display(),
            "psi_on_A": _check_psi_restriction(),
        }
    )


def _check_p30():
    return _bundle(
        {
            "twistA": _check_twista_descent(),
            "rostcalc": _check_rostcalc_pipeline(),
            "descent_table": _check_rostcalc_table(),
        }
    )


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
    ("P12", "foldings: orbit-sum values equal orbit sizes", _check_orbit_values),
    ("P13", "foldings: Rost multiplier 1 in every case", _check_fold_multipliers),
    ("P14", "embeddings: SL2 in SL4 multipliers 2 and 1", _check_sl_embeddings),
    ("P15", "foldings: A_2l rejected (non-reduced BC_l)", _check_a2l_rejected),
    ("P16", "coroot forms: Cartan/2 when simply laced", _check_canonical_gram),
    ("P17", "Cayley basis: Gram against S8", _check_cayley_gram),
    ("P18", "Cayley basis: involution table", _check_involution_table),
    ("P19", "Cayley norm: composition law", _check_composition),
    ("P20", "similitudes: sigma_n(P) = P and the m_j data", _check_p_and_m_similitudes),
    ("P21", "triples: (1,1,1) and (1,-1,-1) are related", _check_small_triples_related),
    ("P22", "triples: the z-triples are related", _check_z_related),
    ("P23", "cocycles: iota-twist closed form and condition", _check_z_cocycle_condition),
    ("P24", "cocycles: cohomologous special cocycles", _check_freedom_identity),
    ("P25", "Albert algebra: trace/cross/norm basics", _check_albert_basics),
    ("P26", "Albert algebra: the rank-one element in general position", _check_specialcor),
    ("P27", "g-action: kernel, norm preservation, det on A", _check_g_action),
    ("P28", "dagger: adjoint identities and the M-conjugation", _check_dagger_identities),
    ("P29", "subspace A: slot swap, form display and psi", _check_p29),
    ("P30", "descent: the twistA and rostcalc pipelines", _check_p30),
]


def run_checks(only: str | None = None, overrides: dict | None = None) -> list[CheckResult]:
    """Run the ledger (deterministic order); `only` filters by identifier
    or by a word of the location, and `only=""` selects no check."""
    results = []
    for (check_id, location, fn), names in zip(CHECKS, _CHECK_NAMES):
        if only is not None and only.lower() not in names:
            continue
        if overrides and check_id == "P30" and {"k", "a"} <= overrides.keys():
            rep = descent.rostcalc_report(overrides["k"], overrides["a"])
            status, witness = _ok(_rostcalc_holds(rep), rep.as_dict())
            results.append(CheckResult(check_id, location, status, witness))
            continue
        try:
            status, witness = fn()
        except Exception as exc:  # failures are data, not crashes
            status, witness = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CheckResult(check_id, location, status, witness))
    return results


def _loc_tokens(location: str) -> tuple[str, ...]:
    return tuple(tok.strip(",").lower() for tok in location.split())


# each check's names for `only`, its identifier and its location's tokens,
# lower-cased once at import
_CHECK_NAMES = [(check_id.lower(), *_loc_tokens(location)) for check_id, location, _ in CHECKS]


def report_json(results: list[CheckResult]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "quadalg verify-paper",
        "checks": [r.as_dict() for r in results],
        "summary": {
            "pass": sum(r.status == "pass" for r in results),
            "fail": sum(r.status == "fail" for r in results),
            "open-question": sum(r.status == "open-question" for r in results),
        },
    }


def render_table(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.location) for r in results) if results else 10
    for r in results:
        lines.append(f"{r.check_id}  {r.location.ljust(width)}  {r.status}")
    return "\n".join(lines)
