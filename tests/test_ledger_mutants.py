"""Ledger checks shown to bite: each mutant is one in-process monkeypatch of
a library function, with the ledger checks it must fail.  Every cache is
cleared before and after a mutant, so no value built by the correct code
survives into the mutant's run, or the other way round.  A row that no
check fails yet is a strict expected failure, and a mutant that no input
can tell apart is listed with the reason instead of run.  Two gates keep the
witnesses honest: a failing check names what broke, and no witness value in
`verify.py` is a literal."""

import ast
import json
from pathlib import Path

import pytest

from quadalg import albert, cayley, descent, exactmat, forms, rootsys, scalars, verify
from quadalg.exactmat import dense, freeze
from quadalg.scalars import div

from reference import linear_map_from_action


def clear_caches():
    for module in (scalars, exactmat, forms, cayley, albert, rootsys, descent, verify):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


def diag_d_flipped(*indices, real=cayley.diag_d):
    def mutant():
        d = [list(row) for row in dense(real())]
        for i in indices:
            d[i][i] = -d[i][i]
        return freeze(d)

    return mutant


def perm_P_images_swapped(a, b, real=cayley.perm_P):
    """P with the images of u_a and u_b exchanged: its columns a, b swapped."""

    def mutant():
        rows = [list(row) for row in dense(real())]
        for row in rows:
            row[a - 1], row[b - 1] = row[b - 1], row[a - 1]
        return freeze(rows)

    return mutant


def negated_at_2(real):
    return lambda a, b, place: -real(a, b, place) if place.p == 2 else real(a, b, place)


def b_and_c_swapped(real=rootsys._read_type):
    """_read_type naming each B_n C_n and each C_n B_n, with the same walk."""

    def mutant(cartan, prefer):
        folded, walk = real(cartan, prefer)
        swapped = {"B": "C", "C": "B"}.get(folded.label[0])
        return (rootsys.build_root_datum(swapped + folded.label[1:]), walk) if swapped else (folded, walk)

    return mutant


def key_difference(real=scalars._product_terms):
    """The product with m / n for m * n: each monomial of the second factor
    enters inverted."""
    return lambda a, b: real(a, {tuple((v, -e) for v, e in n): d for n, d in b.items()})


def barless_swap():
    """The slot swap as displayed, without the entry conjugations: its
    determinant on A is the stated -1, but it is no norm isometry."""
    return linear_map_from_action(
        lambda x: albert.element((x.eps[0], x.eps[2], x.eps[1]), (x.c[0], x.c[2], x.c[1]))
    )


# the displayed A-Gram with the (u1, u8) pair's sign flipped
A_GRAM_U1_U8_FLIPPED = exactmat.from_nonzeros(
    10, 10, [(r, 9 - r, 1 if r in (0, 4, 5, 9) else -1) for r in range(10)]
)


def conj_without_swap(c):
    """The involution with u4 and u5 left in place, the rest negated."""
    return (-c[0], -c[1], -c[2], c[3], c[4], -c[5], -c[6], -c[7])


def always(value):
    return lambda *_: value


def negated(real):
    return lambda *args: -real(*args)


# name: (module or modules, attribute, replacement, the checks it must fail);
# a tuple of attributes takes a tuple of replacements, one each
MUTANTS = {
    # z_j is no similitude any more: special_cocycle raises
    "diag_d one sign flipped": (
        cayley,
        "diag_d",
        diag_d_flipped(0),
        ("P22", "P23", "P24", "P26", "P27", "P28", "P30"),
    ),
    # the signs of u4 and u5 flipped: z_j stays a similitude with the same
    # multipliers, and only the relatedness proof can reject it
    "diag_d u4/u5 signs flipped": (
        cayley,
        "diag_d",
        diag_d_flipped(3, 4),
        ("P22", "P26", "P27", "P28", "P30"),
    ),
    # every special cocycle z_j = m_j(a) d P loses its permutation
    "cayley.perm_P is the identity": (
        cayley,
        "perm_P",
        always(exactmat.identity(cayley.DIM)),
        ("P22", "P23", "P24", "P26", "P27", "P28", "P30"),
    ),
    # P28 expects dagger(g_z) = g of the inverse norm adjoints, and
    # dagger(psi32(u5)) = psi23(-u4)
    "AlbertMap.dagger is the identity": (albert.AlbertMap, "dagger", lambda f: f, ("P28",)),
    # P25 expects e_i x e_{i+1} = e_{i+2}; P26's Moving Lemma identities
    # are built from cross products
    "albert.cross negated": (albert, "cross", negated(albert.cross), ("P25", "P26")),
    # P29 states the A-form's closed form on generic coordinates; P27 and
    # P30 read the Gram
    "albert.A_GRAM with the (u1, u8) sign flipped": (
        albert,
        "A_GRAM",
        A_GRAM_U1_U8_FLIPPED,
        ("P27", "P29", "P30"),
    ),
    # P29 expects psi32(u5) to restrict to V45(1) on A
    "albert.psi is the identity": (albert, "psi", lambda *_: albert.identity_map(), ("P29",)),
    # P29 states the swap's determinant -1 on A, and that it preserves N
    "albert.swap_map without the conjugations": (albert, "swap_map", barless_swap, ("P29",)),
    # P03, P06 and P09 each expect two forms that are not Witt equivalent
    "forms.witt_trivial returns True": (forms, "witt_trivial", always(True), ("P03", "P06", "P09")),
    # P10's controls: <<3,2>> is anisotropic with Hasse symbol -1 at 3 and
    # at the real place, and q_z - q at (2, 3) is isotropic of Witt index 10
    "forms.is_isotropic returns True": (forms, "is_isotropic", always(True), ("P10",)),
    "forms.is_isotropic returns False": (forms, "is_isotropic", always(False), ("P10",)),
    # one hyperbolic plane too few or too many: the Witt index of q_z - q
    # reads 9, or <<3,2>> reads isotropic; two fewer also lets P05's rank
    # bound pass a q whose d + d_an is not < 16, and its Hauptsatz check
    # then raises
    "forms._anisotropic_dim two more": (
        forms,
        "_anisotropic_dim",
        lambda q, real=forms._anisotropic_dim: min(real(q) + 2, q.dim),
        ("P10",),
    ),
    "forms._anisotropic_dim two fewer": (
        forms,
        "_anisotropic_dim",
        lambda q, real=forms._anisotropic_dim: max(real(q) - 2, 0),
        ("P05", "P10"),
    ),
    "forms.witt_decompose returns (0, q)": (forms, "witt_decompose", lambda q: (0, q), ("P10",)),
    # forms imports both from scalars, so each is patched in both modules
    "_hasse returns 1": ((scalars, forms), "_hasse", always(1), ("P10",)),
    # P30 states the real symbol (a)(k)(-1) at each pair, nontrivial at
    # (-1, -1) and (-2, -3), and whether a is a norm from Q(sqrt k), which
    # it is only at (3, -2): there the mutant at 2 makes (k, a)_2 = -1
    "hilbert_symbol returns 1": ((scalars, forms, verify), "hilbert_symbol", always(1), ("P30",)),
    "hilbert_symbol negated at 2": (
        (scalars, forms),
        "hilbert_symbol",
        negated_at_2(scalars.hilbert_symbol),
        ("P30",),
    ),
    # K = Q(sqrt k) is a field only for a nonsquare k: P30 states that the
    # descent rejects k = 4 (P07 builds K only at k = 2)
    "scalars.is_square returns False": (
        scalars,
        "is_square",
        always(False),
        ("P30",),
    ),
    # q_z stated as the twisted form q: P30 compares the descended q_z with
    # the table, and they differ at (-1, -1); at (2, 3), P10's pair, q_z = q
    "descent.rostcalc_expected_qz returns q": (
        descent,
        "rostcalc_expected_qz",
        lambda k, a, real=descent.twist_a_expected: real(k),
        ("P30",),
    ),
    # u3 = 2 f2: the (3, 6) Gram entry becomes 1, off the documented
    # deviation (P17), and the z-triples are no longer related (P22); P26-P28
    # and P30 fail too, by the error g_map raises on an unrelated z
    "cayley._CAL_SCALES with c3 = 2": (
        cayley,
        "_CAL_SCALES",
        (2, 2, 2, 1, 1, -1, -1, -1),
        ("P17", "P22", "P26", "P27", "P28", "P30"),
    ),
    # P21 expects the triple (-1, 1, 1) to be unrelated
    "cayley._relates returns True": (cayley, "_relates", always(True), ("P21",)),
    # u4 and u5 keep their places: each z_j keeps its multiplier, but the
    # triple is not related and det z_j changes sign
    "cayley.perm_P with the u4/u5 images swapped": (
        cayley,
        "perm_P",
        perm_P_images_swapped(4, 5),
        ("P22", "P23", "P24", "P26", "P27", "P28", "P30"),
    ),
    # P12 states the folded types, D_n to B_(n-1) and A_(2l+1) to C_(l+1)
    # among them; P13 expects Rost multiplier 1 for every folding
    "rootsys._read_type with B and C swapped": (rootsys, "_read_type", b_and_c_swapped(), ("P12", "P13")),
    # every Gram pairing changes sign, patched in every module that imports
    # it: the trace T(X) = 2n(1, X) turns negative, so conj X = T(X) 1 - X
    # fails (P18), and n(XY) = -n(X)n(Y) (P19); the coroot forms' values
    # turn negative (P12, P16), and so do r (P26), the A-form's values
    # (P29) and the descent table's (P30).  The Gram is built by pullback,
    # not by pairing, so P17 stays open
    "exactmat.pairing negated": (
        (exactmat, cayley, albert, rootsys, verify),
        "pairing",
        negated(exactmat.pairing),
        ("P12", "P16", "P18", "P19", "P26", "P29", "P30"),
    ),
    # conj with u4 and u5 unswapped is not T(X) 1 - X, and it fixes u4
    # (P18); the star product built on it relates no z-triple (P22, P24),
    # and the Albert algebra's cubic norm and maps read it (P25, P29).
    # P26-P28 and P30 fail too, by the error g_map raises on an unrelated z
    "cayley._conj_coords with u4 and u5 unswapped": (
        cayley,
        "_conj_coords",
        conj_without_swap,
        ("P18", "P22", "P24", "P25", "P29"),
    ),
    # every descended Gram changes sign: P30's twistA and rostcalc forms
    # turn negative, and so do the table's spans
    "descent.span_form with the form negated": (
        descent,
        "span_form",
        lambda form, vectors, real=descent.span_form: real(exactmat.scal_mul(-1, form), vectors),
        ("P30",),
    ),
    # every identity on generic coordinates is a product of Laurent polynomials
    "scalars._product_terms subtracts keys": (
        scalars,
        "_product_terms",
        key_difference(),
        ("P19", "P20", "P22", "P25", "P26", "P27", "P28", "P29", "P30"),
    ),
}

# Rows that no ledger check fails yet (none today).  The strict marker
# makes a row fail loudly once a check catches its mutant.
BLIND = ()

# Mutants that no correct input tells apart from the library, with the reason.
EQUIVALENT = {
    (forms, "_certify"): "doing nothing: it only raises when the anisotropic part was built "
    "wrong, which the correct `_peel` and `_binary` never do; "
    "tests/test_forms.py breaks each of them to show that it raises",
}


@pytest.fixture
def mutant(request, monkeypatch):
    modules, names, replacements, must_fail = MUTANTS[request.param]
    if not isinstance(names, tuple):
        names, replacements = (names,), (replacements,)
    clear_caches()
    for module in modules if isinstance(modules, tuple) else (modules,):
        for name, replacement in zip(names, replacements):
            monkeypatch.setattr(module, name, replacement)
    yield must_fail
    monkeypatch.undo()
    clear_caches()


BLIND_ROW = pytest.mark.xfail(raises=AssertionError, strict=True, reason="no ledger check fails it yet")
ROWS = [pytest.param(name, marks=BLIND_ROW) if name in BLIND else name for name in sorted(MUTANTS)]


@pytest.mark.parametrize("mutant", ROWS, indirect=True)
def test_every_mutant_fails_its_checks(mutant):
    statuses = {c: [r.status for r in verify.run_checks(only=c)] for c in mutant}
    assert statuses == {c: ["fail"] for c in mutant}


GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_paper_report.json").read_text())
PASSING = {c["id"]: c["witness"] for c in GOLDEN["checks"]}


# The Cayley-table rows: no judge runs when the table is built, so each
# check they list fails by naming the claims that broke, not by an error;
# and a descended form that is wrong fails P30's claims, the Arason one
# included, without raising.
NAMED_ONLY = {
    "cayley._conj_coords with u4 and u5 unswapped",
    "exactmat.pairing negated",
    "descent.span_form with the form negated",
}


@pytest.mark.parametrize("mutant", [name for name in sorted(MUTANTS) if name not in BLIND], indirect=True)
def test_a_failing_check_shows_what_failed(mutant, request):
    """Each check a mutant fails reports a witness other than its passing
    one, which names the claims that broke or carries the error raised,
    and which the JSON report can hold."""
    named_only = request.node.callspec.params["mutant"] in NAMED_ONLY
    for check_id in mutant:
        (result,) = verify.run_checks(only=check_id)
        assert json.loads(json.dumps(result.witness)) != PASSING[check_id], check_id
        assert "failed" in result.witness or ("error" in result.witness and not named_only), check_id


def _called(node) -> str:
    return node.func.id if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) else ""


def _computed(claims) -> list:
    """The computed value of each claim in a dict literal or comprehension,
    those of its ** entries included."""
    if isinstance(claims, ast.DictComp):
        return [claims.value.elts[0]]
    pairs = zip(claims.keys, claims.values) if isinstance(claims, ast.Dict) else ()
    return [slot for key, value in pairs for slot in (_computed(value) if key is None else [value.elts[0]])]


def _shown(call) -> list:
    """The shown values of a `_verdict` call: its second argument, by
    position or as `shown=`, when that is a dict literal."""
    shown = call.args[1:2] + [k.value for k in call.keywords if k.arg == "shown"]
    return [v for d in shown if isinstance(d, ast.Dict) for v in d.values]


def _judges(f) -> bool:
    """A function of verify.py that gives a verdict: a check, one that
    calls `_verdict` or `_bundle`, or one annotated to return a verdict."""
    verdict = ast.unparse(f.returns) == "tuple[str, dict]" if f.returns else False
    calls = any(_called(n) in ("_verdict", "_bundle") for n in ast.walk(f))
    return f.name not in ("_verdict", "_bundle") and (f.name.startswith("_check_") or calls or verdict)


def test_no_literal_in_a_computed_slot():
    """A witness reports what its check computed: every function that
    gives a verdict, the ledger's checks and those the CLI prints alike,
    returns through `_verdict` or `_bundle`, and no computed or shown value
    of a `_verdict` call is a literal.  A claim's stated value and its
    `documented` value are stated, so they may be literals."""
    tree = ast.parse(Path(verify.__file__).read_text())
    judges = [f for f in tree.body if isinstance(f, ast.FunctionDef) and _judges(f)]
    by_hand = [
        f"{f.name}:{r.lineno}"
        for f in judges
        for r in ast.walk(f)
        if isinstance(r, ast.Return) and _called(r.value) not in ("_verdict", "_bundle")
    ]
    assert len(judges) > 30 and {"rostcalc_verdict", "rostcalc_table_verdict"} <= {f.name for f in judges}
    assert by_hand == []
    slots = [
        slot
        for call in ast.walk(tree)
        if _called(call) == "_verdict"
        for slot in _computed(call.args[0]) + _shown(call)
    ]
    assert [s.lineno for s in slots if not any(isinstance(n, ast.Name) for n in ast.walk(s))] == []


def test_equivalent_mutants_name_library_functions():
    assert set(BLIND) <= set(MUTANTS)
    for module, name in EQUIVALENT:
        assert callable(getattr(module, name))


@pytest.mark.parametrize("mutant", ["albert.psi is the identity"], indirect=True)
def test_the_psi_row_changes_p29s_psi_witness(mutant):
    """P29 reports the V45(1) comparison it made, so the witness, not only
    the status, shows that psi32(u5) does not restrict to V45(1)."""
    (p29,) = verify.run_checks(only="P29")
    assert p29.witness["psi_on_A"] != PASSING["P29"]["psi_on_A"]


@pytest.mark.parametrize("mutant", ["diag_d one sign flipped"], indirect=True)
def test_a_wrong_d_gives_no_g_map(mutant):
    with pytest.raises(ValueError):
        albert.g_map(cayley.special_cocycle((1, 3, div(1, 3))))


@pytest.mark.parametrize("mutant", ["diag_d u4/u5 signs flipped"], indirect=True)
def test_the_family_shortcut_relates_no_special_cocycle_for_a_wrong_d(mutant):
    """The shortcut rests on the generic proof, which the wrong d fails,
    so no specialization of it is related either."""
    z = cayley.special_cocycle((1, 3, div(1, 3)))
    assert not cayley.is_related_triple(z)
    with pytest.raises(ValueError, match="not related"):
        albert.g_map(z)


@pytest.mark.parametrize("mutant", ["descent.rostcalc_expected_qz returns q"], indirect=True)
def test_the_cli_and_the_ledger_share_one_judge(mutant, capsys):
    """`descend --a` prints the verdict P30 gives: under a wrong table
    form it fails the same claim and exits 1."""
    from quadalg.cli import main

    code = main(["descend", "--k", "-1", "--a", "-1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["failed"] == ["qz_matches_table"]
    (p30,) = verify.run_checks(only="P30")
    assert p30.witness["rostcalc"]["(k,a)=(-1,-1)"]["failed"] == ["qz_matches_table"]
