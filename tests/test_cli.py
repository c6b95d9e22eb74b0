import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadalg
from quadalg import cayley, forms
from quadalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_form_command(capsys):
    code, out, _ = run(capsys, "form", "7H + <1>")
    assert code == 0
    assert "dim       15" in out and "signature 1" in out


def test_form_b7_flags(capsys):
    code, out, _ = run(capsys, "form", "<<-1,-1,-1,-1>>", "--field", "R")
    assert code == 0
    assert "dim       16" in out and "signature 16" in out
    assert "'4': True" in out


def test_form_hyperbolic(capsys):
    code, out, _ = run(capsys, "form", "<1,-1>")
    assert code == 0
    assert "witt      1H + <>" in out


def test_form_over_R_reads_only_signs(capsys):
    # a 27-digit entry (two 14-digit primes) needs no factoring over R
    code, out, err = run(capsys, "form", "<200000000000950000000000777,-1>", "--field", "R")
    assert code == 0 and err == ""
    assert "disc      1" in out and "witt      1H + <>" in out


def test_form_parse_error(capsys):
    for literal in ("<1,>", "0*<1>"):
        code, _, err = run(capsys, "form", literal)
        assert code == 2 and "parse error" in err


def test_form_json(capsys):
    code, out, _ = run(capsys, "form", "<2,3>", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["disc"] == -6


def test_form_decomposes_a_form_with_large_witness_pivots(capsys):
    # a chain of isotropic-vector splits met a 30-digit pivot here and exited 2
    literal = "<-221776,-4,26767,25019,5713,-9,-28012/9,-212,-136701,-9047,16>"
    code, out, err = run(capsys, "form", literal, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    q, an = forms.parse_form(literal), forms.parse_form(payload["anisotropic"])
    hyperbolic = forms.hyperbolic(payload["witt_index"])
    assert forms.isometric(forms.direct_sum(hyperbolic, an), q)
    assert an.dim and not forms.is_isotropic(an)


def test_hermitian_command(capsys):
    code, out, _ = run(capsys, "hermitian", "<1>", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["trace_form"] == "<1,-2>"


def test_hermitian_rejects_k_zero(capsys):
    code, out, err = run(capsys, "hermitian", "<1>", "--k", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1


def test_rootsys_fold(capsys):
    code, out, _ = run(capsys, "rootsys", "--type", "E6", "--fold")
    assert code == 0
    assert "folded: F4" in out and "multiplier: 1" in out


def test_rootsys_triality(capsys):
    code, out, _ = run(capsys, "rootsys", "--type", "D4", "--fold", "triality")
    assert code == 0
    assert "folded: G2" in out


def test_rootsys_bc_rejection(capsys):
    code, _, err = run(capsys, "rootsys", "--type", "A4", "--fold")
    assert code == 2 and "BC_2" in err


def test_rootsys_embedding(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps([[1], [0], [1]]))
    code, out, _ = run(
        capsys, "rootsys", "--type", "A3", "--embedding", str(emb), "--source", "A1"
    )
    assert code == 0 and "multiplier: 2" in out


ELEMENT = json.dumps({"eps": [0, 0, 0], "c": [[0] * 8] * 3})

# nextprime(10^63) * nextprime(3 * 10^63): a 127-digit semiprime, past the
# factoring bounds of quadalg.scalars
BIG = int(
    "3000000000000000000000000000000000000000000000000000000000000550"
    "000000000000000000000000000000000000000000000000000000000022627"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("cayley", "--triple", "{missing}"),
        ("cayley", "--triple", "{bad}"),
        ("rootsys", "--type", "A3", "--embedding", "{missing}", "--source", "A1"),
        ("rootsys", "--type", "A3", "--embedding", "{bad}", "--source", "A1"),
        ("rootsys", "--type", "A3", "--embedding", "{emb}"),
        ("descend", "--k", "2", "--cocycle", "{number}"),
        ("descend", "--k", "2", "--cocycle", "{flat}"),
        ("descend", "--k", "2", "--cocycle", "{unit}", "--gram", "{number}"),
        ("form", f"<{BIG},-3,5>"),
        ("hermitian", "<1>", "--k", str(BIG)),
        ("descend", "--k", "4", "--a", "3"),
        ("descend", "--k", "0", "--a", "3"),
        ("descend", "--k", "x", "--a", "3"),
        ("rootsys", "--type", "B3", "--fold"),
        ("rootsys", "--type", "D5", "--fold", "triality"),
        ("form", "<1,2>", "--json", "{nodir}"),
        ("cayley", "--json", "{nodir}"),
        ("descend", "--k", "2", "--report", "{nodir}"),
        ("verify-paper", "--only", "P01", "--json", "{nodir}"),
        ("cayley", "--triple", "{one8}"),
        ("cayley", "--triple", "{three2}"),
        ("rootsys", "--type", "A3", "--embedding", "{half}", "--source", "A1"),
        ("albert", "--element", "[1]"),
        ("albert", "--element", "{element}", "--map", "{flat}"),
        ("descend", "--k", "2", "--cocycle", "{wide}"),
        ("descend", "--k", "2", "--cocycle", "{eye3}", "--gram", "{tall}"),
        ("descend", "--k", "2", "--cocycle", "{unit}", "--gram", "{zero}"),
        ("rootsys", "--type", "E6", "--fold", "nonsense"),
        ("rootsys", "--type", "A3", "--fold", "triality"),
        ("albert", "--map", "{flat}"),
        ("rootsys", "--type", "A3", "--source", "A1"),
        ("rootsys", "--type", "A3", "--fold", "--embedding", "{missing}", "--source", "A1"),
        ("form", "<1,+>"),
        ("form", "99999999999999999999H"),
        ("form", "9999999999H"),
        ("form", "<<" + ",".join(["1"] * 40) + ">>"),
        ("descend", "--k", "2", "--cocycle", "{eye2}", "--gram", "{flat}"),
        ("descend", "--k", "2", "--gram", "{symmetric}"),
        ("descend", "--k", "2", "--a", "3", "--gram", "{symmetric}"),
        ("descend", "--k", "2", "--cocycle", "{eye2}", "--gram", "{symmetric}", "--a", "3"),
        ("form", "<1e200000>"),
        ("form", "<1,1e-9000>"),
        ("descend", "--k", "2", "--cocycle", "{exponent}"),
        ("cayley", "--cocycle", "1", "1e200000", "1e-200000"),
        ("verify-paper", "--only", ""),
        ("cayley", "--triple", "{triple}", "--cocycle", "2", "3", "1/6"),
        ("cayley", "--triple", "{object}"),
    ],
    ids=[
        "triple_missing",
        "triple_bad_json",
        "embedding_missing",
        "embedding_bad_json",
        "no_source",
        "cocycle_number",
        "cocycle_flat_matrix",
        "gram_number",
        "form_oversized_entry",
        "hermitian_oversized_k",
        "descend_square_k",
        "descend_zero_k",
        "descend_bad_k",
        "fold_no_automorphism",
        "triality_not_d4",
        "form_unwritable",
        "cayley_unwritable",
        "descend_unwritable",
        "verify_unwritable",
        "triple_one_matrix",
        "triple_2x2",
        "embedding_non_integral",
        "element_not_object",
        "map_2x2",
        "cocycle_not_square",
        "gram_not_square",
        "gram_degenerate",
        "fold_unknown_name",
        "triality_not_d",
        "map_without_element",
        "source_without_embedding",
        "fold_with_embedding",
        "form_sign_without_scalar",
        "form_hyperbolic_past_index",
        "form_hyperbolic_oversized",
        "form_pfister_oversized",
        "gram_not_symmetric",
        "gram_without_cocycle",
        "gram_with_a",
        "cocycle_with_a",
        "form_exponent_oversized",
        "form_negative_exponent_oversized",
        "cocycle_exponent_oversized",
        "cayley_cocycle_exponent_oversized",
        "verify_empty_only",
        "triple_with_cocycle",
        "triple_not_a_list",
    ],
)
def test_file_input_errors(tmp_path, capsys, argv):
    files = {
        "missing": tmp_path / "missing.json",
        "bad": tmp_path / "bad.json",
        "emb": tmp_path / "emb.json",
        "number": tmp_path / "number.json",
        "flat": tmp_path / "flat.json",
        "unit": tmp_path / "unit.json",
        "nodir": tmp_path / "no" / "o.json",
        "one8": tmp_path / "one8.json",
        "three2": tmp_path / "three2.json",
        "half": tmp_path / "half.json",
        "wide": tmp_path / "wide.json",
        "eye3": tmp_path / "eye3.json",
        "tall": tmp_path / "tall.json",
        "zero": tmp_path / "zero.json",
        "eye2": tmp_path / "eye2.json",
        "symmetric": tmp_path / "symmetric.json",
        "exponent": tmp_path / "exponent.json",
        "triple": tmp_path / "triple.json",
        "object": tmp_path / "object.json",
    }
    files["bad"].write_text("[[1], [0")
    files["emb"].write_text(json.dumps([[1], [0], [1]]))
    files["number"].write_text("3")
    files["flat"].write_text(json.dumps([[1, 2], [3, 4]]))
    files["unit"].write_text(json.dumps([[[1, 0]]]))  # the 1x1 identity cocycle
    eye8 = [[int(i == j) for j in range(8)] for i in range(8)]
    files["one8"].write_text(json.dumps([eye8]))
    files["three2"].write_text(json.dumps([[[1, 0], [0, 1]]] * 3))
    files["half"].write_text("[[1.5], [0], [1]]")
    files["wide"].write_text(json.dumps([[[0, 0], [0, 0], [1, 0]], [[0, 0], [1, 0], [0, 0]]]))
    files["eye3"].write_text(json.dumps([[[int(i == j), 0] for j in range(3)] for i in range(3)]))
    files["tall"].write_text(json.dumps([[1, 0], [0, 1], [0, 0]]))
    files["zero"].write_text("[[0]]")
    files["eye2"].write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
    files["symmetric"].write_text(json.dumps([[1, 2], [2, 3]]))
    files["exponent"].write_text("[[[1e200000, 0]]]")
    files["triple"].write_text(json.dumps([eye8] * 3))
    files["object"].write_text(json.dumps({"a": 1}))
    code, out, err = run(capsys, *(a.format(element=ELEMENT, **files) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_program_fault_keeps_its_traceback(capsys, monkeypatch):
    """Only ValueError and OSError are input errors; anything else is a
    fault of the program and is not turned into exit 2."""

    def broken(**_):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("quadalg.verify.run_checks", broken)
    with pytest.raises(RuntimeError, match="broken invariant"):
        main(["verify-paper", "--only", "P01"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, spelled",
    [
        (["form", "-1/2*<<5>>"], ["form", "--", "-1/2*<<5>>"]),
        (["descend", "--k", "2", "--a", "-1/3"], ["descend", "--k", "2", "--a=-1/3"]),
        # an option's values have no "--" spelling; a leading space, which
        # the scalar reader strips, keeps argparse from seeing an option
        (["cayley", "--cocycle", "1", "3", "-1/3"], ["cayley", "--cocycle", "1", "3", " -1/3"]),
        (["hermitian", "<1,-1,2>", "--k", "-1/2"], ["hermitian", "<1,-1,2>", "--k=-1/2"]),
        # a "+" glued to a scalar where one is due is its sign, as "-" is;
        # elsewhere it joins two terms
        (["form", "<+5,3>"], ["form", "<5,3>"]),
        (["form", "<<-1,+1>>"], ["form", "<<-1,1>>"]),
        (["form", "+2*<1>"], ["form", "2*<1>"]),
        (["form", "<1>+2*<3>"], ["form", "<1,6>"]),
        (["form", "<1> + <2>"], ["form", "<1,2>"]),
        (["form", "7H + <1>"], ["form", "<" + "1,-1," * 7 + "1>"]),
    ],
    ids=[
        "form",
        "descend",
        "cayley",
        "hermitian",
        "plus_entry",
        "plus_pfister_slot",
        "plus_scale",
        "glued_sum",
        "spaced_sum",
        "hyperbolic_sum",
    ],
)
def test_negative_values_need_no_double_dash(capsys, argv, spelled):
    """An argument that starts with "-" and a digit is a value: the call
    does what the same call spelled so that argparse reads a value does."""
    assert run(capsys, *argv) == run(capsys, *spelled)


@pytest.mark.parametrize(
    "argv, flag",
    [(["cayley"], "--json"), (["albert"], "--json"), (["descend", "--k", "3"], "--report")],
    ids=["cayley", "albert", "descend"],
)
def test_bare_output_flag_prints_what_no_flag_prints(capsys, argv, flag):
    code, out, err = run(capsys, *argv, flag)
    assert code == 0 and out and err == ""
    assert (code, out, err) == run(capsys, *argv)


def test_closed_stdout_exits_141_quietly():
    """A reader that has gone, as in `quadalg form ... | head -c 1`, is not
    an input error: the CLI exits 128 + SIGPIPE and writes no stderr."""
    paths = [str(Path(quadalg.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadalg.cli", "form", "7H + <1>", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_json_entries_read_as_exact_decimals(tmp_path, capsys):
    path = tmp_path / "triple.json"
    tenth = [[0.1 if i == j else 0 for j in range(8)] for i in range(8)]
    path.write_text(json.dumps([tenth] * 3))
    code, out, _ = run(capsys, "cayley", "--triple", str(path))
    assert code == 0
    assert json.loads(out)["multipliers"] == ["1/100"] * 3


def test_cayley_info(capsys):
    code, out, _ = run(capsys, "cayley")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["gram_deviations"]) == 2
    # P18's computed bar(u1..u8): conj u4 = u5, conj u5 = u4, the rest negated
    assert payload["involution"] == ["-u1", "-u2", "-u3", "u5", "u4", "-u6", "-u7", "-u8"]


def test_cayley_cocycle(capsys):
    code, out, _ = run(capsys, "cayley", "--cocycle", "1", "3", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["related"] and payload["cocycle_condition"]


def test_cayley_cocycle_prints_p23s_verdict_and_exits_1_when_it_fails(capsys, monkeypatch):
    """`cayley --cocycle` prints the cocycle condition P23's judge computed:
    with the iota-twist broken to the identity map, z iota(z) = z z is not
    1, and the command exits 1."""
    monkeypatch.setattr(cayley.Similitude, "iota_twisted", lambda s: s)
    code, out, _ = run(capsys, "cayley", "--cocycle", "1", "3", "1/3")
    assert code == 1 and json.loads(out)["cocycle_condition"] is False


def test_cayley_triple_file(tmp_path, capsys):
    from quadalg.cayley import special_cocycle
    from quadalg.exactmat import dense
    from fractions import Fraction as Q

    z = special_cocycle((Q(1), Q(2), Q(1, 2)))
    path = tmp_path / "triple.json"
    path.write_text(
        json.dumps([[[str(x) for x in row] for row in dense(t.matrix)] for t in z.t])
    )
    code, out, _ = run(capsys, "cayley", "--triple", str(path))
    assert code == 0
    assert json.loads(out)["related"]


def test_albert_element(capsys):
    elem = {"eps": [0, 0, 0], "c": [["0", "1/2", 0, 0, 0, 0, 0, "1/2"], [0] * 8, [0] * 8]}
    code, out, _ = run(capsys, "albert", "--element", json.dumps(elem))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_one"] and payload["norm"] == "0"


def test_descend_twista(capsys):
    code, out, _ = run(capsys, "descend", "--k", "3")
    assert code == 0
    assert json.loads(out)["isometric"]


def test_descend_twista_prints_p30s_verdict_and_exits_1_when_it_fails(capsys, monkeypatch):
    """`descend --k` prints the verdict P30's twistA parts compute: with
    the descended Gram negated, the form is not 4H + <-2, 2k>, and the
    command exits 1."""
    from quadalg import descent
    from quadalg.exactmat import scal_mul

    span_form = descent.span_form
    monkeypatch.setattr(descent, "span_form", lambda form, vs: span_form(scal_mul(-1, form), vs))
    code, out, _ = run(capsys, "descend", "--k", "3")
    assert code == 1 and json.loads(out)["isometric"] is False


def test_descend_rostcalc(capsys):
    code, out, _ = run(capsys, "descend", "--k", "2", "--a", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["qz_matches_table"] and payload["difference_witt_class_ok"]
    assert list(payload["table"]) == ["(u1,u2) with (u7,u8)", "(u3,u6)", "(u4,u5)", "(e1,e2)"]
    assert all(list(row) == ["contribution", "vectors", "fixed", "values", "span"] for row in payload["table"].values())


def test_descend_cocycle_file(tmp_path, capsys):
    # the dagger cocycle M as [x, y] pairs: rational entries
    from quadalg.descent import dagger_cocycle_matrix
    from quadalg.exactmat import dense

    m = dagger_cocycle_matrix()
    rows = [[[str(x), "0"] for x in row] for row in dense(m)]
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "descend", "--k", "2", "--cocycle", str(path))
    assert code == 0
    got = json.loads(out)["descended"]
    from quadalg import forms
    from quadalg.descent import twist_a_expected

    assert forms.isometric(forms.parse_form(got), twist_a_expected(2))


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "P11")
    assert code == 0
    assert "P11" in out and "pass" in out


def test_verify_unknown(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "XYZ")
    assert code == 2


FOLDINGS = ["P11", "P12", "P13", "P15"]


@pytest.mark.parametrize(
    "selector, ids",
    [("P14", ["P14"]), ("p14", ["P14"]), ("foldings", FOLDINGS), ("foldings:", FOLDINGS),
     ("Cayley", ["P17", "P18", "P19"]), ("rostcalc", ["P30"])],
)
def test_verify_only_runs_the_checks_its_word_names(capsys, selector, ids):
    """`--only` matches a check's id or a word of its location, in any case
    and without a trailing comma or colon."""
    code, out, _ = run(capsys, "verify-paper", "--only", selector)
    assert code == 0 and [line.split()[0] for line in out.splitlines()[:-1]] == ids


def test_verify_only_help_says_what_it_matches(capsys):
    with pytest.raises(SystemExit):
        main(["verify-paper", "--help"])
    assert "the checks whose id or location word matches" in " ".join(capsys.readouterr().out.split())


def test_descend_rostcalc_at_any_pair(tmp_path, capsys):
    """`descend --a` judges the rostcalc claims on the one pair it is
    given, as P30 judges its five, and reports them in `--report`."""
    p = tmp_path / "r.json"
    code, out, _ = run(capsys, "descend", "--k", "5", "--a", "-11", "--report", str(p))
    assert code == 0 and out == ""
    payload = json.loads(p.read_text())
    assert (payload["k"], payload["a"]) == ("5", "-11")
    assert payload["qz_matches_table"] is True and "failed" not in payload


def test_verify_paper_takes_no_pair(capsys):
    """The rostcalc claims at one (k, a) are `descend --k K --a A`'s."""
    with pytest.raises(SystemExit) as exit_:
        main(["verify-paper", "--k", "2", "--a", "3"])
    assert exit_.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_verify_report_proves_on_generic_elements(tmp_path, capsys):
    p = tmp_path / "r.json"
    ids = ("P19", "P20", "P22", "P25")
    reports = []
    for check_id in ids:
        code, _, _ = run(capsys, "verify-paper", "--only", check_id, "--json", str(p))
        assert code == 0
        reports.append(json.loads(p.read_text()))
    assert all(r["schema"] == 4 for r in reports)
    witness = {r["checks"][0]["id"]: r["checks"][0]["witness"] for r in reports}
    assert witness["P19"] == {"n(XY) = n(X)n(Y)": True, "generic_coordinates": 16}
    assert witness["P20"]["mu(m_j)"] == witness["P22"]["multipliers"] == ["A", "B", "A^-1*B^-1"]
    assert witness["P22"]["related"] is True
    assert witness["P25"]["6N(X) = T(X, X x X)"] is True
    assert witness["P25"]["generic_coordinates"] == 27


GOLDEN = Path(__file__).parent / "data"


def test_verify_report_matches_the_golden_output(tmp_path, capsys):
    """The full report and the default table, byte for byte, as the
    committed files in tests/data record them.  Regenerate them only for a
    change that means to alter the ledger's output:
    `quadalg verify-paper --json tests/data/verify_paper_report.json
    > tests/data/verify_paper_table.txt`."""
    p = tmp_path / "r.json"
    code, out, err = run(capsys, "verify-paper", "--json", str(p))
    assert code == 0 and err == ""
    assert out == (GOLDEN / "verify_paper_table.txt").read_text()
    assert p.read_bytes() == (GOLDEN / "verify_paper_report.json").read_bytes()


def test_verify_timings_add_each_check_time_to_the_table_and_the_report(tmp_path, capsys):
    """`--timings` appends each check's wall time to its table line and
    puts it in the report as `elapsed_s`; the rest stays the golden
    output."""
    p = tmp_path / "r.json"
    code, out, err = run(capsys, "verify-paper", "--timings", "--json", str(p))
    assert code == 0 and err == ""
    golden = (GOLDEN / "verify_paper_table.txt").read_text().splitlines()
    lines = out.splitlines()
    assert len(lines) == len(golden) and lines[-1] == golden[-1]
    for line, want in zip(lines[:-1], golden[:-1]):
        head, seconds = re.fullmatch(r"(.*?) +(\d+\.\d{6}) s", line).groups()
        assert head == want and float(seconds) >= 0
    report = json.loads(p.read_text())
    elapsed = [check.pop("elapsed_s") for check in report["checks"]]
    assert len(elapsed) == 30 and all(type(t) is float and t >= 0 for t in elapsed)
    assert report == json.loads((GOLDEN / "verify_paper_report.json").read_text())


def test_verify_report_without_timings_is_the_golden_output_under_python_O(tmp_path):
    """Without `--timings` the table and the report carry no time, also
    when `python -O` strips the asserts."""
    paths = [str(Path(quadalg.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    p = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "quadalg.cli", "verify-paper", "--json", str(p)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "verify_paper_table.txt").read_text()
    assert p.read_bytes() == (GOLDEN / "verify_paper_report.json").read_bytes()


RANK_ONE = {"eps": [0, 0, 0], "c": [["0", "1/2", 0, 0, 0, 0, 0, "1/2"], [0] * 8, [0] * 8]}
GENERAL = {
    "eps": ["1/2", -3, "5/4"],
    "c": [[1, 0, "-1/3", 0, 2, 0, 0, 1], [0, "3/2", 0, 1, 0, -1, 0, 0], ["1/5", 0, 0, 0, 0, 0, 4, -1]],
}
# golden file -> argv of `quadalg albert --element`
ALBERT_GOLDENS = {
    "albert_element_rank_one.txt": ["albert", "--element", json.dumps(RANK_ONE)],
    "albert_element.txt": ["albert", "--element", json.dumps(GENERAL)],
    "albert_element_map.txt": [
        "albert", "--element", json.dumps(GENERAL), "--map", str(GOLDEN / "cli" / "albert_map.json")
    ],
}


@pytest.mark.parametrize("name", sorted(ALBERT_GOLDENS))
def test_albert_element_matches_the_golden_output(name, capsys):
    """The whole `albert --element` output, byte for byte, as the files in
    tests/data/cli record it.  Regenerate one only for a change that means
    to alter that output: run `quadalg` on its argv in `ALBERT_GOLDENS` and
    write stdout to the file."""
    code, out, err = run(capsys, *ALBERT_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "cli" / name).read_text()


def test_albert_element_is_the_golden_output_under_python_O():
    """The same outputs with the asserts stripped, all in one interpreter."""
    paths = [str(Path(quadalg.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = (
        "import contextlib, io, json, sys\n"
        "from quadalg.cli import main\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    outs.append([code, buf.getvalue()])\n"
        "print(json.dumps(outs))\n"
    )
    names = sorted(ALBERT_GOLDENS)
    argvs = json.dumps([ALBERT_GOLDENS[name] for name in names])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, argvs], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    want = [[0, (GOLDEN / "cli" / name).read_text()] for name in names]
    assert json.loads(proc.stdout) == want


def test_verify_report_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, out1, _ = run(capsys, "verify-paper", "--only", "P15", "--json", str(p1))
    code2, out2, _ = run(capsys, "verify-paper", "--only", "P15", "--json", str(p2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert p1.read_text() == p2.read_text()
