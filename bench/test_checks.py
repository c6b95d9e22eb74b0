"""Tests of the benchmark's own checkers: each accepts a right answer and
rejects a wrong one.  Run with `python -m pytest bench/test_checks.py`."""

import copy
from fractions import Fraction

import checks
import corpus
from corpus import CorpusForm, Entry

# --------------------------------------------------------------------------
# arithmetic


def test_literal_and_square_classes():
    assert checks.parse_literal("<1,-2/3,4>") == [1, Fraction(-2, 3), 4]
    assert checks.parse_literal("<>") == []
    assert checks.same_square_class(Fraction(8), Fraction(2))
    assert checks.same_square_class(Fraction(3, 4), Fraction(12))
    assert not checks.same_square_class(Fraction(-2), Fraction(2))
    assert not checks.same_square_class(Fraction(6), Fraction(2))
    # <1,-1> has signed determinant -(1 * -1) = 1
    assert checks.signed_det([1, -1]) == 1


def test_closed_form_invariants():
    k = 2
    good = "<-2,1,-2,2,-2,2,-2,2,-2,2>"  # a printed 4H + <-2,2k> at k = 2
    assert checks.invariant_problems("q", good, checks.twist_a_closed_form(k)) == []
    assert checks.invariant_problems("q", "<1,1,-2,2,-2,2,-2,2,-2,2>", checks.twist_a_closed_form(k))
    assert checks.invariant_problems("q", "<1,-1>", checks.twist_a_closed_form(k))


# --------------------------------------------------------------------------
# ledger


def _ledger_reports():
    reports = [
        {"id": cid, "status": "pass", "witness": {}} for cid in checks.LEDGER_IDS
    ]
    by_id = {r["id"]: r for r in reports}
    by_id["P11"]["witness"] = {"folded": "F4", "orbit_sizes": [1, 1, 2, 2]}
    by_id["P13"]["witness"] = {"E6": 1, "D4 triality": 1}
    by_id["P14"]["witness"] = {"block": 2, "corner": 1}
    by_id["P15"]["witness"] = {"A2": "nonreduced-BC", "A4": "nonreduced-BC"}
    by_id["P17"]["status"] = "open-question"
    by_id["P17"]["witness"] = {
        "deviations": [
            {"pair": [3, 6], "value": "1/2", "expected": "1"},
            {"pair": [4, 5], "value": "1/2", "expected": "1"},
        ]
    }
    by_id["P29"]["status"] = "open-question"
    twist = {f"k={k}": {"descended": _lit(checks.twist_a_closed_form(k))} for k in (2, 3, -5)}
    rost = {
        f"(k,a)=({k},{a})": {
            "k": str(k),
            "a": str(a),
            "q_z": _lit(checks.rostcalc_closed_form(k, a)),
            "q": _lit(checks.twist_a_closed_form(k)),
        }
        for k, a in [(2, 3), (-1, -1), (3, -2), (5, 7), (-2, -3)]
    }
    by_id["P30"]["witness"] = {"twistA": twist, "rostcalc": rost}
    return reports


def _lit(entries):
    return "<" + ",".join(str(a) for a in entries) + ">"


def test_ledger_accepts_the_source_values():
    assert checks.ledger_problems(_ledger_reports()) == []


def test_ledger_rejects_wrong_statuses_and_witnesses():
    def broken(edit):
        reports = copy.deepcopy(_ledger_reports())
        edit({r["id"]: r for r in reports})
        return checks.ledger_problems(reports)

    assert broken(lambda r: r["P17"].update(status="pass"))
    assert broken(lambda r: r["P29"].update(status="pass"))
    assert broken(lambda r: r["P11"]["witness"].update(orbit_sizes=[1, 2, 3]))
    assert broken(lambda r: r["P13"]["witness"].update(E6=2))
    assert broken(lambda r: r["P14"]["witness"].update(block=1))
    assert broken(lambda r: r["P15"]["witness"].update(A4="not rejected"))
    assert broken(lambda r: r["P17"]["witness"]["deviations"][0].update(value="1"))
    assert broken(
        lambda r: r["P30"]["witness"]["twistA"]["k=3"].update(descended=_lit(checks.twist_a_closed_form(2)))
    )
    assert broken(lambda r: r["P30"]["witness"]["rostcalc"].popitem())


def test_ledger_counts_a_fail_status_as_failed():
    reports = _ledger_reports()
    reports[4]["status"] = "fail"
    assert checks.ledger_failed(reports[4])
    assert checks.ledger_problems(reports) == []  # failed, not a wrong answer


# --------------------------------------------------------------------------
# witt_corpus


def _plane():
    """<2,-8> = H, as the hyperbolic kind."""
    entries = (Entry(1, (2,)), Entry(-1, (2,), 2))
    return CorpusForm("hyperbolic", "<2,-8>", entries)


def _plane_output():
    return {
        "entries": ["2", "-8"],
        "dim": 2,
        "disc": 1,
        "signature": 0,
        "index": 1,
        "anisotropic": [],
        "isotropic": True,
        "in_I": [True, True, True, True],
    }


def test_witt_accepts_a_right_classification():
    assert checks.witt_problems(_plane(), _plane_output()) == []


def test_witt_rejects_wrong_classifications():
    def broken(**changes):
        return checks.witt_problems(_plane(), dict(_plane_output(), **changes))

    assert broken(index=0, anisotropic=["2", "-8"], isotropic=False)  # not hyperbolic
    assert broken(disc=2)
    assert broken(signature=2)
    assert broken(anisotropic=["1"])  # dimension count
    assert broken(in_I=[False, True, True, True])
    assert broken(in_I=[True, False, True, True])
    assert broken(isotropic=False)
    assert broken(entries=["2", "-2"])


def test_witt_kind_answers():
    # 2<<-1>> = <2,2> is definite, so its index is 0 and it lies in I^1.
    pf = CorpusForm("pfister_sum", "2*<<-1>>", (Entry(1, (2,)), Entry(1, (2,))), pfister_n=1)
    out = {"entries": ["2", "2"], "dim": 2, "disc": -1, "signature": 2, "index": 0,
           "anisotropic": ["2", "2"], "isotropic": False, "in_I": [True, False, False, False]}
    assert checks.witt_problems(pf, out) == []
    assert checks.witt_problems(pf, dict(out, in_I=[False, False, False, False]))
    # <1,1,-2> is isotropic ((1,1,1)), leaving H + <a> for a one-dimensional a
    iso = CorpusForm("isotropic_core", "<1,1,-2>", (Entry(1, ()), Entry(1, ()), Entry(-1, (2,))), core_dim=3)
    out = {"entries": ["1", "1", "-2"], "dim": 3, "disc": 2, "signature": 1, "index": 1,
           "anisotropic": ["2"], "isotropic": True, "in_I": [False, False, False, False]}
    assert checks.witt_problems(iso, out) == []
    assert checks.witt_problems(iso, dict(out, index=0, anisotropic=["1", "1", "-2"], isotropic=False))
    core = CorpusForm("definite_core", "<3,5>", (Entry(1, (3,)), Entry(1, (5,))), core_dim=2)
    out = {"entries": ["3", "5"], "dim": 2, "disc": -15, "signature": 2, "index": 0,
           "anisotropic": ["3", "5"], "isotropic": False, "in_I": [True, False, False, False]}
    assert checks.witt_problems(core, out) == []


def test_corpus_is_a_function_of_the_seed():
    a, b = corpus.witt_corpus(7, 40), corpus.witt_corpus(7, 40)
    assert a == b and a != corpus.witt_corpus(8, 40)
    for form in a:
        assert 1 <= len(form.entries) <= 16


def test_indefinite_cores_are_the_same_for_every_seed():
    a, b = corpus.witt_corpus(7, 5), corpus.witt_corpus(8, 5)
    assert a[5:] == b[5:] == corpus.INDEFINITE
    assert corpus.INDEFINITE[0].literal == "<-17/9,12650/4,-425/9,7/4>"
    for form in corpus.INDEFINITE:
        assert 4 <= len(form.entries) <= 6
        assert {e.sign for e in form.entries} == {1, -1}


# --------------------------------------------------------------------------
# cli_cold


def test_cli_known_answers():
    good = '{"witt_index": 7, "anisotropic": "<1>", "invariants": {"signature": 1}}'
    bad = '{"witt_index": 6, "anisotropic": "<1,1,-1>", "invariants": {"signature": 1}}'
    assert checks.cli_answer_problems("form_Q", good, ".") == []
    assert checks.cli_answer_problems("form_Q", bad, ".")
    herm = '{"trace_form": "<1,-3,-1,3,2,-6>"}'
    assert checks.cli_answer_problems("hermitian", herm, ".") == []
    assert checks.cli_answer_problems("hermitian", '{"trace_form": "<1,-3,-1,3,2,6>"}', ".")
    fold = '{"folded": "F4", "multiplier": 1}'
    assert checks.cli_answer_problems("fold_E6", fold, ".") == []
    assert checks.cli_answer_problems("fold_E6", '{"folded": "F4", "multiplier": 2}', ".")
    cocycle = '{"multipliers": ["1","3","1/3"], "determinants": ["1","81","1/81"], "related": true, "cocycle_condition": true}'
    assert checks.cli_answer_problems("cocycle", cocycle, ".") == []
    assert checks.cli_answer_problems("cocycle", cocycle.replace('"81"', '"27"'), ".")


def test_cli_malformed_input_contract():
    assert checks.cli_malformed_ok(2, "error: no such file\n")
    assert not checks.cli_malformed_ok(1, "Traceback (most recent call last):\n  ...\nFileNotFoundError: x\n")
    assert not checks.cli_malformed_ok(2, "line one\nline two\n")
    assert not checks.cli_malformed_ok(0, "")


# --------------------------------------------------------------------------
# reference clock


def test_refclock_factor_is_nominal_over_the_mean_sample():
    from refclock import NOMINAL_S, factor

    assert factor([NOMINAL_S, 2 * NOMINAL_S, 3 * NOMINAL_S]) == 0.5
    assert factor([NOMINAL_S]) == 1.0


def test_refclock_samples_after_each_interval():
    import refclock

    clock = refclock.RefClock()
    clock.sample()
    for t in [0.2, 0.35, 0.1, 0.75]:
        clock.after(t)  # a sample after the second and after the fourth
    clock.finish()  # none: the fourth was just sampled
    assert len(clock.samples) == 3
    clock.after(0.05)
    clock.finish()
    assert len(clock.samples) == 4 and all(t > 0 for t in clock.samples)
