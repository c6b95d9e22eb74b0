import random
from fractions import Fraction as Q

import pytest

from quadalg import albert, descent, exactmat, forms
from quadalg.descent import (
    SemilinearCocycle,
    dagger_cocycle_matrix,
    descend_form,
    fixed_subspace,
    rostcalc_qz,
    special_cocycle_on_A,
    twist_a_cocycle,
    twist_a_descend,
    twist_a_expected,
)
from quadalg.exactmat import dense, diagonalize, freeze, identity
from quadalg.scalars import QuadExtScalar, sqrt_k, square_class
from quadalg.verify import rostcalc_table_verdict, rostcalc_verdict

from reference import isometric_over_K


def kx(x, y, k):
    return QuadExtScalar(Q(x), Q(y), Q(k))


def test_cocycle_condition_enforced():
    k = Q(2)
    good = SemilinearCocycle(k, identity(2))
    assert good.dim == 2
    with pytest.raises(ValueError):
        SemilinearCocycle(k, freeze([[kx(0, 1, k), kx(0, 0, k)], [kx(0, 0, k), kx(1, 0, k)]]))
    with pytest.raises(ValueError):
        SemilinearCocycle(Q(9), identity(2))  # k a square


def test_identity_cocycle_descends_to_itself():
    k = Q(5)
    gram = freeze([[Q(1), Q(0)], [Q(0), Q(-k)]])
    z = SemilinearCocycle(k, identity(2))
    q = descend_form(gram, z)
    assert forms.isometric(q, forms.form([1, -k]))


def test_fixed_subspace_displayed_blocks():
    """The two 2x2 blocks tabulated in the source computation: -S2 on
    (u3,u6) fixes u3 - u6 and sqrt(k) u3 + sqrt(k) u6; [[0,a],[1/a,0]] on
    (u4,u5) fixes a u4 + u5 and -a sqrt(k) u4 + sqrt(k) u5."""
    k = Q(7)
    rt = sqrt_k(k)
    neg_s2 = freeze([[Q(0), Q(-1)], [Q(-1), Q(0)]])
    z = SemilinearCocycle(k, neg_s2)
    one = kx(1, 0, k)
    assert z.is_fixed((one, -one))
    assert z.is_fixed((rt, rt))
    basis = fixed_subspace(z)
    assert len(basis) == 2
    a = Q(3)
    block = freeze([[Q(0), a], [1 / a, Q(0)]])
    z2 = SemilinearCocycle(k, block)
    assert z2.is_fixed((a * one, one))
    assert z2.is_fixed((-a * rt, rt))


def test_descend_rejects_non_isometries():
    k = Q(2)
    gram = freeze([[Q(1), Q(0)], [Q(0), Q(1)]])
    z = SemilinearCocycle(k, freeze([[Q(0), Q(1)], [Q(1), Q(0)]]))
    # the swap is an isometry of <1,1>; scaling one vector is not
    descend_form(gram, z)
    # a valid cocycle (square = 1) that is not an isometry of <1,1>
    bad = SemilinearCocycle(k, freeze([[Q(0), Q(2)], [Q(1, 2), Q(0)]]))
    with pytest.raises(ValueError):
        descend_form(gram, bad)


def test_descend_rejects_a_non_symmetric_gram():
    # every Gram matrix is preserved by the identity cocycle, so only the
    # symmetry check stands between [[1,2],[3,4]] and a diagonalization
    z = SemilinearCocycle(2, identity(2))
    assert descend_form(freeze([[1, 2], [2, 3]]), z) == forms.form([1, -1])
    with pytest.raises(ValueError, match="not symmetric"):
        descend_form(freeze([[1, 2], [3, 4]]), z)


def test_twist_a_descent():
    for k in (2, 3, -5):
        q = twist_a_descend(k)
        assert forms.isometric(q, twist_a_expected(k))
        assert q.dim == 10


def test_descents_are_K_forms_of_the_A_form():
    """Round trip: every descended form becomes the original A-form again
    over K (checked by the kernel-of-restriction ideal test)."""
    base = forms.DiagonalForm("Q", tuple(map(square_class, diagonalize(albert.A_GRAM))))
    for k in (2, 3, -5):
        assert isometric_over_K(twist_a_descend(k), base, k)
    for k, a in [(2, 3), (-1, -1)]:
        q_z = rostcalc_qz(k, a)
        assert isometric_over_K(q_z, base, k)


def test_rostcalc_reports():
    for (k, a) in [(2, 3), (-1, -1), (3, -2)]:
        status, rep = rostcalc_verdict(k, a)
        assert status == "pass"
        assert rep["qz_matches_table"]
        assert rep["difference_witt_class_ok"]
        assert rep["arason_class_trivial"] == (not (k < 0 and a < 0))
    with pytest.raises(ValueError):
        rostcalc_verdict(2, 0)
    with pytest.raises(ValueError):
        rostcalc_verdict(4, 3)  # k a square
    with pytest.raises(ValueError):
        special_cocycle_on_A(4, 3)


def test_rostcalc_table_rows():
    status, rows = rostcalc_table_verdict(2, 3)
    assert status == "pass" and len(rows) == 4
    assert all(row["fixed"] for row in rows.values())
    assert all(row["span"] for row in rows.values())
    assert [row["values"] for row in rows.values()] == [["0"] * 4, ["2", "-4"], ["-6", "12"], ["-6", "12"]]
    # the complementary totally isotropic pair contributes 2H
    assert rows["(u1,u2) with (u7,u8)"]["contribution"] == forms.form_literal(forms.hyperbolic(2))


@pytest.mark.parametrize("k, a", [(-1, -1), (3, -2), (5, 7), (-2, -3), (2, Q(-1, 3)), (Q(5, 2), Q(7, 3))])
def test_the_descent_table_holds_at_every_pair(k, a):
    """The table is stated for every (k, a), not only at P30's (2, 3)."""
    status, rows = rostcalc_table_verdict(k, a)
    assert status == "pass"
    assert rows["(u3,u6)"]["values"] == [str(v) for v in (2, -2 * k)]
    assert rows["(e1,e2)"]["values"] == [str(v) for v in (-2 * a, 2 * a * k)]


def test_the_span_claim_rejects_a_wrong_contribution(monkeypatch):
    """Fixed vectors with the stated values can still span another form:
    the span claim compares the whole Gram, cross terms included."""
    real = descent.rostcalc_table_rows

    def wrong(k, a):
        rows = real(k, a)
        rows[1]["contribution"] = forms.form([2, 2 * k])
        return rows

    monkeypatch.setattr(descent, "rostcalc_table_rows", wrong)
    status, rows = rostcalc_table_verdict(2, 3)
    assert status == "fail" and rows["failed"] == ["(u3,u6)"]
    assert rows["(u3,u6)"]["failed"] == ["span"]


def test_the_table_sees_a_negated_span_form_only_where_minus_one_is_no_norm(monkeypatch):
    """A sign flip of every descended Gram is invisible at k = 2, where each
    row's form is isometric to its negative (-1 = 1 - 2*1^2 is a norm from
    Q(sqrt 2)); at k = 3 and k = -5 the three rows of nonzero values fail
    their span claims."""
    real = descent.span_form
    monkeypatch.setattr(descent, "span_form", lambda form, vs: real(exactmat.scal_mul(-1, form), vs))
    assert rostcalc_table_verdict(2, 3)[0] == "pass"
    for k, a in ((3, -2), (-5, 7)):
        status, rows = rostcalc_table_verdict(k, a)
        assert status == "fail" and rows["failed"] == ["(u3,u6)", "(u4,u5)", "(e1,e2)"]
        assert all(rows[name]["failed"] == ["span"] for name in rows["failed"])


def test_dagger_cocycle_is_an_involution():
    m = dense(dagger_cocycle_matrix())
    assert freeze([[sum(m[i][t] * m[t][j] for t in range(10)) for j in range(10)]
                   for i in range(10)]) == identity(10)


def test_report_shape():
    _, d = rostcalc_verdict(2, 3)
    assert list(d) == [
        "k",
        "a",
        "q_z",
        "q",
        "qz_matches_table",
        "difference_witt_class_ok",
        "arason_class_trivial",
        "real_symbol_nontrivial",
    ]
