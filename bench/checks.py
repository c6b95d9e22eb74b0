"""Output checks that do not use the program.

Each check returns a list of problems; an empty list means the output is
right.  The arithmetic here is a few lines of its own: literals are parsed
with `fractions`, square classes are compared by testing whether a ratio is
a rational square, and the corpus carries its entries' prime sets, so its
discriminants never need factoring.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from corpus import entry_value

# --------------------------------------------------------------------------
# arithmetic of diagonal forms


def parse_literal(text: str) -> list[Fraction]:
    """Entries of a diagonal literal "<a,b,...>" ("<>" is the zero form)."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"not a diagonal literal: {text!r}")
    body = text[1:-1].strip()
    return [Fraction(t) for t in body.split(",")] if body else []


def signature(entries) -> int:
    return sum(1 if a > 0 else -1 for a in entries)


def signed_det(entries) -> Fraction:
    """(-1)^(n(n-1)/2) times the product of the entries."""
    n = len(entries)
    d = Fraction((-1) ** (n * (n - 1) // 2))
    for a in entries:
        d *= a
    return d


def is_rational_square(x: Fraction) -> bool:
    x = Fraction(x)
    if x <= 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def same_square_class(x, y) -> bool:
    return is_rational_square(Fraction(x) / Fraction(y))


def hyperbolic(m: int) -> list[Fraction]:
    return [Fraction(s) for _ in range(m) for s in (1, -1)]


def twist_a_closed_form(k) -> list[Fraction]:
    """4H + <-2, 2k>."""
    k = Fraction(k)
    return hyperbolic(4) + [Fraction(-2), 2 * k]


def rostcalc_closed_form(k, a) -> list[Fraction]:
    """2H + <2, -2k, -2a, 2ak, -2a, 2ak>."""
    k, a = Fraction(k), Fraction(a)
    return hyperbolic(2) + [Fraction(2), -2 * k, -2 * a, 2 * a * k, -2 * a, 2 * a * k]


def invariant_problems(label: str, literal: str, closed_form) -> list[str]:
    """Dimension, signature and discriminant class of a printed literal
    against those of a closed form."""
    got = parse_literal(literal)
    if len(got) != len(closed_form):
        return [f"{label}: dim {len(got)} != {len(closed_form)}"]
    out = []
    if signature(got) != signature(closed_form):
        out.append(f"{label}: signature {signature(got)} != {signature(closed_form)}")
    if not same_square_class(signed_det(got), signed_det(closed_form)):
        out.append(f"{label}: discriminant class differs from the closed form")
    return out


# --------------------------------------------------------------------------
# ledger

OPEN_QUESTIONS = {"P17", "P29"}
LEDGER_IDS = [f"P{i:02d}" for i in range(1, 31)]


def ledger_failed(report: dict) -> bool:
    """A check that reports `fail` (or crashed) is a failed operation."""
    return report.get("status") == "fail" or "error" in report


def ledger_problems(reports: list[dict]) -> list[str]:
    """Statuses and witnesses of one pass against the source's values."""
    ids = [r.get("id") for r in reports]
    if ids != LEDGER_IDS:
        return [f"ledger ran {ids}, expected P01..P30 in order"]
    out = []
    by_id = {r["id"]: r for r in reports}
    for cid, r in by_id.items():
        if ledger_failed(r):
            continue  # counted as failed, not as a wrong answer
        want = "open-question" if cid in OPEN_QUESTIONS else "pass"
        if r["status"] != want:
            out.append(f"{cid}: status {r['status']}, expected {want}")
    checks = {
        "P11": _p11,
        "P13": _p13,
        "P14": _p14,
        "P15": _p15,
        "P17": _p17,
        "P30": _p30,
    }
    for cid, check in checks.items():
        if not ledger_failed(by_id[cid]):
            out += [f"{cid}: {p}" for p in check(by_id[cid]["witness"])]
    return out


def _p11(w) -> list[str]:
    if w.get("folded") != "F4" or sorted(w.get("orbit_sizes", [])) != [1, 1, 2, 2]:
        return [f"E6 folding gave {w}, expected F4 with orbit sizes 1,1,2,2"]
    return []


def _p13(w) -> list[str]:
    if not w or any(m != 1 for m in w.values()):
        return [f"Rost multipliers {w}, expected 1 in every case"]
    return []


def _p14(w) -> list[str]:
    if (w.get("block"), w.get("corner")) != (2, 1):
        return [f"SL2 embeddings gave {w}, expected block 2 and corner 1"]
    return []


def _p15(w) -> list[str]:
    if w != {"A2": "nonreduced-BC", "A4": "nonreduced-BC"}:
        return [f"A2/A4 foldings gave {w}, expected nonreduced-BC rejections"]
    return []


def _p17(w) -> list[str]:
    devs = w.get("deviations", [])
    pairs = sorted(tuple(d["pair"]) for d in devs)
    if pairs != [(3, 6), (4, 5)] or any(Fraction(d["value"]) != Fraction(1, 2) for d in devs):
        return [f"Gram deviations {devs}, expected 1/2 at (3,6) and (4,5) only"]
    return []


def _p30(w) -> list[str]:
    out = []
    twist = w.get("twistA", {})
    if len(twist) != 3:
        out.append(f"twistA witness has {len(twist)} descents, expected 3")
    for key, d in twist.items():
        k = Fraction(key.split("=", 1)[1])
        out += invariant_problems(f"twistA {key}", d["descended"], twist_a_closed_form(k))
    rost = w.get("rostcalc", {})
    if len(rost) != 5:
        out.append(f"rostcalc witness has {len(rost)} descents, expected 5")
    for key, d in rost.items():
        k, a = Fraction(d["k"]), Fraction(d["a"])
        out += invariant_problems(f"q_z {key}", d["q_z"], rostcalc_closed_form(k, a))
        out += invariant_problems(f"q {key}", d["q"], twist_a_closed_form(k))
    return out


# --------------------------------------------------------------------------
# witt_corpus


def disc_class(entries) -> int:
    """Signed squarefree discriminant class, from signs and prime sets."""
    n = len(entries)
    sign = (-1) ** (n * (n - 1) // 2)
    primes: set[int] = set()
    for e in entries:
        sign *= e.sign
        primes ^= set(e.primes)
    out = sign
    for p in primes:
        out *= p
    return out


def witt_failed(out: dict) -> bool:
    return "error" in out


def witt_problems(form, out: dict) -> list[str]:
    """Properties any correct classification has, plus the answers that
    the constructed kinds have by construction."""
    want = [entry_value(e) for e in form.entries]
    n = len(want)
    q = [Fraction(a) for a in out["entries"]]
    an = [Fraction(a) for a in out["anisotropic"]]
    index, in_i = out["index"], out["in_I"]
    sig = signature(want)
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    need(sorted(q) == sorted(want), "parsed entries differ from the literal's expansion")
    need(out["dim"] == n, f"dim {out['dim']} != {n}")
    need(out["signature"] == sig, f"signature {out['signature']} != {sig}")
    need(out["disc"] == disc_class(form.entries), f"disc {out['disc']} != {disc_class(form.entries)}")
    need(n == 2 * index + len(an), f"dim {n} != 2*{index} + {len(an)}")
    need(signature(an) == sig, "anisotropic part changes the signature")
    need(same_square_class(signed_det(want), signed_det(an)), "anisotropic part changes the discriminant")
    need(abs(sig) <= len(an) and (len(an) - n) % 2 == 0, "anisotropic dimension vs signature/parity")
    need(abs(signature(an)) == len(an) or len(an) <= 4, f"indefinite anisotropic part of dim {len(an)}")
    need(out["isotropic"] == (index > 0), "isotropy disagrees with the Witt index")
    need(in_i[0] == (n % 2 == 0), "I^1 membership is not even dimension")
    need(in_i[1] == (n % 2 == 0 and disc_class(form.entries) == 1), "I^2 membership is not trivial disc")
    need(all(in_i[j] <= in_i[j - 1] for j in range(1, 4)), f"I^n memberships {in_i} not nested")
    need(not in_i[2] or sig % 8 == 0, "in I^3 with signature not divisible by 8")
    need(not in_i[3] or sig % 16 == 0, "in I^4 with signature not divisible by 16")
    if form.kind in ("hyperbolic", "twisted_difference"):
        need(index == n // 2 and not an, f"{form.kind} form not fully hyperbolic: {index}H + {an}")
    if form.kind == "isotropic_core":
        need(len(an) == 1, f"isotropic ternary core left an anisotropic part of dim {len(an)}")
    if form.kind == "definite_core":
        need(len(an) == form.core_dim, f"definite core of dim {form.core_dim} gave {len(an)}")
    if form.kind == "pfister_sum":
        need(in_i[form.pfister_n - 1], f"sum of {form.pfister_n}-fold Pfister forms not in I^n")
    return problems


# --------------------------------------------------------------------------
# cli_cold


def _form_problems(payload, index, anisotropic, signature_, in_i=None):
    out = []
    if payload.get("witt_index") != index:
        out.append(f"witt index {payload.get('witt_index')} != {index}")
    if parse_literal(payload.get("anisotropic", "<>")) != anisotropic:
        out.append(f"anisotropic part {payload.get('anisotropic')}")
    if payload.get("invariants", {}).get("signature") != signature_:
        out.append("signature")
    if in_i is not None and payload.get("in_I^n") != in_i:
        out.append(f"I^n memberships {payload.get('in_I^n')}")
    return out


def _pfister_over_r(n_slots: int) -> list[Fraction]:
    """<<-1,...,-1>> = tensor of <1,1>: 2^n ones."""
    return [Fraction(1)] * (1 << n_slots)


def cli_answer_problems(name: str, stdout: str, workdir: str) -> list[str]:
    """Known answers of the well-formed invocations in corpus.cli_invocations."""
    if name == "verify_only":
        with open(f"{workdir}/verify_P14.json") as fh:
            report = json.load(fh)
        checks = report.get("checks", [])
        if [c.get("id") for c in checks] != ["P14"] or checks[0].get("status") != "pass":
            return [f"verify-paper --only P14 reported {checks}"]
        return _p14(checks[0]["witness"])
    payload = json.loads(stdout)
    if name == "form_Q":
        return _form_problems(payload, 7, [Fraction(1)], 1)
    if name == "form_R":
        ones = _pfister_over_r(4)
        return _form_problems(payload, 0, ones, len(ones), {str(n): True for n in range(1, 5)})
    if name == "hermitian":
        k = Fraction(3)
        want = [x for lam in (1, -1, 2) for x in (Fraction(lam), -lam * k)]
        got = parse_literal(payload.get("trace_form", "<>"))
        return [] if got == want else [f"trace form {got}, expected {want}"]
    if name == "fold_E6":
        ok = payload.get("folded") == "F4" and payload.get("multiplier") == 1
        return [] if ok else [f"E6 folds to {payload.get('folded')}, multiplier {payload.get('multiplier')}"]
    if name == "fold_D4":
        return [] if payload.get("folded") == "G2" else [f"D4 triality folds to {payload.get('folded')}"]
    if name == "cocycle":
        mults = [Fraction(m) for m in payload.get("multipliers", [])]
        dets = [Fraction(d) for d in payload.get("determinants", [])]
        out = []
        if mults != [Fraction(1), Fraction(3), Fraction(1, 3)]:
            out.append(f"multipliers {mults}, expected the slots 1, 3, 1/3")
        if dets != [m**4 for m in mults]:
            out.append("an 8-dimensional similitude's determinant is not its multiplier^4")
        if payload.get("related") is not True or payload.get("cocycle_condition") is not True:
            out.append("z-triple not related or cocycle condition fails")
        return out
    if name == "descend_k":
        out = invariant_problems("descended", payload["descended"], twist_a_closed_form(2))
        return out + ([] if payload.get("isometric") is True else ["not isometric to 4H+<-2,2k>"])
    if name == "descend_ka":
        out = invariant_problems("q_z", payload["q_z"], rostcalc_closed_form(2, 3))
        out += invariant_problems("q", payload["q"], twist_a_closed_form(2))
        return out + ([] if payload.get("qz_matches_table") is True else ["q_z does not match the table"])
    raise KeyError(name)


def cli_malformed_ok(returncode: int, stderr: str) -> bool:
    """The exit-code contract for input errors: 2 and one line on stderr."""
    return returncode == 2 and len(stderr.strip().splitlines()) == 1
