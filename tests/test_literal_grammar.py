"""The form-literal reader against a generated grammar: Hypothesis builds
literal trees (`<...>`, `<<...>>`, `nH`, a bare `H`, `c*term` and sums),
renders them with varied spacing and glued signs, and the tree's own
evaluator (`reference.literal_entries`, which never calls `forms`) says
what the literal spells.  A render with one structural token dropped or
doubled must be refused, by `parse_form` and by `quadalg form`.  Seeded
renders, some with characters edited, read as the token-list reader
`forms` had before (`reference.reference_parse_form`) reads them.

Grammar-based testing after Godefroid, Kiezun and Levin, "Grammar-based
whitebox fuzzing", PLDI 2008."""

import contextlib
import io
import random

import pytest
from hypothesis import example, given, strategies as st

from quadalg.cli import main
from quadalg.forms import parse_form

from reference import FIXED, literal_entries, reference_parse_form

STRUCTURAL = ("<", ">", "<<", ">>", ",", "*", "+")

# a scalar as it may be written: signed or with a glued `+`, n, n/d or a
# decimal; a zero, now and then, makes a literal that must be refused
scalars = st.sampled_from(
    [f"{sign}{n}{tail}" for sign in ("", "-", "+") for n in (1, 2, 3, 5, 12, 49)
     for tail in ("", "/2", "/3", "/12", ".5", "e1")] + ["0", "+0", "-0/2"]
)
HYPERBOLIC = [("H", n, f"{n}{h}") for n in range(4) for h in "Hh"] + [("H", 1, "H"), ("H", 1, "h")]
leaves = st.one_of(
    st.lists(scalars, max_size=4).map(lambda xs: ("<>", tuple(xs))),
    st.lists(scalars, min_size=1, max_size=3).map(lambda xs: ("<<>>", tuple(xs))),
    st.sampled_from(HYPERBOLIC),
)


def scaled(scales, leaf):
    """c1*c2*...*leaf as the tree ("*", c1, ("*", c2, ... leaf))."""
    for c in reversed(scales):
        leaf = ("*", c, leaf)
    return leaf


terms = st.builds(scaled, st.lists(scalars, max_size=2), leaves)
literal_trees = st.lists(terms, min_size=1, max_size=3).map(lambda ts: ("+", tuple(ts)))
spacings = st.lists(st.sampled_from(["", " ", "  ", "\t", "\n"]), min_size=1, max_size=6)


def tokens(tree) -> list[str]:
    """The tokens of a literal tree, in reading order."""
    kind, *args = tree
    if kind == "+":
        out = []
        for i, term in enumerate(args[0]):
            out += ["+"] * bool(i) + tokens(term)
        return out
    if kind == "H":
        return [args[1]]
    if kind == "*":
        return [args[0], "*", *tokens(args[1])]
    opener, closer = ("<", ">") if kind == "<>" else ("<<", ">>")
    return [opener, *[x for s in args[0] for x in (",", s)][1:], closer]


def render(toks: list[str], spacing: list[str]) -> str:
    """The tokens with spacing[i % len] before token i and after the last;
    a `+` and a scalar may meet, glued, as `++2` or `+-2`."""
    gaps = [spacing[i % len(spacing)] for i in range(len(toks) + 1)]
    return "".join(gap + tok for gap, tok in zip(gaps, toks)) + gaps[-1]


def one(term):
    return ("+", (term,))


@FIXED
@given(literal_trees, spacings, st.integers(0, 99), st.booleans())
@example(one(("H", 1, "H")), [""], 0, False)
@example(one(("*", "0", ("<>", ("1",)))), [""], 0, False)
@example(one(("*", "1", ("<>", ("1",)))), [""], 0, False)
def test_a_generated_literal_reads_as_its_tree_and_one_broken_token_is_refused(
    tree, spacing, index, double
):
    """The render reads as the evaluator says.  Then one structural token
    is dropped or doubled, in a render with a space between tokens so that
    a doubled token cannot merge with its neighbour, and `parse_form` and
    `quadalg form` refuse it.  A sum whose next term opens with a glued
    sign (`<1> +2 * <3>`) still reads as a sum without its `+`, so that
    drop is not made."""
    toks = tokens(tree)
    text, expected = render(toks, spacing), literal_entries(tree)
    if expected is None:
        with pytest.raises(ValueError, match="parse error"):
            parse_form(text)
    else:
        assert parse_form(text).entries == tuple(expected), text
    sites = [i for i, tok in enumerate(toks) if tok in STRUCTURAL]
    i = sites[index % len(sites)] if sites else None
    if i is None or not double and toks[i] == "+" and toks[i + 1].startswith("+"):
        return
    broken = " ".join(toks[:i] + [toks[i]] * (2 * double) + toks[i + 1 :])
    with pytest.raises(ValueError, match="parse error"):
        parse_form(broken)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["form", broken])
    assert code == 2 and err.getvalue().count("\n") == 1, (broken, err.getvalue())
    assert err.getvalue().startswith("error: parse error")


EDITS = " <>+*,-/0123456789Hh.e_"
SEEDED_SCALARS = [f"{sign}{n}{tail}" for sign in ("", "-", "+") for n in range(13) for tail in ("", "", "/7")]


def random_tree(rng: random.Random):
    """A literal tree of `literal_trees`' shape, drawn from rng."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("<>", "<<>>", "H"))
        if kind == "H":
            leaf = rng.choice(HYPERBOLIC)
        else:
            leaf = (kind, tuple(rng.choices(SEEDED_SCALARS, k=rng.randint(kind == "<<>>", 4))))
        terms.append(scaled(rng.choices(SEEDED_SCALARS, k=rng.choice((0, 0, 1, 2))), leaf))
    return ("+", tuple(terms))


def edited(text: str, rng: random.Random) -> str:
    """text with 1-3 characters inserted, deleted or replaced from EDITS."""
    for _ in range(rng.randint(1, 3)):
        i, c = rng.randint(0, len(text)), rng.choice(EDITS)
        text = rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1 :], text[:i] + c + text[i + 1 :]))
    return text


def reading(read, text: str):
    """The entries read from text, or None where it is refused."""
    try:
        return read(text).entries
    except ValueError as exc:
        assert read is reference_parse_form or str(exc).startswith("parse error"), exc
        return None


PFISTER_16 = "<<" + ",".join(["-1"] * 16) + ">>"
EDGE_ROWS = (
    "32768H + <1>", "2*16384H + 0H + <1>", PFISTER_16 + " + <1>", "9999999999H", "-0*<1>",
    "+1H", "+H", "<1>+H", "<1>+-1H", "+-2*<1>", "<1>\n", "<1>+\n", "\n", "",
)


def test_the_reader_agrees_with_the_token_list_reader():
    """10,000 seeded renders, half with 1-3 characters edited, and the
    bound and sign rows: the same entries, or a refusal by both."""
    rng = random.Random(44)
    texts = list(EDGE_ROWS)
    for n in range(10_000):
        spacing = [rng.choice(("", " ", "  ", "\t", "\n")) for _ in range(rng.randint(1, 4))]
        text = render(tokens(random_tree(rng)), spacing)
        texts.append(edited(text, rng) if n % 2 else text)
    accepted = 0
    for text in texts:
        got = reading(parse_form, text)
        assert got == reading(reference_parse_form, text), text
        accepted += got is not None
    assert accepted > 4000
