import itertools
from fractions import Fraction as Q

import pytest

from quadalg.exactmat import dense, det, freeze, mat_mul, pairing, pullback, transpose
from quadalg.rootsys import (
    _SERIES_RANKS,
    FoldingError,
    LatticeEmbedding,
    RootDatum,
    build_root_datum,
    canonical_form,
    coroot_values,
    diagram_automorphism,
    fold,
    rost_multiplier,
    sl_block_diagonal_embedding,
    sl_corner_embedding,
)
from reference import fresh_python


def test_build_examples():
    assert dense(build_root_datum("A1").cartan) == ((2,),)
    assert det(build_root_datum("E6").cartan) == 3
    f4 = build_root_datum("F4")
    assert sorted(set(coroot_values(f4).values())) == [1, 2]
    with pytest.raises(ValueError):
        build_root_datum("H4")
    with pytest.raises(ValueError):
        build_root_datum("E9")


# each series' first and last catalogued rank, and the ranks just outside
CATALOGUE_ENDS = {
    "A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (3, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)
}


@pytest.mark.parametrize(
    "label, admitted",
    [(f"{s}{n}", True) for s, (lo, hi) in CATALOGUE_ENDS.items() for n in dict.fromkeys((lo, hi))]
    + [(f"{s}{n}", False) for s, (lo, hi) in CATALOGUE_ENDS.items() for n in (lo - 1, hi + 1)],
)
def test_the_catalogue_builds_its_ranks_and_refuses_the_next(label, admitted):
    if admitted:
        assert build_root_datum(label).label == label
    else:
        with pytest.raises(ValueError, match=f"unsupported type {label}"):
            build_root_datum(label)


def test_known_cartans():
    assert dense(build_root_datum("B3").cartan) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert dense(build_root_datum("C3").cartan) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert dense(build_root_datum("G2").cartan) == ((2, -3), (-1, 2))
    b = build_root_datum("B4").cartan
    c = build_root_datum("C4").cartan
    assert transpose(b) == c


def test_root_counts():
    for label, count in [("A2", 6), ("B2", 8), ("G2", 12), ("D4", 24), ("E6", 72), ("F4", 48)]:
        rd = build_root_datum(label)
        assert len(rd.all_coroots()) == count


def test_canonical_form_properties():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        rd = build_root_datum(label)
        gram = canonical_form(rd)  # raises if not Weyl-invariant
        values = coroot_values(rd)
        assert min(values.values()) == 1
        assert all(v == int(v) and v > 0 for v in values.values())
        # Gram = Cartan/2 iff simply laced
        laced = rd.series in ("A", "D", "E")
        half = all(
            2 * dense(gram)[i][j] == dense(rd.cartan)[i][j]
            for i in range(rd.rank)
            for j in range(rd.rank)
        )
        assert half == laced


def first_reflection_moving(rd, gram):
    """The reference Weyl check: the first i with s_i^T G s_i != G, by
    dense products, or None when every simple reflection preserves G."""
    return next(
        (i for i in range(rd.rank) if pullback(rd.simple_reflection(i), gram) != gram), None
    )


def with_norms(rd, norms):
    """rd with the given root norms, and the Gram canonical_form builds
    from them."""
    n = rd.rank
    gram = freeze([[Q(dense(rd.cartan)[i][j], norms[j]) for j in range(n)] for i in range(n)])
    return RootDatum(rd.label, rd.series, n, rd.cartan, tuple(norms)), gram


def test_weyl_criterion_agrees_with_the_pullback_reference():
    catalogued = [build_root_datum(f"{s}{n}") for s, ranks in _SERIES_RANKS.items() for n in ranks]
    assert {"E6", "E7", "E8", "F4", "G2"} <= {rd.label for rd in catalogued}
    for rd in catalogued:
        assert first_reflection_moving(rd, canonical_form(rd)) is None
        # every norm 2: right for the simply laced types only
        flat, gram = with_norms(rd, [2] * rd.rank)
        moved = first_reflection_moving(flat, gram)
        assert (moved is None) == (rd.series in "ADE")
        if moved is None:
            assert canonical_form(flat) == gram
        else:
            with pytest.raises(RuntimeError, match=f"not invariant under s_{moved}$"):
                canonical_form(flat)


def test_weyl_criterion_rejects_g2_with_equal_norms():
    g2, gram = with_norms(build_root_datum("G2"), (2, 2))
    assert first_reflection_moving(g2, gram) == 0
    with pytest.raises(RuntimeError, match="not invariant under s_0"):
        canonical_form(g2)


def test_g2_values():
    assert sorted(set(coroot_values(build_root_datum("G2")).values())) == [1, 3]


def test_diagram_automorphisms():
    e6 = build_root_datum("E6")
    perm = diagram_automorphism(e6)
    assert sorted(perm) == list(range(6)) and perm != tuple(range(6))
    with pytest.raises(ValueError):
        diagram_automorphism(build_root_datum("F4"))
    with pytest.raises(ValueError):
        fold(e6, perm=(1, 0, 2, 3, 4, 5))  # not an automorphism


def test_foldings():
    cases = {
        ("E6", ""): ("F4", [1, 1, 2, 2]),
        ("D4", "triality"): ("G2", [3, 1]),
        ("D5", ""): ("B4", [1, 1, 1, 2]),
        ("D8", ""): ("B7", [1, 1, 1, 1, 1, 1, 2]),
        ("A3", ""): ("C2", [2, 1]),
        ("A5", ""): ("C3", [2, 2, 1]),
        ("A7", ""): ("C4", [2, 2, 2, 1]),
    }
    for (label, name), (folded, sizes) in cases.items():
        fr = fold(build_root_datum(label), name=name)
        assert fr.folded.label == folded
        assert sorted(fr.orbit_sizes) == sorted(sizes)
        # the orbit sums really carry the q-value = orbit size
        rd = build_root_datum(label)
        gram = canonical_form(rd)
        for col, orbit in enumerate(fr.orbits):
            v = [dense(fr.embedding.matrix)[i][col] for i in range(rd.rank)]
            assert pairing(gram, v, v) == len(orbit)
        assert rost_multiplier(fr.embedding, fr.folded, rd) == 1


def test_a2l_fold_rejected():
    for l in (1, 2, 3):
        with pytest.raises(FoldingError) as exc:
            fold(build_root_datum(f"A{2 * l}"))
        assert exc.value.reason == "nonreduced-BC"


def test_sl_embeddings():
    for n in (2, 3, 4):
        src = build_root_datum(f"A{n - 1}")
        tgt = build_root_datum(f"A{2 * n - 1}")
        assert rost_multiplier(sl_block_diagonal_embedding(n), src, tgt) == 2
        assert rost_multiplier(sl_corner_embedding(n), src, tgt) == 1


def test_embedding_validation():
    with pytest.raises(ValueError):
        LatticeEmbedding(freeze([[1, 1], [1, 1], [0, 0]]))  # rank 1
    a2 = build_root_datum("A2")
    a3 = build_root_datum("A3")
    # e1, e3 are orthogonal in A3, so the pullback cannot be a multiple
    # of the A2 form: rejected as not coroot-compatible
    bad = LatticeEmbedding(freeze([[1, 0], [0, 0], [0, 1]]))
    with pytest.raises(ValueError):
        rost_multiplier(bad, a2, a3)
    # rank-1 sources are always proportional; multiplier = value of image
    a1 = build_root_datum("A1")
    b2 = build_root_datum("B2")
    diag = LatticeEmbedding(freeze([[1], [1]]))
    assert rost_multiplier(diag, a1, b2) == 1


def test_folded_cartan_is_f4():
    e6 = build_root_datum("E6")
    fr = fold(e6)
    gram = canonical_form(e6)
    m = len(fr.orbits)
    sums = [
        [dense(fr.embedding.matrix)[i][col] for i in range(6)] for col in range(m)
    ]
    cartan = [
        [
            int(2 * pairing(gram, sums[i], sums[j]) / pairing(gram, sums[i], sums[i]))
            for j in range(m)
        ]
        for i in range(m)
    ]
    f4 = build_root_datum("F4")
    assert freeze(cartan) == transpose(f4.cartan)


# ---------------------------------------- the permutation search as reference


def reference_cartan_match(got, target):
    """Find sigma with got[sigma[i]][sigma[j]] == target[i][j]."""
    m = len(got)
    for sigma in itertools.permutations(range(m)):
        if all(
            got[sigma[i]][sigma[j]] == target[i][j]
            for i in range(m)
            for j in range(m)
        ):
            return list(sigma)
    return None


def reference_identify(dual_cartan, prefer=""):
    """Match the Cartan matrix of the folded coroot system against the
    catalog of dual Cartans, trying every order of every series of the
    rank: a match at X identifies the folded type as X itself."""
    m = len(dual_cartan)
    matches = []
    for series, ranks in _SERIES_RANKS.items():
        if m not in ranks:
            continue
        rd = build_root_datum(f"{series}{m}")
        perm = reference_cartan_match(dual_cartan, dense(transpose(rd.cartan)))
        if perm is not None:
            matches.append((rd.label, perm))
    for label, perm in matches:
        if label.startswith(prefer) and prefer:
            return label, perm
    if matches:
        return matches[0]
    raise RuntimeError("folded system matches no catalogued type")


def reference_fold(rd, perm):
    """(folded label, orbits, embedding matrix) by the permutation search."""
    n = rd.rank
    orbits, seen = [], set()
    for i in range(n):
        if i not in seen:
            orbit, j = [i], perm[i]
            while j != i:
                orbit.append(j)
                j = perm[j]
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    gram = canonical_form(rd)
    sums = [tuple(Q(int(i in orbit)) for i in range(n)) for orbit in orbits]
    m = len(orbits)
    dual_cartan = [
        [int(2 * pairing(gram, sums[i], sums[j]) / pairing(gram, sums[i], sums[i])) for j in range(m)]
        for i in range(m)
    ]
    label, order = reference_identify(dual_cartan, {"A": "C", "D": "B"}.get(rd.series, ""))
    ordered = tuple(orbits[i] for i in order)
    matrix = freeze([[int(i in orb) for orb in ordered] for i in range(n)])
    return label, ordered, matrix


def admitted_folds():
    """Every fold the catalog admits: the A_{2l+1} reversal, the D_n swap,
    every nontrivial D4 automorphism (its orbits never hold adjacent
    nodes), triality among them, and the E6 automorphism."""
    labels = ["A3", "A5", "A7", "D3", "D5", "D6", "D7", "D8", "E6"]
    out = [(label, diagram_automorphism(build_root_datum(label))) for label in labels]
    d4 = build_root_datum("D4")
    for perm in itertools.permutations(range(4)):
        automorphism = all(
            dense(d4.cartan)[perm[i]][perm[j]] == dense(d4.cartan)[i][j] for i in range(4) for j in range(4)
        )
        if automorphism and perm != (0, 1, 2, 3):
            out.append(("D4", perm))
    return out


@pytest.mark.parametrize(
    "label,perm", admitted_folds(), ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else v
)
def test_diagram_reading_matches_the_permutation_search(label, perm):
    rd = build_root_datum(label)
    fr = fold(rd, perm)
    assert (fr.folded.label, fr.orbits, fr.embedding.matrix) == reference_fold(rd, perm)


def test_admitted_folds_cover_the_d4_automorphisms():
    d4_perms = {perm for label, perm in admitted_folds() if label == "D4"}
    assert len(d4_perms) == 5  # S3 on the outer nodes, less the identity
    d4 = build_root_datum("D4")
    assert {diagram_automorphism(d4), diagram_automorphism(d4, "triality")} <= d4_perms


# ------------------------------------------------ operation-count gate

BUILT_ONCE = """
from quadalg import rootsys, verify

built, folds = [], []


def counting(cls, record):
    init = cls.__init__

    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record(self)

    cls.__init__ = wrapper


counting(rootsys.RootDatum, lambda rd: built.append(rd.label))
fold = rootsys.fold
rootsys.fold = lambda *args, **kwargs: folds.append(1) or fold(*args, **kwargs)
assert all(r.status != "fail" for r in verify.run_checks())
formed = rootsys.canonical_form.cache_info()
print(len(built), len(set(built)), formed.misses, formed.currsize, len(folds))
"""


def test_one_ledger_pass_builds_each_structure_once():
    """In a fresh interpreter, one run of the ledger builds each root datum
    and each canonical form once, and folds at most 14 times: the ten
    catalogued foldings, shared by P11-P13, and P15's two rejections."""
    run = fresh_python("-c", BUILT_ONCE)
    assert run.returncode == 0, run.stderr
    built, labels, formed, cached, folds = map(int, run.stdout.split())
    assert 0 < built == labels
    assert 0 < formed == cached <= labels
    assert 0 < folds <= 14
