"""Ledger checks shown to bite: each mutant is one in-process monkeypatch of
a library function, with the ledger checks it must fail.  Every cache is
cleared before and after a mutant, so no value built by the correct code
survives into the mutant's run, or the other way round."""

import pytest

from quadalg import albert, cayley, descent, exactmat, forms, rootsys, scalars, verify
from quadalg.exactmat import freeze
from quadalg.scalars import div


def clear_caches():
    for module in (scalars, exactmat, forms, cayley, albert, rootsys, descent, verify):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


def diag_d_flipped(*indices, real=cayley.diag_d):
    def mutant():
        d = [list(row) for row in real()]
        for i in indices:
            d[i][i] = -d[i][i]
        return freeze(d)

    return mutant


# name: (module, attribute, replacement, the checks it must fail)
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
}


@pytest.fixture
def mutant(request, monkeypatch):
    module, name, replacement, must_fail = MUTANTS[request.param]
    clear_caches()
    monkeypatch.setattr(module, name, replacement)
    yield must_fail
    monkeypatch.undo()
    clear_caches()


@pytest.mark.parametrize("mutant", sorted(MUTANTS), indirect=True)
def test_every_mutant_fails_its_checks(mutant):
    statuses = {c: [r.status for r in verify.run_checks(only=c)] for c in mutant}
    assert statuses == {c: ["fail"] for c in mutant}


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
