"""``check_lie_infinity`` against a third route that visits every canonical
word.

The checker's two routes are the unshuffle-insertion identity sum and the
coderivation square, ``symmetric_composite`` of the brackets with
themselves.  A word both routes skip would go unseen, so this route sums the
symmetric identity on every canonical word up to the bound, from the
slot-picking terms of ``dense_splits.py`` and ``MultiMap.eval``: no split
table, no letter index and no lift.  Its residual list must equal the
checker's, in order, on the symmetric structures of the fixture files, on
the acting and target structures of the action corpus, and on seeded sparse
and dense families that satisfy no identity.
"""
import random
from pathlib import Path

import pytest

from dense_splits import every_canonical_word_residuals
from linfty import corpus
from linfty.fileformat import parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import HomotopyStructure, check_lie_infinity
from linfty.multimap import SYMMETRIC

FIXTURES = Path(__file__).parent / "fixtures"


def checked_report(structure, bound):
    """The checker's report, once its residual list is that of the
    every-word route."""
    report = check_lie_infinity(structure, bound)
    assert list(report.residuals) == every_canonical_word_residuals(structure, bound)
    return report


def symmetric_fixture_structures():
    out = []
    for path in sorted(FIXTURES.glob("*.lif")):
        sf = parse_path(path)
        for name in sorted(sf.spaces):
            structure = sf.structure(name)
            if structure.flavor == SYMMETRIC:
                out.append((f"{path.stem}:{name}", structure))
    return out


SYMMETRIC_FIXTURES = symmetric_fixture_structures()


@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize(
    "index", range(len(SYMMETRIC_FIXTURES)), ids=lambda i: SYMMETRIC_FIXTURES[i][0]
)
def test_fixture_residuals_equal_the_every_word_route(index, bound):
    assert checked_report(SYMMETRIC_FIXTURES[index][1], bound).ok


def test_every_fixture_file_but_the_plain_one_holds_a_symmetric_structure():
    stems = {label.split(":")[0] for label, _ in SYMMETRIC_FIXTURES}
    paths = {path.stem for path in FIXTURES.glob("*.lif")}
    assert stems == paths - {"loday_plain"}


# the catalog, then two seeded basis changes of each entry
ACTIONS = corpus.action_corpus(57, 7)


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(ACTIONS)), ids=lambda i: ACTIONS[i].label)
def test_action_structure_residuals_equal_the_every_word_route(index, bound):
    action = ACTIONS[index].action
    assert checked_report(action.E, bound).ok
    assert checked_report(action.V, bound).ok


# an even letter of each even degree, so keys repeat letters, and one odd
# letter of each odd degree
MIXED = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1), ("t", 2)])


@pytest.mark.parametrize("density", (0.3, 0.6))
@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("seed", range(1, 4))
def test_random_family_residuals_equal_the_every_word_route(seed, bound, density):
    rng = random.Random(seed)
    family = corpus.random_restriction_family(MIXED, (1, 2, 3), 1, rng, SYMMETRIC, density)
    assert not checked_report(HomotopyStructure(MIXED, SYMMETRIC, family), bound).ok
