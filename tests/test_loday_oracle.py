"""``check_loday_infinity`` against a third route that visits every word.

The checker runs its identity sum only on the words that the brackets'
support reaches through an anchored merge, and its second route, the square
of the lifted coderivation, is built from the same support.  A word both
routes skip would go unseen, so this route sums the anchored identity on
every tensor word up to the bound, from the slot-picking terms of
``dense_splits.py`` and ``MultiMap.eval``: no split table, no merge kernel
and no lift.  Its residual list must equal the checker's, in order.
"""
import itertools
import random
from pathlib import Path

import pytest

from dense_splits import dense_anchored_value
from linfty import corpus
from linfty.fileformat import parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import HomotopyStructure, check_loday_infinity
from linfty.multimap import PLAIN, SYMMETRIC
from linfty.report import Residual, format_vector

FIXTURES = Path(__file__).parent / "fixtures"
CATALOG_SIZE = 19
# the catalog, then two seeded basis changes of each entry
ACTIONS = corpus.action_corpus(3 * CATALOG_SIZE, 7)


def every_word_residuals(structure, bound):
    space, items = structure.space, []
    for n in range(1, bound + 1):
        for word in itertools.product(range(space.dim), repeat=n):
            value = dense_anchored_value(structure, word)
            if value:
                items.append(Residual(n, space.format_word(word), format_vector(space, value)))
    return items


def checked_verdict(structure, bound):
    """The checker's verdict, once its residual list is that of the
    every-word route."""
    report = check_loday_infinity(structure, bound)
    assert list(report.residuals) == every_word_residuals(structure, bound)
    return report.ok


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(ACTIONS)), ids=lambda i: ACTIONS[i].label)
def test_product_residuals_equal_the_every_word_route(index, bound):
    inst = ACTIONS[index]
    ok = checked_verdict(inst.action.hemiproduct().structure, bound)
    if inst.expect_coherent is not None and bound == 4:
        assert ok == inst.expect_coherent, inst.label


def test_the_corpus_holds_coherent_and_incoherent_actions():
    expected = {inst.expect_coherent for inst in ACTIONS[CATALOG_SIZE:]}
    assert {True, False} <= expected


def plain_fixture_structures():
    """The plain structures of the fixture files and the products of their
    actions."""
    out = []
    for path in sorted(FIXTURES.glob("*.lif")):
        sf = parse_path(path)
        for name, (flavor, _) in sorted(sf.bracket_sections.items()):
            if flavor == PLAIN:
                out.append((f"{path.stem}:{name}", sf.structure(name)))
        if sf.action_section is not None:
            out.append((f"{path.stem}:product", sf.action_family().hemiproduct().structure))
    return out


PLAIN_FIXTURES = plain_fixture_structures()


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(PLAIN_FIXTURES)), ids=lambda i: PLAIN_FIXTURES[i][0])
def test_plain_fixture_residuals_equal_the_every_word_route(index, bound):
    checked_verdict(PLAIN_FIXTURES[index][1], bound)


def test_plain_fixtures_include_a_stored_plain_structure():
    assert any(not label.endswith(":product") for label, _ in PLAIN_FIXTURES)


@pytest.mark.parametrize("flavor", (PLAIN, SYMMETRIC))
@pytest.mark.parametrize("seed", range(3))
def test_random_family_residuals_equal_the_every_word_route(seed, flavor):
    # seeded families that satisfy no identity, so most words carry a
    # residual; symmetric maps reach the support through every ordering
    space = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])
    rng = random.Random(seed)
    family = corpus.random_restriction_family(space, (1, 2, 3), 1, rng, flavor, 0.5)
    assert not checked_verdict(HomotopyStructure(space, PLAIN, family), 4)
