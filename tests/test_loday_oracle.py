"""``check_loday_infinity`` against a third route that visits every word,
and its coderivation square against the square of the word-by-word lift.

The checker's second route, the square ``lifted_composite`` of the
brackets with themselves, forms only the lift entries whose word is a
bracket key, from pairs of keys; it builds no lift row.  Its first route
sums the identity on exactly the words the square forms, so the two routes
share that word set, and a word the square never forms would go unseen by
both.  This third route sums the anchored identity on every tensor word up
to the bound, from the slot-picking terms of ``dense_splits.py`` and
``MultiMap.eval``: no split table, no composite kernel and no lift.  Its
residual list must equal the checker's, in order.  The square itself is
held to the brackets applied to every entry of every row of the lift that
visits every word (``dense_lifts.assert_composite_matches``): its nonzero
values must equal theirs, and its words must cover every row where they
read an entry, also where the terms cancel.
"""
import itertools
import random
from pathlib import Path

import pytest

from dense_lifts import assert_composite_matches, dense_zinbiel_lift
from dense_splits import dense_anchored_value
from linfty import corpus
from linfty.action import hemisemidirect
from linfty.fileformat import parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import HomotopyStructure, check_loday_infinity, lie_to_loday
from linfty.multimap import PLAIN, SYMMETRIC, lifted_composite
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
    ok = checked_verdict(hemisemidirect(inst.action).structure, bound)
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
            out.append((f"{path.stem}:product", hemisemidirect(sf.action_family()).structure))
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


# ---------------------------------------------------------------------------
# the coderivation square against the square of the word-by-word lift

MIXED3 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


def assert_square_matches(space, family, bound):
    """The square's nonzero values, once they are the dense square's and its
    words cover every row where the dense square has a term."""
    square = lifted_composite(space, family, family, bound)
    return assert_composite_matches(square, family, dense_zinbiel_lift(space, family, bound))


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(ACTIONS)), ids=lambda i: ACTIONS[i].label)
def test_product_square_equals_the_dense_square(index, bound):
    product = hemisemidirect(ACTIONS[index].action).structure
    assert_square_matches(product.space, product.brackets, bound)


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(PLAIN_FIXTURES)), ids=lambda i: PLAIN_FIXTURES[i][0])
def test_plain_fixture_square_equals_the_dense_square(index, bound):
    structure = PLAIN_FIXTURES[index][1]
    assert_square_matches(structure.space, structure.brackets, bound)


def symmetric_fixture_structures_read_plain():
    out = []
    for path in sorted(FIXTURES.glob("*.lif")):
        sf = parse_path(path)
        for name, (flavor, _) in sorted(sf.bracket_sections.items()):
            if flavor == SYMMETRIC:
                out.append((f"{path.stem}:{name}", lie_to_loday(sf.structure(name))))
    return out


SYMMETRIC_READ_PLAIN = symmetric_fixture_structures_read_plain()


@pytest.mark.parametrize(
    "index", range(len(SYMMETRIC_READ_PLAIN)), ids=lambda i: SYMMETRIC_READ_PLAIN[i][0]
)
def test_symmetric_brackets_read_plain_square_equals_the_dense_square(index):
    # symmetric maps held by a plain structure reach the square through
    # every ordering of their keys, each with its Koszul sign
    structure = SYMMETRIC_READ_PLAIN[index][1]
    assert_square_matches(structure.space, structure.brackets, 4)


@pytest.mark.parametrize("degree", (0, 1))
@pytest.mark.parametrize("flavor", (PLAIN, SYMMETRIC))
@pytest.mark.parametrize("seed", range(3))
def test_random_family_square_equals_the_dense_square(seed, flavor, degree):
    # the placement sign depends on the parity of the family's degree
    rng = random.Random(seed)
    family = corpus.random_restriction_family(MIXED3, (1, 2, 3), degree, rng, flavor, 0.5)
    assert assert_square_matches(MIXED3, family, 4)


def test_square_at_bound_5_equals_the_dense_square():
    family = corpus.random_restriction_family(MIXED3, (1, 2, 3), 1, random.Random(5), PLAIN, 0.3)
    assert assert_square_matches(MIXED3, family, 5)
