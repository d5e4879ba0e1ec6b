"""The support-driven coderivation lifts against the word-by-word oracle.

Every case compares the rows of :func:`lift_zinbiel_coderivation` and
:func:`lift_symmetric_coderivation`, or the prefix rows the deformation
complex reads extended by their tails, with those of the dense lifts in
``dense_lifts.py``, which read the coderivation formula forwards on every
word up to the bound.
"""
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linfty.multimap as multimap_module
import linfty.tensor as tensor_module
from dense_lifts import dense_symmetric_lift, dense_zinbiel_lift
from laws import check_coleibniz, maps_by_arity, restrictions
from linfty import corpus, parse_path
from linfty.action import hemisemidirect
from linfty.graded import GradedSpace
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    add_into,
    lift_symmetric_coderivation,
    lift_zinbiel_coderivation,
)
from linfty.tensor import deformation_complex
from paper import basis_element, mc_residual_of, twisted_bracket

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"
MIXED3 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


def assert_zinbiel_matches(space, family, bound):
    got = lift_zinbiel_coderivation(space, family, bound)
    assert got.rows == dense_zinbiel_lift(space, family, bound).rows
    return got


def assert_symmetric_matches(space, family, bound):
    got = lift_symmetric_coderivation(space, family, bound)
    assert got.rows == dense_symmetric_lift(space, family, bound).rows
    return got


@pytest.mark.parametrize("index", range(19))
def test_catalog_hemisemidirect_products_at_bound_4(index):
    catalog = corpus.action_corpus(19, 0)
    product = hemisemidirect(catalog[index].action).structure
    assert_zinbiel_matches(product.space, product.brackets, 4)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.lif")))
def test_fixture_structures_at_bound_4(fixture):
    sf = parse_path(FIXTURES / fixture)
    for name in sf.spaces:
        structure = sf.structure(name)
        assert_zinbiel_matches(structure.space, structure.brackets, 4)
        assert_symmetric_matches(structure.space, structure.brackets, 4)


def extended_by_tails(space, prefixes, bound):
    """The rows of a Zinbiel lift from its prefix rows: the row of
    ``prefix + tail`` sums each prefix row's entries followed by ``tail``."""
    rows = {}
    for prefix, row in prefixes.items():
        for n in range(bound - len(prefix) + 1):
            for tail in space.words(n):
                for x, c in row.items():
                    add_into(rows.setdefault(prefix + tail, {}), x + tail, c)
    return {w: row for w, row in rows.items() if row}


def test_heisenberg_deformation_lifts_at_bound_4(monkeypatch):
    """The prefix rows of every Zinbiel lift the complex makes, its brackets
    included, extended by their tails."""
    compared = []
    real = multimap_module._prefix_rows

    def checked(space, support, parity, bound):
        compared.append(support)
        prefixes = real(space, support, parity, bound)
        family = maps_by_arity(space, space, parity, PLAIN, dict(support))
        expected = dense_zinbiel_lift(space, family, bound).rows
        assert extended_by_tails(space, prefixes, bound) == expected
        return prefixes

    for module in (multimap_module, tensor_module):
        monkeypatch.setattr(module, "_prefix_rows", checked)
    sf = parse_path(FIXTURES / "heisenberg.lif")
    complex_ = deformation_complex(sf.embedding_tensor(), sf.action_family(), 4)
    complex_.d1_columns()
    for w, b in complex_.basis:
        element = basis_element(complex_, w, b)
        twisted_bracket(complex_, [element])
        if element.degree == 0:
            mc_residual_of(complex_, element)
    # only the pure-target prefix rows of d1: the explicit check and the
    # brackets lift nothing
    assert len(compared) == 1


def test_small_space_at_bound_5():
    rng = random.Random(11)
    for degree in (0, 1):
        plain = corpus.random_restriction_family(MIXED3, [1, 2, 3], degree, rng)
        assert_zinbiel_matches(MIXED3, plain, 5)
        sym = corpus.random_restriction_family(MIXED3, [1, 2, 3], degree, rng, flavor=SYMMETRIC)
        assert_zinbiel_matches(MIXED3, sym, 5)
        assert_symmetric_matches(MIXED3, sym, 5)


def test_arities_above_the_bound_contribute_nothing():
    rng = random.Random(12)
    family = corpus.random_restriction_family(MIXED3, [1, 3], 1, rng, flavor=SYMMETRIC)
    assert not family[3].is_zero()
    for bound in (1, 2):
        zin = assert_zinbiel_matches(MIXED3, family, bound)
        sym = assert_symmetric_matches(MIXED3, family, bound)
        assert all(len(w) <= bound for w in zin.rows)
        assert 3 not in restrictions(zin) and 3 not in restrictions(sym)


def test_cancelling_terms_leave_no_row():
    # f(y, x) = y with y odd and f even: on (y, y, x) the two ways of passing
    # a y in front of the inner y carry opposite Koszul signs
    f = MultiMap(MIXED3, MIXED3, 2, 0, PLAIN, {(1, 0): {1: F(1)}})
    zin = assert_zinbiel_matches(MIXED3, {2: f}, 3)
    assert (1, 1, 0) not in zin.rows
    assert zin.rows[(0, 1, 0)] == {(0, 1): F(1)}


# the prefix rows of the Zinbiel lift are one ``_composite`` call, with every
# word up to ``bound + 1 - shortest key`` read at its last slot; these cases
# meet the ends of that word range


def test_empty_family_lifts_to_no_row():
    for bound in (1, 3):
        assert assert_zinbiel_matches(MIXED3, {}, bound).rows == {}


@pytest.mark.parametrize("degree", (0, 1))
def test_unary_keys_only(degree):
    family = corpus.random_restriction_family(MIXED3, [1], degree, random.Random(21 + degree))
    assert not family[1].is_zero()
    zin = assert_zinbiel_matches(MIXED3, family, 4)
    assert any(len(w) == 4 for w in zin.rows)


@pytest.mark.parametrize("degree", (0, 1))
def test_keys_of_length_three_or_more_only(degree):
    rng = random.Random(31 + degree)
    family = corpus.random_restriction_family(MIXED3, [3, 4], degree, rng, density=0.6)
    assert not family[3].is_zero()
    zin = assert_zinbiel_matches(MIXED3, family, 5)
    assert any(len(w) == 5 for w in zin.rows)


def test_bound_one_keeps_only_the_unary_rows():
    rng = random.Random(41)
    family = corpus.random_restriction_family(MIXED3, [1, 2, 3], 1, rng, density=0.6)
    zin = assert_zinbiel_matches(MIXED3, family, 1)
    assert zin.rows
    assert all(len(w) == 1 for w in zin.rows)


def test_fraction_values_stay_exact():
    f = MultiMap(MIXED3, MIXED3, 2, 0, PLAIN, {(0, 1): {1: F(1, 3)}, (1, 0): {1: F(-2, 3)}})
    zin = assert_zinbiel_matches(MIXED3, {2: f}, 4)
    values = {c for row in zin.rows.values() for c in row.values()}
    assert F(1, 3) in values and F(-2, 3) in values


@pytest.mark.parametrize("degree", (0, 1))
def test_repeated_odd_letters(degree):
    # keys that repeat the odd letters y and z, on words where several
    # copies of one odd letter pass each other
    words = [(1, 1), (2, 2), (2, 0, 2), (1, 2, 1), (2, 2, 2)]
    family = {}
    for k in (2, 3):
        table = {}
        for w in words:
            if len(w) != k:
                continue
            deg = degree + MIXED3.word_degree(w)
            out = [b for b in range(MIXED3.dim) if MIXED3.degrees[b] == deg]
            if out:
                table[w] = {out[0]: F(len(w) - 1)}
        family[k] = MultiMap(MIXED3, MIXED3, k, degree, PLAIN, table)
    assert not all(f.is_zero() for f in family.values())
    zin = assert_zinbiel_matches(MIXED3, family, 5)
    assert any(w.count(1) >= 3 or w.count(2) >= 3 for w in zin.rows)


def test_zinbiel_lift_makes_one_composite_call(monkeypatch):
    import linfty.multimap as multimap_module

    real = multimap_module._composite
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multimap_module, "_composite", counted)
    rng = random.Random(51)
    families = [
        {},
        corpus.random_restriction_family(MIXED3, [1, 2, 3], 1, rng),
        corpus.random_restriction_family(MIXED3, [2, 3], 0, rng, flavor=SYMMETRIC),
    ]
    for family in families:
        calls.clear()
        lift_zinbiel_coderivation(MIXED3, family, 4)
        assert len(calls) == 1


def test_deform_builds_few_placement_tables(capsys):
    # the table is keyed by the inner arity, the front size and parities, not
    # by letters: deform heisenberg at bound 6 built 558 tables keyed by the
    # inner letters and builds 21
    from linfty.cli import main
    from linfty.multimap import _placement_flips

    _placement_flips.cache_clear()
    assert main(["deform", str(FIXTURES / "heisenberg.lif"), "--bound", "6"]) == 0
    assert _placement_flips.cache_info().misses <= 25


def test_repeated_even_letter_counts_every_unshuffle():
    q = MultiMap(MIXED3, MIXED3, 1, 0, SYMMETRIC, {(0,): {0: F(1)}})
    sym = assert_symmetric_matches(MIXED3, {1: q}, 3)
    assert sym.rows[(0, 0)] == {(0, 0): F(2)}
    assert sym.rows[(0, 0, 0)] == {(0, 0, 0): F(3)}


# ---------------------------------------------------------------------------
# properties on random sparse families


@st.composite
def families(draw, flavor):
    degree = draw(st.integers(-1, 2))
    family = {}
    for k in sorted(draw(st.sets(st.integers(1, 3), min_size=1))):
        words = MIXED3.canonical_words(k) if flavor == SYMMETRIC else MIXED3.words(k)
        slots = []
        for w in words:
            out = degree + MIXED3.word_degree(w)
            slots += [(w, b) for b in range(MIXED3.dim) if MIXED3.degrees[b] == out]
        if not slots:
            continue
        chosen = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
        table = {}
        for w, b in chosen:
            num = draw(st.integers(-3, 3).filter(bool))
            table.setdefault(w, {})[b] = F(num, draw(st.integers(1, 3)))
        family[k] = MultiMap(MIXED3, MIXED3, k, degree, flavor, table)
    return family


PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def _nonzero(family):
    return {k: f for k, f in family.items() if not f.is_zero()}


@PROPERTY
@given(family=families(PLAIN) | families(SYMMETRIC))
def test_zinbiel_lift_properties(family):
    lifted = assert_zinbiel_matches(MIXED3, family, 4)
    back = restrictions(lifted)
    expected = {k: f.expand_plain().constants for k, f in _nonzero(family).items()}
    assert {k: f.constants for k, f in back.items()} == expected
    assert check_coleibniz(lifted) == {}


@PROPERTY
@given(family=families(SYMMETRIC))
def test_symmetric_lift_properties(family):
    lifted = assert_symmetric_matches(MIXED3, family, 4)
    back = restrictions(lifted)
    assert {k: f.constants for k, f in back.items()} == {
        k: f.constants for k, f in _nonzero(family).items()
    }
    assert check_coleibniz(lifted) == {}
