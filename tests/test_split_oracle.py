"""The split iterators and the componentwise sums against a slot-picking oracle.

``dense_splits.py`` enumerates the terms of both double sums from
``itertools.combinations`` with its own crossing count.  The iterators must
yield the same multiset of terms, and the identity sums built on them, which
``check_action`` and ``check_representation`` rely on with no second route,
must equal the same sums built from the oracle's terms.
"""
import itertools
import random
from collections import Counter

import pytest

from dense_splits import dense_anchored_splits, dense_symmetric_splits
from linfty import corpus
from linfty.action import ActionFamily, BiMultiMap, _action_lhs
from linfty.graded import GradedSpace, anchored_splits, symmetric_splits
from linfty.homotopy import HomotopyStructure, _lie_identity_value, _loday_identity_value
from linfty.multimap import PLAIN, SYMMETRIC, merge_into

BOUND = 4
CATALOG = corpus.action_corpus(19, 0)
PATTERNS = [p for n in range(6) for p in itertools.product((0, 1), repeat=n)]


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: "".join(map(str, p)) or "empty")
def test_iterators_yield_the_oracle_terms(pattern):
    # distinct letters, so every term names its slots
    space = GradedSpace("P", [(f"x{j}", d) for j, d in enumerate(pattern)])
    word = tuple(range(len(pattern)))
    for k in range(1, len(word) + 2):
        assert Counter(symmetric_splits(space, word, [k])) == Counter(
            dense_symmetric_splits(space, word, [k])
        ), k
        assert Counter(anchored_splits(space, word, [k])) == Counter(
            dense_anchored_splits(space, word, [k])
        ), k


def oracle_symmetric_value(structure, word):
    brackets, n, acc = structure.brackets, len(word), {}
    splits = dense_symmetric_splits(structure.space, word, range(1, n + 1))
    for sign, block, rest in splits:
        inner, outer = brackets.get(len(block)), brackets.get(n - len(block) + 1)
        if inner is not None and outer is not None:
            for b, c in inner.eval(block).items():
                merge_into(acc, outer.eval((b,) + rest), sign * c)
    return acc


def oracle_anchored_value(structure, word):
    brackets, n, acc = structure.brackets, len(word), {}
    splits = dense_anchored_splits(structure.space, word, range(1, n + 1))
    for sign, front, block, tail in splits:
        inner, outer = brackets.get(len(block)), brackets.get(n - len(block) + 1)
        if inner is not None and outer is not None:
            for b, c in inner.eval(block).items():
                merge_into(acc, outer.eval(front + (b,) + tail), sign * c)
    return acc


def oracle_action_lhs(action, xw, bound):
    """Reads each component through ``BiMultiMap.eval`` on every target word."""
    E, vspace, n, lhs = action.E, action.V.space, len(xw), {}
    for sign, block, rest in dense_symmetric_splits(E.space, xw, range(1, n + 1)):
        lk = E.bracket(len(block))
        if lk is None:
            continue
        for b, c in lk.eval(block).items():
            for vw in vspace.canonical_words_up_to(bound):
                comp = action.component(n - len(block) + 1, len(vw))
                if comp is not None:
                    merge_into(lhs.setdefault(vw, {}), comp.eval((b,) + rest, vw), sign * c)
    return {vw: v for vw, v in lhs.items() if v}


def random_structures():
    """Seeded degree +1 families that satisfy no identity, so every sum is
    nonzero somewhere."""
    space = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])
    out = []
    for seed in range(3):
        rng = random.Random(seed)
        for flavor in (SYMMETRIC, PLAIN):
            family = corpus.random_restriction_family(space, (1, 2, 3), 1, rng, flavor, 0.5)
            out.append(HomotopyStructure(space, flavor, family))
    return out


def random_action(seed):
    """Random brackets and components (no axiom holds) on spaces with odd
    letters, with components of acting arity up to 3, so the sum reaches
    every unshuffle shape."""
    rng = random.Random(seed)
    espace = GradedSpace("E", [("x", 0), ("y", 1), ("z", -1)])
    vspace = GradedSpace("V", [("u", 1), ("v", 0), ("w", 2)])
    brackets = corpus.random_restriction_family(espace, (1, 2, 3), 1, rng, SYMMETRIC, 0.5)
    E = HomotopyStructure(espace, SYMMETRIC, brackets)
    V = HomotopyStructure(vspace, SYMMETRIC, {})
    comps = {}
    for k, n in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        table = {}
        for ew in espace.canonical_words(k):
            for vw in vspace.canonical_words(n):
                degree = 1 + espace.word_degree(ew) + vspace.word_degree(vw)
                vec = corpus.random_vector(vspace, degree, rng)
                if vec:
                    table[(ew, vw)] = vec
        comps[(k, n)] = BiMultiMap(espace, vspace, k, n, 1, table)
    return ActionFamily(E, V, comps)


ACTIONS = [inst.action for inst in CATALOG] + [random_action(seed) for seed in range(3)]


def catalog_structures():
    seen, out = set(), []
    for inst in CATALOG:
        for st in (inst.action.E, inst.action.V):
            if id(st) not in seen:
                seen.add(id(st))
                out.append(st)
    return out


STRUCTURES = catalog_structures() + random_structures()


@pytest.mark.parametrize("index", range(len(STRUCTURES)))
def test_identity_sums_equal_the_oracle_sums(index):
    structure = STRUCTURES[index]
    space = structure.space
    if structure.flavor == SYMMETRIC:
        for w in space.canonical_words_up_to(BOUND):
            assert _lie_identity_value(structure, w) == oracle_symmetric_value(structure, w), w
    for w in space.words_up_to(BOUND):
        assert _loday_identity_value(structure, w) == oracle_anchored_value(structure, w), w


def test_random_sums_are_not_all_zero():
    # the random families make the comparison above see real values
    for structure in random_structures():
        space = structure.space
        assert any(_loday_identity_value(structure, w) for w in space.words_up_to(3))


def test_product_anchored_sum_equals_the_oracle_sum():
    # a non-coherent action: the product's anchored identity fails
    inst = next(i for i in CATALOG if i.label == "heis-noncentral")
    product = inst.action.hemiproduct().structure
    nonzero = 0
    for w in product.space.words_up_to(BOUND):
        value = _loday_identity_value(product, w)
        assert value == oracle_anchored_value(product, w), w
        nonzero += bool(value)
    assert nonzero


@pytest.mark.parametrize("index", range(len(ACTIONS)))
def test_action_lhs_equals_the_oracle_sum(index):
    action = ACTIONS[index]
    for xw in action.E.space.canonical_words_up_to(BOUND):
        got = {vw: v for vw, v in _action_lhs(action, xw, BOUND).items() if v}
        assert got == oracle_action_lhs(action, xw, BOUND), xw
