"""The split tables and the componentwise sums against a slot-picking oracle.

``dense_splits.py`` enumerates the terms of the three componentwise sums
from ``itertools.combinations`` with its own crossing count.  The rows of
the split tables, read on a word, must give the same multiset of terms,
and the identity sums and the morphism right side built on them must equal
the same sums built from the oracle's terms.  The multilinear expansion
that both morphism routes share is checked against an
``itertools.product`` sum, ``check_action`` against the oracle's
every-word axiom sums, ``check_coherence`` against commutators of the
word-by-word lifts of its families, and the module boundary between the
routes is pinned.
"""
import importlib
import inspect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dense_splits import (
    dense_anchored_splits,
    dense_anchored_value,
    dense_increasing_splits,
    dense_symmetric_splits,
    dense_symmetric_value,
)
from dense_actions import dense_action_residuals, dense_coherence_residuals
from laws import random_vector, unshuffles
from linfty import corpus
from linfty.action import (
    ActionFamily,
    BiMultiMap,
    check_action,
    check_coherence,
    hemisemidirect,
)
from linfty.graded import (
    GradedSpace,
    _anchored_table,
    _increasing_table,
    _symmetric_table,
    compositions,
    increasing_unshuffles,
)
from linfty.homotopy import HomotopyStructure, _increasing_sums, _split_sums
from linfty.multimap import PLAIN, SYMMETRIC, expand, merge_into

BOUND = 4
CATALOG = corpus.action_corpus(19, 0)
PATTERNS = [p for n in range(6) for p in itertools.product((0, 1), repeat=n)]


def parities(space, word):
    return tuple(space.degrees[x] % 2 for x in word)


def symmetric_terms(space, word, k):
    """The rows of ``_symmetric_table`` for arity ``k`` read on ``word`` as
    the oracle's ``(sign, block, rest)`` terms."""
    rows = _symmetric_table(len(word), (k,), parities(space, word))
    assert all(row[0] == k for row in rows)
    return Counter((sign, block(word), rest(word)) for _, sign, _, block, rest in rows)


def anchored_terms(space, word, k):
    """The rows of ``_anchored_table`` for inner arity ``k`` read on
    ``word`` as the oracle's ``(sign, front, block, tail)`` terms."""
    rows = _anchored_table(len(word), (k,), parities(space, word))
    assert all(row[0] == k for row in rows)
    return Counter(
        (sign, front(word), block(word), tail(word)) for _, sign, front, block, tail in rows
    )


def increasing_terms(space, word, blocks):
    """The rows of ``_increasing_table`` read on ``word`` as the oracle's
    ``(sign, parts)`` terms."""
    rows = _increasing_table(tuple(blocks), parities(space, word))
    return Counter((sign, tuple(part(word) for part in parts)) for sign, parts in rows)


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: "".join(map(str, p)) or "empty")
def test_split_tables_yield_the_oracle_terms(pattern):
    # distinct letters, so every term names its slots
    space = GradedSpace("P", [(f"x{j}", d) for j, d in enumerate(pattern)])
    word = tuple(range(len(pattern)))
    for k in range(1, len(word) + 2):
        assert symmetric_terms(space, word, k) == Counter(
            dense_symmetric_splits(space, word, [k])
        ), k
        assert anchored_terms(space, word, k) == Counter(
            dense_anchored_splits(space, word, [k])
        ), k


def slot_compositions(n):
    """The compositions of ``n``, one per set of cut points between slots."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
            size = 1 if cut else size + 1
        yield tuple(sizes) + (size,)


@pytest.mark.parametrize(
    "pattern", [p for p in PATTERNS if p], ids=lambda p: "".join(map(str, p))
)
def test_increasing_table_yields_the_oracle_terms(pattern):
    space = GradedSpace("P", [(f"x{j}", d) for j, d in enumerate(pattern)])
    word = tuple(range(len(pattern)))
    for blocks in slot_compositions(len(word)):
        assert increasing_terms(space, word, blocks) == Counter(
            dense_increasing_splits(space, word, blocks)
        ), blocks


@pytest.mark.parametrize("n", range(1, 8))
def test_increasing_unshuffles_are_the_oracle_splits_in_mask_order(n):
    # every composition up to 7: the generated unshuffles give the oracle's
    # terms, once each, ordered by the block-membership mask of each value
    space = GradedSpace("P", [(f"x{j}", j % 2) for j in range(n)])
    word = tuple(range(n))
    for blocks in compositions(n):
        sigmas = increasing_unshuffles(*blocks)
        assert increasing_terms(space, word, blocks) == Counter(
            dense_increasing_splits(space, word, blocks)
        ), blocks
        masks = []
        for sigma in sigmas:
            mask = [0] * n
            for t, v in enumerate(sigma):
                mask[v] = sum(t >= cut for cut in itertools.accumulate(blocks))
            masks.append(mask)
        assert masks == sorted(masks) and len(set(sigmas)) == len(sigmas), blocks
        assert set(sigmas) <= set(unshuffles(*blocks))


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
                vec = random_vector(vspace, degree, rng)
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
    space, q = structure.space, structure.brackets
    # every word in one call; a batch keeps only the nonzero values
    if structure.flavor == SYMMETRIC:
        words = list(space.canonical_words_up_to(BOUND))
        sums = _split_sums(space, q, q, words, _symmetric_table)
        assert all(sums.values()) and set(sums) <= set(words)
        for w in words:
            assert sums.get(w, {}) == dense_symmetric_value(structure, w), w
    words = list(space.words_up_to(BOUND))
    sums = _split_sums(space, q, q, words, _anchored_table)
    assert all(sums.values()) and set(sums) <= set(words)
    for w in words:
        assert sums.get(w, {}) == dense_anchored_value(structure, w), w


def test_random_sums_are_not_all_zero():
    # the random families make the comparison above see real values
    for structure in random_structures():
        space, q = structure.space, structure.brackets
        assert _split_sums(space, q, q, list(space.words_up_to(3)), _anchored_table)


def test_product_anchored_sum_equals_the_oracle_sum():
    # a non-coherent action: the product's anchored identity fails
    inst = next(i for i in CATALOG if i.label == "heis-noncentral")
    product = hemisemidirect(inst.action).structure
    space, q = product.space, product.brackets
    words = list(space.words_up_to(BOUND))
    sums = _split_sums(space, q, q, words, _anchored_table)
    assert all(sums.values()) and set(sums) <= set(words)
    for w in words:
        assert sums.get(w, {}) == dense_anchored_value(product, w), w
    assert sums


@pytest.mark.parametrize("index", range(len(ACTIONS)))
def test_action_residuals_equal_the_oracle_sums(index):
    # the random actions have components of every arity up to (2, 2)
    action = ACTIONS[index]
    assert check_action(action, BOUND).residuals == tuple(dense_action_residuals(action, BOUND))


# ---------------------------------------------------------------------------
# the morphism right side and the multilinear expansion


def oracle_morphism_rhs(space, components, target, word):
    """``m_j`` of the component values on each increasing split, expanded
    with ``itertools.product``."""
    acc = {}
    for blocks in slot_compositions(len(word)):
        mj = target.bracket(len(blocks))
        if mj is None:
            continue
        for sign, parts in dense_increasing_splits(space, word, blocks):
            values = [
                components[len(p)].eval(p) if len(p) in components else {} for p in parts
            ]
            for choice in itertools.product(*(v.items() for v in values)):
                coeff = sign * math.prod(c for _, c in choice)
                merge_into(acc, mj.eval(tuple(b for b, _ in choice)), coeff)
    return acc


def random_morphisms():
    """Seeded components and target brackets of both flavors on spaces with
    odd letters; no identity holds, so the right side is nonzero somewhere."""
    source = GradedSpace("S", [("a", 0), ("b", 1), ("c", -1)])
    target = GradedSpace("T", [("x", 0), ("y", 1), ("z", -1)])
    out = []
    for seed in range(3):
        rng = random.Random(100 + seed)
        for flavor in (SYMMETRIC, PLAIN):
            brackets = corpus.random_restriction_family(target, (1, 2, 3), 1, rng, flavor, 0.5)
            comps = {
                k: corpus.random_multimap(source, target, k, 0, rng, flavor, 0.5)
                for k in (1, 2, 3)
            }
            out.append((source, comps, HomotopyStructure(target, flavor, brackets)))
    return out


MORPHISMS = random_morphisms()


@pytest.mark.parametrize("index", range(len(MORPHISMS)))
def test_morphism_rhs_equals_the_oracle_sum(index):
    space, comps, target = MORPHISMS[index]
    # every word in one call; a batch keeps only the nonzero values
    words = list(space.words_up_to(BOUND))
    sums = _increasing_sums(space, comps, target, words)
    assert all(sums.values()) and set(sums) <= set(words)
    for w in words:
        assert sums.get(w, {}) == oracle_morphism_rhs(space, comps, target, w), w
    assert sums


def test_expand_equals_the_product_sum():
    rng = random.Random(5)
    for _ in range(60):
        vectors = [
            {i: rng.choice(corpus.SMALL_FRACTIONS) for i in range(4) if rng.random() < 0.6}
            for _ in range(rng.randint(0, 4))
        ]
        coeff = rng.choice(corpus.SMALL_FRACTIONS)
        want = [
            (tuple(b for b, _ in choice), coeff * math.prod(c for _, c in choice))
            for choice in itertools.product(*(v.items() for v in vectors))
        ]
        assert expand(vectors, coeff) == want, vectors


def test_expand_stops_at_the_first_empty_vector():
    read = []

    def vectors():
        for vec in ({0: Fraction(1)}, {}, {1: Fraction(2)}):
            read.append(vec)
            yield vec

    assert expand(vectors(), Fraction(1)) == []
    assert len(read) == 2


# ---------------------------------------------------------------------------
# coherence


def test_coherence_residuals_equal_the_lift_commutators():
    kinds = Counter()
    for action in ACTIONS:
        got = check_coherence(action, BOUND).residuals
        assert got == tuple(dense_coherence_residuals(action, BOUND))
        kinds.update(r.word.startswith("ad ") for r in got)
    # both conditions are reached: adjoint and mixed residuals occur
    assert kinds[True] and kinds[False]


# ---------------------------------------------------------------------------
# the boundary between the routes

ROUTE_B_SIGN_CODE = {
    "koszul_sign", "permute", "unshuffles", "increasing_unshuffles", "_placement_flips",
}
ROUTE_A_SPLIT_KERNELS = {"_anchored_table", "_increasing_table", "_symmetric_table"}
ROUTE_B_KERNELS = {
    "_placement_flips", "_slot_index", "_letter_index", "expand_plain", "_signed_orderings",
    "_increasing_placements", "_comorphism_rows",
}


@pytest.mark.parametrize("module", ["homotopy", "action", "tensor"])
def test_componentwise_modules_bind_no_unshuffle_sign_code(module):
    # the componentwise sums read signs only from the split kernels
    names = set(vars(importlib.import_module(f"linfty.{module}")))
    assert not names & ROUTE_B_SIGN_CODE


def test_lift_module_binds_no_split_kernel():
    # the lifts and the comorphism keep their own sign code, so the two
    # routes share none
    names = set(vars(importlib.import_module("linfty.multimap")))
    assert not names & ROUTE_A_SPLIT_KERNELS


def _names_reached(functions) -> set[str]:
    """The global and attribute names that the code of ``functions`` reads,
    nested code included, followed into each ``linfty`` function or class
    it names."""
    names, seen, todo = set(), set(), list(functions)
    while todo:
        obj = inspect.unwrap(todo.pop())
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, type):
            todo += [v for v in vars(obj).values() if inspect.isfunction(v)]
            continue
        codes = [obj.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if inspect.iscode(c)]
            for name in code.co_names:
                value = obj.__globals__.get(name)
                if callable(value) and getattr(value, "__module__", "").startswith("linfty."):
                    todo.append(value)
    return names


def test_route_a_sums_name_no_route_b_kernel():
    # route A's batch sums and split tables, and every linfty function they
    # name, read none of route B's placement, index or ordering code
    from linfty import graded, homotopy

    entries = (
        homotopy._split_sums, homotopy._increasing_sums,
        graded._anchored_table, graded._symmetric_table, graded._increasing_table,
    )
    names = _names_reached(entries)
    assert {"_split_table", "_increasing_table", "normalize"} <= names
    assert not names & ROUTE_B_KERNELS
