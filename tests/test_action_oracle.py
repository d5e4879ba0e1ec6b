"""``check_action`` and ``check_coherence`` against the every-word oracle on
fractional data, the key-driven families of the split index
``action._absorbed``, the hemisemidirect product's brackets and the
components of ``adjoint_action`` and ``adjoint_representation`` against the
oracle's every-word ones.

The checks run on the action with its denominators cleared and divide only
the reported values back; ``dense_actions.py`` works on the ``Fraction``
data as given, on every word.  The residual lists must be equal: on the
basis changes of the action corpus whose constants are not all integral,
and on fractional non-actions and non-coherent actions, so that some
reports hold non-integral residuals.
"""
import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dense_actions import (
    dense_action_residuals,
    dense_ad_family,
    dense_adjoint_action,
    dense_adjoint_representation,
    dense_coherence_residuals,
    dense_hemi_brackets,
    dense_mixed_family,
)
from linfty import corpus
from linfty.action import (
    ActionFamily,
    BiMultiMap,
    _absorbed,
    adjoint_action,
    adjoint_representation,
    check_action,
    check_coherence,
    hemisemidirect,
)
from linfty.graded import GradedSpace
from linfty.homotopy import HomotopyStructure
from linfty.multimap import SYMMETRIC, MultiMap

BOUND = 4
THIRD = Fraction(1, 3)


def constants(action):
    maps = [*action.E.brackets.values(), *action.V.brackets.values()]
    maps += action.components.values()
    return [c for f in maps for vec in f.constants.values() for c in vec.values()]


def is_fractional(action):
    return any(type(c) is Fraction for c in constants(action))


FRACTIONAL = [inst for inst in corpus.action_corpus(114, 3) if is_fractional(inst.action)]


def perturbed(action, c=THIRD):
    """The action with ``c`` added to the first constant of its first
    component: the axiom fails with non-integral residuals."""
    (k, n), f = next(iter(action.components.items()))
    table = {key: dict(vec) for key, vec in f.constants.items()}
    key = next(iter(table))
    out = next(iter(table[key]))
    table[key][out] += c
    comps = {**action.components, (k, n): BiMultiMap(f.e_space, f.v_space, k, n, 1, table)}
    return ActionFamily(action.E, action.V, comps)


def scaled(table, c):
    return {key: {o: c * v for o, v in vec.items()} for key, vec in table.items()}


def scaled_action(action, c=THIRD, bracket_c=1):
    """Every component times ``c`` and every target bracket times
    ``bracket_c``.  For an abelian acting structure with unary components
    only, every term of the axiom is linear in the components and in the
    target brackets, so an action stays an action, and a non-coherent one
    stays non-coherent with its residuals scaled."""
    comps = {
        (k, n): BiMultiMap(f.e_space, f.v_space, k, n, 1, scaled(f.constants, c))
        for (k, n), f in action.components.items()
    }
    brackets = {
        k: MultiMap(f.source, f.target, k, 1, f.flavor, scaled(f.constants, bracket_c))
        for k, f in action.V.brackets.items()
    }
    V = HomotopyStructure(action.V.space, action.V.flavor, brackets, action.V.max_arity)
    return ActionFamily(action.E, V, comps)


def non_coherent_actions():
    out = []
    for inst in corpus.action_corpus(19, 0):
        action = inst.action
        if inst.expect_coherent is False and not action.E.brackets:
            if set(action.components) == {(1, 1)}:
                out.append((inst.label, scaled_action(action)))
    halved = scaled_action(corpus.heisenberg_noncentral_action(), bracket_c=Fraction(1, 2))
    out.append(("heis-noncentral-halved", halved))
    return out


NON_ACTIONS = [(inst.label, perturbed(inst.action)) for inst in FRACTIONAL[::4]]
NON_COHERENT = non_coherent_actions()


def test_the_corpus_has_fractional_conjugates():
    assert len(FRACTIONAL) >= 40


@pytest.mark.parametrize("inst", FRACTIONAL, ids=lambda inst: inst.label)
def test_fractional_conjugates_equal_the_dense_residuals(inst):
    assert check_action(inst.action, BOUND).residuals == tuple(
        dense_action_residuals(inst.action, BOUND)
    )
    assert check_coherence(inst.action, BOUND).residuals == tuple(
        dense_coherence_residuals(inst.action, BOUND)
    )


@pytest.mark.parametrize(
    "action", [pytest.param(action, id=label) for label, action in NON_ACTIONS + NON_COHERENT]
)
def test_fractional_failures_equal_the_dense_residuals(action):
    assert check_action(action, BOUND).residuals == tuple(dense_action_residuals(action, BOUND))
    assert check_coherence(action, BOUND).residuals == tuple(
        dense_coherence_residuals(action, BOUND)
    )


def test_some_failures_are_not_integral():
    # a residual value with a denominator other than 1: the reports divide
    axioms = [check_action(action, BOUND) for _, action in NON_ACTIONS]
    coherence = [check_coherence(action, BOUND) for _, action in NON_COHERENT]
    # a perturbation can land on another action, but most do not
    assert sum(not report.ok for report in axioms) >= 10
    assert all(check_action(action, BOUND).ok for _, action in NON_COHERENT)
    assert not any(report.ok for report in coherence)
    reports = axioms + coherence
    values = [r.value for report in reports for r in report.residuals]
    assert any("/1)" not in part for value in values for part in value.split(" + "))


# ---------------------------------------------------------------------------
# the key-driven families


def tables(family):
    """The constants of each map of a family by arity."""
    return {n: f.constants for n, f in family.items()}


def indexed(action, x, v, bound):
    """The tables of the split index under ``(x, v)`` by target arity, up to
    ``bound``: the family ``w -> value(x; v + w)``."""
    return {n: t for n, t in _absorbed(action).get((x, v), {}).items() if n <= bound}


def indexed_family(action, x, v, bound):
    """The same tables as maps of the family's degree, for a word-by-word
    lift."""
    space = action.V.space
    degree = 1 + action.E.space.word_degree(x) + space.word_degree(v)
    by_length = indexed(action, x, v, bound).items()
    return {n: MultiMap(space, space, n, degree, SYMMETRIC, t) for n, t in by_length}


def assert_families_are_the_every_word_ones(action, bound):
    """The split index under ``(x, v)`` equals the oracle's family for every
    canonical target word ``v``, empty too, with room left for a probe
    word, and every acting word ``x``: the empty one (the target's brackets
    and ``ad_v``) and each canonical one with room left (``phi_x`` and the
    mixed families)."""
    espace, vspace = action.E.space, action.V.space
    for a in range(bound):
        for v in vspace.canonical_words(a):
            got = indexed(action, (), v, bound)
            assert got == tables(dense_ad_family(action, v, bound))
            for ax in range(1, bound - a):
                for x in espace.canonical_words(ax):
                    got = indexed(action, x, v, bound)
                    assert got == tables(dense_mixed_family(action, x, v, bound))


def odd_ternary(arities, key, value, acting_degree=0):
    """The odd letters ``p, q, r`` and an even ``z`` with the ternary bracket
    ``l3(p, q, r) = z/3``, acted on by the letter ``a``, even unless
    ``acting_degree`` is odd, through the one component ``key -> value`` of
    the given arities."""
    V = GradedSpace("T", [("p", -1), ("q", -1), ("r", -1), ("z", -2)])
    A = GradedSpace("A", [("a", acting_degree)])
    l3 = MultiMap(V, V, 3, 1, SYMMETRIC, {(0, 1, 2): {3: THIRD}})
    comp = BiMultiMap(A, V, *arities, 1, {key: value})
    acting = HomotopyStructure(A, SYMMETRIC, {}, 3)
    return ActionFamily(acting, HomotopyStructure(V, SYMMETRIC, {3: l3}, 3), {arities: comp})


def odd_ternary_action():
    """The component ``a ; p,q,r -> 2z``, with three target slots: the
    families of ``q,p`` are not empty and read their entries with the sign
    of its sort.  Not an action; the families do not need one."""
    return odd_ternary((1, 3), ((0,), (0, 1, 2)), {3: 2})


def odd_noncoherent_action():
    """The component ``a ; z -> p``: not coherent, and the commutator
    ``ad p,r ; a ; q`` reads ``l3(p, r, q)``, the bracket key with the
    negative sign of its sort.  Not an action; coherence does not need one."""
    return odd_ternary((1, 1), ((0,), (3,)), {0: 1})


def odd_acting_noncoherent_action():
    """The odd acting letter ``a`` with the one component ``a ; z -> z``:
    not coherent.  ``phi_a`` is even, so the ``phi_a F`` term of every
    commutator is subtracted, whatever the parity of ``F``; on the direct
    sum that sign is the one of moving ``a`` past ``F``'s letters.  Not an
    action; coherence does not need one."""
    return odd_ternary((1, 1), ((0,), (3,)), {3: 1}, acting_degree=-1)


FAMILY_CASES = [
    pytest.param(odd_ternary_action(), id="odd-ternary"),
    pytest.param(odd_noncoherent_action(), id="odd-noncoherent"),
    *(pytest.param(inst.action, id=inst.label) for inst in corpus.action_corpus(60, 3)),
    *(pytest.param(inst.action, id=f"fractional-{inst.label}") for inst in FRACTIONAL),
    *(pytest.param(action, id=f"failing-{label}") for label, action in NON_ACTIONS + NON_COHERENT),
]


@pytest.mark.parametrize("bound", [3, 4, 5])
@pytest.mark.parametrize("action", FAMILY_CASES)
def test_key_driven_families_equal_the_every_word_ones(action, bound):
    assert_families_are_the_every_word_ones(action, bound)


def test_some_key_driven_families_are_nonempty_and_some_signed():
    # the comparison is not of empty families only, and a split key's sign
    # is met: some entry of an odd target's family is negated
    nonempty = negated = 0
    for inst in corpus.action_corpus(60, 3):
        action = inst.action
        for v in action.V.space.canonical_words(1):
            for table in indexed(action, (), v, 4).values():
                nonempty += 1
                for w, vec in table.items():
                    y = tuple(sorted(v + w))
                    negated += vec != action.V.bracket(len(y)).constants[y]
    assert nonempty and negated


@pytest.mark.parametrize("bound", [4, 5])
def test_an_odd_absorbed_word_equals_the_dense_coherence_residuals(bound):
    # no key of the action corpus has three distinct odd target letters, so
    # only this case reads a coherence family entry with the negative sign
    # of a multi-letter absorbed word's sort
    action = odd_noncoherent_action()
    residuals = check_coherence(action, bound).residuals
    assert residuals == tuple(dense_coherence_residuals(action, bound))
    assert "ad p,r ; a ; q" in {r.word for r in residuals}


@pytest.mark.parametrize("bound", [4, 5])
def test_an_odd_acting_letter_equals_the_dense_coherence_residuals(bound):
    # phi_y is even for an odd acting word y, so the sign of a commutator's
    # phi_y F term does not follow the parity of F alone; no other case of
    # this file tells the two apart
    action = odd_acting_noncoherent_action()
    residuals = check_coherence(action, bound).residuals
    assert residuals == tuple(dense_coherence_residuals(action, bound))
    assert len(residuals) == 6
    assert ("ad p,r ; a ; q", "(1/3)*z") in {(r.word, r.value) for r in residuals}


# ---------------------------------------------------------------------------
# the axiom at low bounds and the product's brackets

ODD_CASES = [
    pytest.param(odd_ternary_action(), id="odd-ternary"),
    pytest.param(odd_noncoherent_action(), id="odd-noncoherent"),
]
AXIOM_CASES = [
    *ODD_CASES,
    *(pytest.param(inst.action, id=f"fractional-{inst.label}") for inst in FRACTIONAL),
    *(pytest.param(action, id=f"failing-{label}") for label, action in NON_ACTIONS + NON_COHERENT),
]


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("action", AXIOM_CASES)
def test_the_axiom_equals_the_dense_residuals_at_low_bounds(action, bound):
    assert check_action(action, bound).residuals == tuple(dense_action_residuals(action, bound))


def test_the_axiom_bounds_acting_and_target_words_each():
    # one acting letter and three target letters: the words weigh 4, over
    # the bound 3, and a bound on the total weight would pass this non-action
    residuals = check_action(odd_noncoherent_action(), 3).residuals
    assert [(r.arity, r.word) for r in residuals] == [(1, "a ; p,q,r"), (1, "a ; q,r,z")]


PRODUCT_CASES = [
    *ODD_CASES,
    *(pytest.param(inst.action, id=inst.label) for inst in corpus.action_corpus(60, 3)),
    *(pytest.param(inst.action, id=f"fractional-{inst.label}") for inst in FRACTIONAL),
]


@pytest.mark.parametrize("action", PRODUCT_CASES)
def test_the_product_brackets_are_the_every_word_ones(action):
    product = hemisemidirect(action)
    assert product.space.degrees == action.E.space.degrees + action.V.space.degrees
    assert {k: f.constants for k, f in product.structure.brackets.items()} == (
        dense_hemi_brackets(action)
    )



def test_coherence_and_the_axiom_oracle_read_no_semidirect_square(monkeypatch):
    # the crosscheck compares coherence with the product, so coherence reads
    # no semidirect brackets; the axiom's oracle reads neither them nor the
    # composite kernel that check_action squares them with
    import linfty.action as action_module
    import linfty.multimap as multimap

    def forbidden(*args):
        raise AssertionError("the semidirect square was read")

    monkeypatch.setattr(action_module, "_semidirect", forbidden)
    _, noncoherent = NON_COHERENT[0]
    assert not check_coherence(noncoherent, BOUND).ok
    monkeypatch.setattr(action_module, "_symmetric_composite", forbidden)
    monkeypatch.setattr(multimap, "_symmetric_composite", forbidden)
    assert len(dense_action_residuals(odd_noncoherent_action(), 3)) == 2


# ---------------------------------------------------------------------------
# the adjoint actions


def random_symmetric_structure(seed):
    """Two to four letters of degrees -2..1, at least one of them odd, and
    seeded symmetric brackets of every arity up to a top arity of 1 to 4.
    The structure need not satisfy its identity: the builders read keys."""
    rng = random.Random(seed)
    degrees = [rng.randint(-2, 1) for _ in range(rng.randint(2, 4))]
    degrees[rng.randrange(len(degrees))] = rng.choice((-1, 1))
    space = GradedSpace(f"R{seed}", [(f"e{i}", d) for i, d in enumerate(degrees)])
    top = rng.randint(1, 4)
    brackets = {
        k: corpus.random_multimap(space, space, k, 1, rng, SYMMETRIC, density=0.6)
        for k in range(1, top + 1)
    }
    return HomotopyStructure(space, SYMMETRIC, brackets, top)


CATALOG = [
    corpus.heisenberg(),
    corpus.solvable2(),
    corpus.sl2(),
    corpus.two_term_complex(),
    corpus.triple_bracket_example(),
    corpus.abelian_structure("A", [-1, 0]),
]
SELF_ACTING = [
    *CATALOG,
    *(inst.action.E for inst in corpus.action_corpus(60, 3)),
    *(random_symmetric_structure(seed) for seed in range(300)),
]


def typed(tables):
    """The tables with each constant next to its type, so that ``2`` and
    ``Fraction(2)`` differ."""
    return {
        kn: {key: {o: (c, type(c)) for o, c in vec.items()} for key, vec in table.items()}
        for kn, table in tables.items()
    }


@pytest.mark.parametrize(
    "build, dense, target_arities",
    [
        pytest.param(adjoint_action, dense_adjoint_action, None, id="action"),
        pytest.param(adjoint_representation, dense_adjoint_representation, {1}, id="rep"),
    ],
)
def test_the_adjoint_actions_are_the_every_word_ones(build, dense, target_arities):
    # the components and their constants' types are the brackets evaluated
    # on every canonical pair, and the target keeps the brackets it should
    for E in SELF_ACTING:
        action = build(E)
        got = {kn: f.constants for kn, f in action.components.items()}
        assert typed(got) == typed(dense(E)), E.space.name
        brackets = {
            k: f.constants
            for k, f in E.brackets.items()
            if target_arities is None or k in target_arities
        }
        assert {k: f.constants for k, f in action.V.brackets.items()} == brackets
        assert action.V.space is E.space and action.V.max_arity == E.max_arity


def test_the_adjoint_corpus_has_signed_and_fractional_components():
    # the comparison above meets components of every arity pair under 4, a
    # split key's negative sign and a non-integral constant
    arities, negated, fractional = set(), 0, 0
    for E in SELF_ACTING:
        for (k, n), f in adjoint_action(E).components.items():
            arities.add((k, n))
            for (x, v), vec in f.constants.items():
                y = tuple(sorted(x + v))
                negated += vec != E.bracket(k + n).constants[y]
                fractional += any(type(c) is Fraction for c in vec.values())
    assert {(k, n) for k in range(1, 4) for n in range(1, 5 - k)} <= arities
    assert negated and fractional


def test_the_adjoint_oracle_reads_no_split_index():
    # a split-sign fault would reach the input actions and coherence both,
    # so the reference and the helpers it imports name no split index
    names = set()
    for module in ("dense_actions", "dense_lifts", "dense_splits", "laws"):
        tree = ast.parse((Path(__file__).parent / f"{module}.py").read_text())
        names |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
        names |= {alias.name for node in ast.walk(tree) for alias in getattr(node, "names", ())}
    assert not names & {"_split_index", "_absorbed"}
