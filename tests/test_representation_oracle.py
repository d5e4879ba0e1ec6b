"""Representations as Lie-morphisms into End(V), against two other routes.

A representation of ``E`` on a complex ``V`` is a Lie-morphism from ``E``
into the DGLA ``End(V)`` (Lada and Markl, "Strongly homotopy Lie algebras",
1995), so it is checked by ``check_lie_morphism`` into the ``end_dgla``
structure.  First, its residuals must be those of
``dense_lifts.dense_defect`` into that structure: the corestriction of
``F Q - Q' F`` on every canonical word, from full word-by-word lifts, with
no restriction-level composite, comorphism placement or split table.  The
cases are the adjoint representation of six structures and seeded sparse
components of arities 1 and 2 on each, most of which satisfy no identity.

Second, an action whose target has brackets of arity at most 1 and whose
components all take one target letter is the same data: its component
``(k, 1)`` with value ``{o: c}`` at ``(x, (v,))`` is the arity-``k`` map
into ``End(V)`` with value ``{v>o: c}`` at ``x``.  Then ``check_action``'s
residual at ``x ; v`` must be the Lie-morphism residual at ``x`` read at
the columns ``(v, .)``.  The routes share no kernel: the Lie-morphism
residual comes from the split tables (route A of
``homotopy._morphism_residuals``), while ``check_action`` sums
``multimap._symmetric_composite`` on the semidirect brackets.
"""
import random

import pytest

from dense_lifts import dense_defect
from laws import adjoint_rep_components
from linfty.action import ActionFamily, BiMultiMap, adjoint_representation, check_action
from linfty.corpus import (
    SMALL_FRACTIONS,
    abelian_structure,
    action_corpus,
    complex_representation_action,
    heisenberg,
    random_multimap,
    sl2,
    solvable2,
    triple_bracket_example,
    two_term_complex,
)
from linfty.homotopy import _residual_items, check_lie_morphism
from linfty.multimap import SYMMETRIC, MultiMap
from linfty.report import Residual, make_report
from paper import end_dgla

STRUCTURES = {
    "heisenberg": heisenberg,
    "solvable2": solvable2,
    "sl2": sl2,
    "two_term_complex": two_term_complex,
    "triple_bracket_example": triple_bracket_example,
    "abelian": lambda: abelian_structure("A", [-1, 0]),
}
SEEDS = range(12)
BOUNDS = (2, 3, 4)


def setting(structure):
    """The ``end_dgla`` structure and the ``EndSpace`` on the space of
    ``structure``, the complex's differential being its unary bracket."""
    space = structure.space
    d = structure.bracket(1) or MultiMap(space, space, 1, 1, SYMMETRIC, {})
    return end_dgla(space, d)


def seeded_components(structure, end, seed):
    rng = random.Random(seed)
    return {
        k: random_multimap(structure.space, end.space, k, 0, rng, SYMMETRIC, density=0.3)
        for k in (1, 2)
    }


def assert_equals_dense_report(components, structure, end_structure, end, bound):
    report = check_lie_morphism(components, structure, end_structure, bound)
    residuals = dense_defect(components, structure, end_structure, bound, SYMMETRIC)
    items = _residual_items(structure.space, end.space, residuals)
    assert report == make_report("lie-morphism", bound, items)
    return report


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_adjoint_representation_equals_the_dense_defect(name, bound):
    structure = STRUCTURES[name]()
    end_structure, end = setting(structure)
    components = adjoint_rep_components(structure, end)
    assert_equals_dense_report(components, structure, end_structure, end, bound)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_seeded_components_equal_the_dense_defect(name, seed, bound):
    structure = STRUCTURES[name]()
    end_structure, end = setting(structure)
    components = seeded_components(structure, end, seed)
    assert_equals_dense_report(components, structure, end_structure, end, bound)


# ---------------------------------------------------------------------------
# check_action on representation-type actions


def is_representation(action) -> bool:
    """A target with brackets of arity at most 1, and every component
    taking one target letter."""
    return all(k <= 1 for k in action.V.brackets) and all(
        n == 1 for _, n in action.components
    )


def end_components(action, end) -> dict[int, MultiMap]:
    """The components ``(k, 1)`` of ``action`` as the arity-``k`` maps
    into ``end``: the value ``{o: c}`` at ``(x, (v,))`` becomes the value
    ``{end.index(v, o): c}`` at ``x``."""
    tables: dict[int, dict] = {}
    for (k, _), f in action.components.items():
        table = tables.setdefault(k, {})
        for (x, (v,)), row in f.constants.items():
            value = table.setdefault(x, {})
            for o, c in row.items():
                value[end.index(v, o)] = c
    return {
        k: MultiMap(action.E.space, end.space, k, 0, SYMMETRIC, table)
        for k, table in tables.items()
    }


def at_columns(report, vspace, end) -> set[Residual]:
    """The residuals of a Lie-morphism report into ``end`` read at the
    columns ``(v, .)``, each as the item ``x ; v`` of an action report;
    a value's terms are ``(c)*v>o`` in index order, which is ``(v, o)``
    order."""
    items = set()
    for r in report.residuals:
        columns: dict[int, list[str]] = {}
        for term in r.value.split(" + "):
            c, symbol = term[1:].split(")*")
            v, o = end.pairs[end.space.index(symbol)]
            columns.setdefault(v, []).append(f"({c})*{vspace.symbols[o]}")
        for v, terms in columns.items():
            word = f"{r.word} ; {vspace.symbols[v]}"
            items.add(Residual(r.arity, word, " + ".join(terms)))
    return items


def seeded_copy(action, seed) -> ActionFamily:
    """``action``'s structures with sparse random ``(1, 1)`` and ``(2, 1)``
    components in place of its own, most of which are no action."""
    rng = random.Random(seed)
    E, V = action.E, action.V
    components = {}
    for k in (1, 2):
        table = {}
        for x in E.space.canonical_words(k):
            for v in range(V.space.dim):
                degree = 1 + E.space.word_degree(x) + V.space.degrees[v]
                row = {
                    o: rng.choice(SMALL_FRACTIONS)
                    for o in range(V.space.dim)
                    if V.space.degrees[o] == degree and rng.random() < 0.6
                }
                if row:
                    table[(x, (v,))] = row
        components[(k, 1)] = BiMultiMap(E.space, V.space, k, 1, 1, table)
    return ActionFamily(E, V, components)


CATALOG = [(f"adjoint-rep-{name}", adjoint_representation(f())) for name, f in STRUCTURES.items()]
CATALOG += [
    ("rep-complex", complex_representation_action()),
    ("rep-complex-3", complex_representation_action({1: 1, 3: -1})),
]
CORPUS = [(i.label, i.action) for i in action_corpus(80, 3) if is_representation(i.action)]
SEEDED = [
    (f"{label}~{seed}", seeded_copy(action, seed))
    for seed, (label, action) in enumerate(CATALOG + CORPUS)
]
ACTIONS = CATALOG + CORPUS + SEEDED


def test_the_cases_are_representations():
    assert (len(CATALOG), len(CORPUS), len(SEEDED)) == (8, 36, 44)
    assert all(is_representation(action) for _, action in ACTIONS)
    failing = sum(not check_action(action, 3).ok for _, action in SEEDED)
    assert failing > len(SEEDED) // 2


@pytest.mark.parametrize("bound", (2, 3))
@pytest.mark.parametrize("label,action", ACTIONS, ids=[label for label, _ in ACTIONS])
def test_check_action_equals_the_lie_morphism_into_end(label, action, bound):
    V = action.V
    end_structure, end = setting(V)
    morphism = check_lie_morphism(end_components(action, end), action.E, end_structure, bound)
    assert set(check_action(action, bound).residuals) == at_columns(morphism, V.space, end)
