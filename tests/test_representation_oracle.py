"""``check_representation`` against the dense intertwining defect.

A representation of ``E`` on a complex ``V`` is a Lie-morphism from ``E``
into the DGLA ``End(V)`` (Lada and Markl, "Strongly homotopy Lie algebras",
1995).  So the checker's residuals must be those of
``dense_lifts.dense_defect`` into the ``end_dgla`` structure: the
corestriction of ``F Q - Q' F`` on every canonical word, from full
word-by-word lifts, with no restriction-level composite, comorphism
placement or split table.  The cases are the adjoint representation of
six structures and seeded sparse components of arities 1 and 2 on each,
most of which satisfy no identity.
"""
import random

import pytest

from dense_lifts import dense_defect
from laws import adjoint_rep_components
from linfty.corpus import (
    abelian_structure,
    heisenberg,
    random_multimap,
    sl2,
    solvable2,
    triple_bracket_example,
    two_term_complex,
)
from linfty.homotopy import _residual_items, check_representation, end_dgla
from linfty.multimap import SYMMETRIC, MultiMap
from linfty.report import make_report

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


def setting(name):
    """The structure, the ``end_dgla`` structure and the ``EndSpace`` on its
    own space, the complex's differential being its unary bracket."""
    structure = STRUCTURES[name]()
    space = structure.space
    d = structure.bracket(1) or MultiMap(space, space, 1, 1, SYMMETRIC, {})
    end_structure, end = end_dgla(space, d)
    return structure, end_structure, end


def seeded_components(structure, end, seed):
    rng = random.Random(seed)
    return {
        k: random_multimap(structure.space, end.space, k, 0, rng, SYMMETRIC, density=0.3)
        for k in (1, 2)
    }


def assert_equals_dense_report(components, structure, end_structure, end, bound):
    report = check_representation(components, structure, end, bound)
    residuals = dense_defect(components, structure, end_structure, bound, SYMMETRIC)
    items = _residual_items(structure.space, end.space, residuals)
    assert report == make_report("representation", bound, items)
    return report


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_adjoint_representation_equals_the_dense_defect(name, bound):
    structure, end_structure, end = setting(name)
    components = adjoint_rep_components(structure, end)
    assert_equals_dense_report(components, structure, end_structure, end, bound)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_seeded_components_equal_the_dense_defect(name, seed, bound):
    structure, end_structure, end = setting(name)
    components = seeded_components(structure, end, seed)
    assert_equals_dense_report(components, structure, end_structure, end, bound)
