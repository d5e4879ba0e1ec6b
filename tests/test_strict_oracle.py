"""``adjoint_strict_check`` and ``centroid_check`` against the classical
closed forms of ``dense_strict.py`` on seeded unary maps.

Each of six Lie-infinity algebras, with unary, binary and ternary brackets
and with odd and even letters, is paired with 25 seeded degree-0 unary maps
(``corpus.random_multimap`` at density 0.6); the residual lists of both
checks must equal the oracle's, and most of the cases must fail, so that the
lists are compared where they hold residuals.
"""
import random

import pytest

from dense_strict import dense_centroid_residuals, dense_strict_residuals
from linfty import corpus
from linfty.tensor import adjoint_strict_check, centroid_check

STRUCTURES = {
    "heisenberg": corpus.heisenberg,
    "solvable2": corpus.solvable2,
    "sl2": corpus.sl2,
    "triple_bracket": corpus.triple_bracket_example,
    "two_term": lambda: corpus.two_term_complex("C2", -2),
    "abelian": lambda: corpus.abelian_structure("A2", [-1, 0]),
}
SEEDS = range(25)


def cases():
    for build in STRUCTURES.values():
        E = build()
        for seed in SEEDS:
            rng = random.Random(seed)
            yield E, corpus.random_multimap(E.space, E.space, 1, 0, rng, density=0.6)


@pytest.fixture(scope="module")
def reports():
    return [
        (adjoint_strict_check(E, f), dense_strict_residuals(E, f),
         centroid_check(E, f), dense_centroid_residuals(E, f))
        for E, f in cases()
    ]


def test_strict_residuals_match_the_closed_form(reports):
    assert len(reports) == 150
    for strict, oracle, _, _ in reports:
        assert list(strict.residuals) == oracle
    assert sum(not strict.ok for strict, *_ in reports) >= 90


def test_centroid_residuals_match_the_closed_form(reports):
    for _, _, centroid, oracle in reports:
        assert list(centroid.residuals) == oracle
    assert sum(not centroid.ok for *_, centroid, _ in reports) >= 90
