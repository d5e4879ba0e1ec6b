"""The symmetric restriction-level calculus against word-by-word lifts.

``symmetric_composite`` (``dense_lifts``, on the kernel
``_symmetric_composite``) forms ``p(A B) = a B`` from the supports of two
families, a bracket is two such composites, and the action axiom (the
square of the semidirect brackets), the coherence commutators and the square of
``check_lie_infinity`` run on its kernel.  The references here share no code with
that kernel: they lift every family with ``dense_lifts.dense_symmetric_lift``,
which visits every canonical word and sums over ``unshuffles`` with
``koszul_sign``, and compose full coderivations row by row.  The work-count
tests pin that the checks no longer lift or compose.
"""
import importlib
import random
import sys
from pathlib import Path

import pytest

from dense_lifts import assert_composite_matches, dense_symmetric_lift, symmetric_composite
from laws import restrictions
from linfty import corpus, parse_path
from linfty.action import check_action, check_coherence, theorem_crosscheck
from linfty.cli import main
from linfty.graded import GradedSpace
from linfty.homotopy import check_lie_infinity
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    TruncatedCoderivation,
    commutator,
    merge_into,
)

FIXTURES = Path(__file__).parent / "fixtures"
# an even letter of each even degree, so keys repeat letters, and one odd
# letter of each odd degree
SPACE = GradedSpace("S", [("x", 0), ("y", 1), ("z", -1), ("t", 2)])
DEGREES = [(0, 0), (2, 1), (1, 0), (-1, 1)]


def random_pair(seed, degrees, flavor):
    rng = random.Random(seed)
    f = corpus.random_restriction_family(SPACE, (1, 2, 3), degrees[0], rng, flavor, 0.6)
    g = corpus.random_restriction_family(SPACE, (1, 2, 3), degrees[1], rng, flavor, 0.6)
    return f, g


@pytest.mark.parametrize("flavor", (SYMMETRIC, PLAIN))
@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("degrees", DEGREES)
@pytest.mark.parametrize("seed", range(2))
def test_symmetric_composite_is_the_outer_family_on_the_dense_lift(seed, degrees, bound, flavor):
    outer, inner = random_pair(seed, degrees, flavor)
    got = symmetric_composite(SPACE, outer, inner, bound)
    assert assert_composite_matches(got, outer, dense_symmetric_lift(SPACE, inner, bound))


def composite_bracket(f, g, degrees, bound):
    """``p[F, G] = f G - (-1)^{|f||g|} g F`` from two ``symmetric_composite``
    calls, as ``check_coherence`` forms its commutators; zeros dropped."""
    fg = symmetric_composite(SPACE, f, g, bound)
    sign = 1 if degrees[0] % 2 and degrees[1] % 2 else -1
    for w, vec in symmetric_composite(SPACE, g, f, bound).items():
        merge_into(fg.setdefault(w, {}), vec, sign)
    return {w: vec for w, vec in fg.items() if vec}


def as_table(family):
    return {w: vec for f in family.values() for w, vec in f.constants.items()}


@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("degrees", DEGREES)
@pytest.mark.parametrize("seed", range(2))
def test_symmetric_bracket_is_the_commutator_of_the_dense_lifts(seed, degrees, bound):
    f, g = random_pair(seed, degrees, SYMMETRIC)
    got = composite_bracket(f, g, degrees, bound)
    lifted = commutator(
        dense_symmetric_lift(SPACE, f, bound), dense_symmetric_lift(SPACE, g, bound)
    )
    assert got == as_table(restrictions(lifted))
    assert {
        SPACE.degrees[b] - sum(SPACE.degrees[i] for i in w) for w, vec in got.items() for b in vec
    } == {sum(degrees)}
    assert got


def test_the_bracket_of_an_empty_family_is_empty():
    f, _ = random_pair(0, (1, 0), SYMMETRIC)
    assert symmetric_composite(SPACE, f, {}, 4) == {}
    assert symmetric_composite(SPACE, {}, f, 4) == {}
    assert composite_bracket(f, {}, (1, 0), 4) == {}
    assert composite_bracket({}, f, (0, 1), 4) == {}


# ---------------------------------------------------------------------------
# work counts


@pytest.fixture
def full_lift_calls(monkeypatch):
    """Count calls of the full-lift calculus, wherever a module binds it."""
    import linfty.multimap as multimap

    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("lift_symmetric_coderivation", "commutator"):
        real = getattr(multimap, name)
        for module in [m for k, m in sys.modules.items() if k.startswith("linfty.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    compose = TruncatedCoderivation.compose
    monkeypatch.setattr(TruncatedCoderivation, "compose", counted("compose", compose))
    return calls


def test_crosscheck_lifts_and_composes_nothing(full_lift_calls):
    for inst in corpus.action_corpus(19, 0):
        theorem_crosscheck(inst.action, 4)
    assert full_lift_calls == []


def test_lie_check_lifts_and_composes_nothing(full_lift_calls):
    checked = 0
    for path in sorted(FIXTURES.glob("*.lif")):
        sf = parse_path(path)
        for name in sf.spaces:
            structure = sf.structure(name)
            if structure.flavor == SYMMETRIC:
                check_lie_infinity(structure, 4)
                checked += 1
    assert checked and full_lift_calls == []


@pytest.mark.parametrize("fixture", ("heisenberg", "adjoint_identity"))
def test_deform_lifts_and_composes_nothing(fixture, full_lift_calls, capsys):
    assert main(["deform", str(FIXTURES / f"{fixture}.lif"), "--bound", "4"]) == 0
    assert full_lift_calls == []


def test_lie_check_sums_only_on_the_words_the_square_forms(monkeypatch):
    # twoterm's square forms no word at bound 7, so the identity sum is read
    # nowhere; visiting every canonical word made 14 sums
    import linfty.homotopy as homotopy

    real = homotopy._split_sums
    visited = []

    def counted(space, inner, outer, words, table):
        assert table is homotopy._symmetric_table
        visited.extend(words)
        return real(space, inner, outer, words, table)

    monkeypatch.setattr(homotopy, "_split_sums", counted)
    sf = parse_path(FIXTURES / "twoterm.lif")
    assert check_lie_infinity(sf.structure("C"), 7).ok
    assert visited == []


def test_action_check_indexes_one_table_and_forms_no_family(monkeypatch):
    # the axiom is one composite of the semidirect brackets: one letter
    # index per check.  The checks read the action's validated keys as
    # tables: clearing an action, the axiom, coherence and the crosscheck
    # build no MultiMap and no BiMultiMap through the validating
    # constructors, as the cleared copies and the product's brackets come
    # from keys validated with the action
    import linfty.action as action_module
    import linfty.multimap as multimap

    real = multimap._letter_index
    indexed, built = [], []

    def counted(space, tables):
        indexed.append(space)
        return real(space, tables)

    for module in [m for k, m in sys.modules.items() if k.startswith("linfty.")]:
        if getattr(module, "_letter_index", None) is real:
            monkeypatch.setattr(module, "_letter_index", counted)
    for cls in (MultiMap, action_module.BiMultiMap):
        real_init = cls.__init__

        def init(self, *args, real_init=real_init):
            built.append(type(self).__name__)
            real_init(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    cleared = 0
    for inst in corpus.action_corpus(38, 0):
        built.clear()
        cleared += action_module._cleared(inst.action) is not inst.action
        indexed.clear()
        check_action(inst.action, 4)
        assert len(indexed) == 1
        check_coherence(inst.action, 4)
        assert built == []
        theorem_crosscheck(inst.action, 4)
        assert built == []
    assert cleared


def test_action_module_binds_no_full_lift_calculus():
    names = set(vars(importlib.import_module("linfty.action")))
    assert not names & {
        "lift_symmetric_coderivation", "commutator", "_compose_row", "_commutator_restriction"
    }
