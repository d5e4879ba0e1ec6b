"""``check_embedding_explicit`` and ``lift_comorphism`` against routes that
visit every word.

The explicit check evaluates the tensor's component equations as the
morphism identity of the tensor from its descendent structure, through the
morphism checker, which visits only the target words where some term can
be nonzero; the descendent structure, too, is built on candidate words
only, and the comorphism from its components' keys.  A word they would
skip goes unseen, so the route here sums the equations on every target
word up to the bound from
``dense_lifts.dense_comorphism``, ``dense_lifts.dense_zinbiel_lift`` and the
slot-picking splits of ``dense_splits.py``: no split table, no composite
kernel and no support-driven lift.  Its residual list must equal the checker's.
The comorphism itself must equal the dense one row for row, and so must
the symmetric rows that the morphism checks read (``_comorphism_rows``).
"""
import random
from pathlib import Path

import pytest

from dense_lifts import dense_comorphism, dense_zinbiel_lift
from dense_splits import dense_anchored_splits
from laws import action_value, tensor_value
from paper import eval_bracket
from linfty import corpus, parse_path
from linfty.graded import GradedSpace
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    ZINBIEL,
    _comorphism_rows,
    lift_comorphism,
    merge_into,
)
from linfty.report import Residual, format_vector
from linfty.tensor import check_embedding_explicit

FIXTURES = Path(__file__).parent / "fixtures"


def every_word_residuals(tensor, action, bound):
    """The bracket side minus the expansion side of the explicit equations
    on every target word, in the order of the words."""
    E, vspace, espace = action.E, action.V.space, action.E.space
    com = dense_comorphism(vspace, espace, tensor.components, bound, ZINBIEL).rows
    lifted = dense_zinbiel_lift(vspace, action.V.brackets, bound).rows
    items = []
    for w in vspace.words_up_to(bound):
        diff = {}
        for u, c in com.get(w, {}).items():
            merge_into(diff, eval_bracket(E, len(u), u), c)
        for u, c in lifted.get(w, {}).items():
            merge_into(diff, tensor_value(tensor, u), -c)
        n = len(w)
        for sign, front, block, tail in dense_anchored_splits(vspace, w, range(2, n + 1)):
            for j in range(1, len(block)):
                for ue, ce in com.get(block[:j], {}).items():
                    for b, cb in action_value(action, ue, block[j:]).items():
                        value = tensor_value(tensor, front + (b,) + tail)
                        merge_into(diff, value, -sign * ce * cb)
        if diff:
            items.append(Residual(n, vspace.format_word(w), format_vector(espace, diff)))
    return items


def fixture_tensors():
    out = []
    for name in ("heisenberg", "adjoint_identity"):
        sf = parse_path(FIXTURES / f"{name}.lif")
        out.append((name, sf.embedding_tensor(), sf.action_family()))
    return out


FIXTURE_TENSORS = fixture_tensors()
CORPUS = corpus.tensor_corpus(11, seed=31) + corpus.tensor_corpus(11, seed=7)
CORPUS_TENSORS = [
    (f"seed{31 if i < 11 else 7}:{inst.label}", inst.tensor, inst.action)
    for i, inst in enumerate(CORPUS)
]


def checked_residuals(tensor, action, bound):
    report = check_embedding_explicit(tensor, action, bound)
    assert list(report.residuals) == every_word_residuals(tensor, action, bound)
    return report


@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("index", range(2), ids=lambda i: FIXTURE_TENSORS[i][0])
def test_fixture_residuals_equal_the_every_word_route(index, bound):
    _, tensor, action = FIXTURE_TENSORS[index]
    assert checked_residuals(tensor, action, bound).ok


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("index", range(len(CORPUS_TENSORS)), ids=lambda i: CORPUS_TENSORS[i][0])
def test_corpus_residuals_equal_the_every_word_route(index, bound):
    _, tensor, action = CORPUS_TENSORS[index]
    checked_residuals(tensor, action, bound)


def test_the_corpora_hold_verified_and_failing_tensors():
    verdicts = {check_embedding_explicit(t, a, 3).ok for _, t, a in CORPUS_TENSORS}
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the comorphism against the one that visits every source word


def assert_comorphism_matches(source, target, components, bound):
    """The rows of the Zinbiel comorphism, once they and the symmetric rows
    of the kernel the morphism checks read match the dense lifts."""
    got = lift_comorphism(source, target, components, bound).rows
    assert got == dense_comorphism(source, target, components, bound, ZINBIEL).rows
    parts = range(1, bound + 1)
    symmetric = _comorphism_rows(source, target, components, bound, SYMMETRIC, parts)
    assert symmetric == dense_comorphism(source, target, components, bound, SYMMETRIC).rows
    return got


@pytest.mark.parametrize(
    "index",
    range(len(FIXTURE_TENSORS) + len(CORPUS_TENSORS)),
    ids=lambda i: (FIXTURE_TENSORS + CORPUS_TENSORS)[i][0],
)
def test_tensor_comorphism_equals_the_dense_lift(index):
    _, tensor, _ = (FIXTURE_TENSORS + CORPUS_TENSORS)[index]
    assert_comorphism_matches(tensor.v_space, tensor.e_space, tensor.components, 4)


def fixture_morphisms():
    out = []
    for name in ("morphism_quotient", "strict_centroid"):
        sf = parse_path(FIXTURES / f"{name}.lif")
        src, dst, comps = sf.morphism_section
        out.append((name, sf.structure(src).space, sf.structure(dst).space, comps))
    return out


@pytest.mark.parametrize("index", range(2), ids=lambda i: fixture_morphisms()[i][0])
def test_fixture_morphism_comorphism_equals_the_dense_lift(index):
    _, source, target, comps = fixture_morphisms()[index]
    assert assert_comorphism_matches(source, target, comps, 4)


MIXED3 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


@pytest.mark.parametrize("flavor", (PLAIN, SYMMETRIC))
@pytest.mark.parametrize("seed", range(4))
def test_random_family_comorphism_equals_the_dense_lift(seed, flavor):
    # odd letters repeat in source and target words: those rows and those
    # image words vanish in the symmetric flavor and not in the Zinbiel one
    rng = random.Random(seed)
    family = corpus.random_restriction_family(MIXED3, (1, 2, 3), 0, rng, flavor, 0.5)
    rows = assert_comorphism_matches(MIXED3, MIXED3, family, 4)
    odd = {i for i, d in enumerate(MIXED3.degrees) if d % 2}
    assert any(w.count(y) > 1 for w in rows for y in odd)
