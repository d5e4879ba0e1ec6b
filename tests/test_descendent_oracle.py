"""``descendent`` against the descendent structure that visits every word.

``descendent`` forms the prefix-fed brackets in one pass over the keys, so
a word the pass never reaches goes unseen.  The route here,
``dense_lifts.dense_descendent``, visits every target word up to the bound
and reads the prefixes' images from ``dense_lifts.dense_comorphism``: no
comorphism placement and no pass over keys.  The two structures must be
equal bracket by bracket, on both tensor fixtures and the string tensor of
``tests/fixtures/string/``, on the seeded tensor corpora, verified tensors and failing ones alike, and on a key whose target
word repeats a letter, which has fewer distinct orderings than
permutations.
"""
from pathlib import Path

import pytest

from dense_lifts import dense_descendent
from linfty import corpus, parse, parse_path
from linfty.tensor import check_embedding_explicit, descendent

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_TENSORS = [
    (name, sf.embedding_tensor(), sf.action_family())
    for name, sf in (
        (name, parse_path(FIXTURES / f"{name}.lif"))
        for name in ("heisenberg", "adjoint_identity", "string/string_tensor")
    )
]
# the string tensor, the first with a binary component, up to bound 5
FIXTURE_CASES = [(i, b) for i in range(2) for b in (3, 4, 5, 6)] + [(2, b) for b in (3, 4, 5)]
CORPUS_TENSORS = [
    (f"seed{seed}:{inst.label}", inst.tensor, inst.action)
    for seed in (31, 7)
    for inst in corpus.tensor_corpus(40, seed)
]


def assert_matches_the_dense_descendent(tensor, action, bound):
    got = descendent(tensor, action, bound)
    expected = dense_descendent(tensor, action, bound)
    assert got.max_arity == expected.max_arity
    assert {k: f.constants for k, f in got.brackets.items()} == {
        k: f.constants for k, f in expected.brackets.items()
    }
    return got


@pytest.mark.parametrize(
    "index,bound", FIXTURE_CASES, ids=[f"{FIXTURE_TENSORS[i][0]}-{b}" for i, b in FIXTURE_CASES]
)
def test_fixture_descendents_equal_the_dense_one(index, bound):
    _, tensor, action = FIXTURE_TENSORS[index]
    got = assert_matches_the_dense_descendent(tensor, action, bound)
    assert max(got.brackets) > 1


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_corpus_descendents_equal_the_dense_one(bound):
    beyond = verdicts = 0
    for _, tensor, action in CORPUS_TENSORS:
        got = assert_matches_the_dense_descendent(tensor, action, bound)
        own = {k: f.constants for k, f in action.V.brackets.items()}
        beyond += any(f.constants != own.get(k) for k, f in got.brackets.items())
        verdicts |= 1 << check_embedding_explicit(tensor, action, bound).ok
    # brackets beyond the target's own, from verified and failing tensors
    assert beyond and verdicts == 3


# phi_{1,2}(x; v, v) = w fed by T_1(v) = x: the target word of the key
# repeats a letter, so it has one distinct ordering, and {v,v,v} = w
REPEATED_LETTER = """
space E
  x 0
space V
  v 0
  w 1
action E V
  1 2 : x ; v v -> w : 1/1
tensor V E
  1 : v -> x : 1/1
"""


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_a_key_with_a_repeated_letter_is_fed_once(bound):
    sf = parse(REPEATED_LETTER)
    tensor, action = sf.embedding_tensor(), sf.action_family()
    assert check_embedding_explicit(tensor, action, bound).ok
    got = assert_matches_the_dense_descendent(tensor, action, bound)
    v, w = (action.V.space.index(s) for s in ("v", "w"))
    assert {k: f.constants for k, f in got.brackets.items()} == {3: {(v, v, v): {w: 1}}}
