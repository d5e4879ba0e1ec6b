"""The restriction-level coderivation calculus against full lifts.

``lifted_composite`` (``dense_lifts``, on the kernel ``_composite``) forms
``p(A B) = a B`` from the supports of the two families, ``balavoine_bracket`` is two such composites on plain tables
(fed here through ``laws.family_bracket``), and the commutator series of
``check_embedding_mc`` and ``DeformationComplex`` runs on plain tables and
lifts nothing.  The references here lift every family word by word
(``dense_lifts.dense_zinbiel_lift``, which shares no placement loop with
``_composite``) and compose full coderivations: the composite is ``a``
applied to every entry of every row of the word-by-word lift of ``b``, the
bracket is the restriction of the commutator of two lifts, and the series
is ``dense_lifts.dense_ad_series``.
"""
import random
from pathlib import Path

import pytest

from dense_lifts import (
    assert_composite_matches,
    dense_ad_series,
    dense_zinbiel_lift,
    lifted_composite,
    projected,
)
from laws import as_dict, family_bracket, maps_by_arity, restriction_vector, restrictions
from linfty import corpus, parse_path
from linfty.action import hemisemidirect
from linfty.graded import GradedSpace
from linfty.multimap import PLAIN, SYMMETRIC, commutator
from linfty.report import format_vector
from linfty.tensor import EmbeddingTensor, check_embedding_mc, deformation_complex

FIXTURES = Path(__file__).parent / "fixtures"
MIXED3 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


def random_pair(seed, outer_degree, inner_degree, flavor):
    rng = random.Random(seed)
    outer = corpus.random_restriction_family(MIXED3, (1, 2, 3), outer_degree, rng, flavor, 0.5)
    inner = corpus.random_restriction_family(MIXED3, (1, 2, 3), inner_degree, rng, flavor, 0.5)
    return outer, inner


# the inner family's degree sets the placement signs, so both parities of
# it are met, each against an outer family of another degree
DEGREE_PAIRS = [(1, 0), (0, 1), (2, -1), (-1, 0)]


@pytest.mark.parametrize("flavor", (PLAIN, SYMMETRIC))
@pytest.mark.parametrize("degrees", DEGREE_PAIRS)
@pytest.mark.parametrize("seed", range(3))
def test_lifted_composite_equals_the_outer_family_on_the_dense_lift(seed, degrees, flavor):
    outer, inner = random_pair(seed, *degrees, flavor)
    got = lifted_composite(MIXED3, outer, inner, 4)
    assert assert_composite_matches(got, outer, dense_zinbiel_lift(MIXED3, inner, 4))


def restrictions_by_arity(family):
    return {k: f.constants for k, f in family.items()}


@pytest.mark.parametrize("flavor", (PLAIN, SYMMETRIC))
@pytest.mark.parametrize("degrees", DEGREE_PAIRS + [(1, 1), (-1, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_balavoine_bracket_equals_the_commutator_of_the_lifts(seed, degrees, flavor):
    f, g = random_pair(seed, *degrees, flavor)
    got = family_bracket(MIXED3, f, g, 4)
    lifted = commutator(dense_zinbiel_lift(MIXED3, f, 4), dense_zinbiel_lift(MIXED3, g, 4))
    expected = restrictions(lifted)
    assert restrictions_by_arity(got) == restrictions_by_arity(expected)
    assert {f.degree for f in got.values()} == {lifted.degree}
    assert got


def fixture_tensor(name):
    sf = parse_path(FIXTURES / f"{name}.lif")
    return sf.embedding_tensor(), sf.action_family()


def zero_tensor():
    act = corpus.heisenberg_central_action()
    return EmbeddingTensor(act.V.space, act.E.space, {}), act


SERIES_CASES = [
    (name, bound) for name in ("heisenberg", "adjoint_identity") for bound in (3, 4, 5)
]


def dense_codifferential(hemi, bound):
    return dense_zinbiel_lift(hemi.space, hemi.structure.brackets, bound)


def dense_series(tensor, action, bound, include_start):
    hemi = hemisemidirect(action)
    comps = tensor.components.items()
    table = {hemi.from_v_word(w): v for k, f in comps if k <= bound for w, v in f.constants.items()}
    family = maps_by_arity(hemi.space, hemi.space, 0, PLAIN, table)
    t = dense_zinbiel_lift(hemi.space, family, bound)
    return dense_ad_series(dense_codifferential(hemi, bound), t, bound, include_start)


def restriction_table(cod):
    return {w: vec for w in cod.rows if (vec := restriction_vector(cod, w))}


@pytest.mark.parametrize("name,bound", SERIES_CASES)
def test_twisted_family_equals_the_full_commutator_series(name, bound):
    tensor, action = fixture_tensor(name)
    complex_ = deformation_complex(tensor, action, bound)
    expected = dense_series(tensor, action, bound, True)
    assert complex_._series == restriction_table(expected)
    assert expected.rows != dense_codifferential(complex_.hemi, bound).rows


@pytest.mark.parametrize("bound", (3, 4))
def test_twisted_family_of_the_zero_tensor(bound):
    tensor, action = zero_tensor()
    complex_ = deformation_complex(tensor, action, bound)
    expected = dense_series(tensor, action, bound, True)
    assert complex_._series == restriction_table(expected)


TENSORS = corpus.tensor_corpus(11, seed=31)


def dense_mc_residuals(tensor, action, bound):
    hemi = hemisemidirect(action)
    rows = as_dict(projected(hemi, dense_series(tensor, action, bound, False), 1))
    vspace, espace = action.V.space, action.E.space
    return sorted(
        (len(w), vspace.format_word(w), format_vector(espace, vec)) for w, vec in rows.items()
    )


@pytest.mark.parametrize("bound", (3, 4))
def test_mc_residuals_equal_the_full_commutator_series(bound):
    flat = set()
    for inst in TENSORS:
        report = check_embedding_mc(inst.tensor, inst.action, bound)
        got = [(r.arity, r.word, r.value) for r in report.residuals]
        assert got == dense_mc_residuals(inst.tensor, inst.action, bound), inst.label
        flat.add(report.ok)
    # flat and non-flat tensors both occur
    assert flat == {True, False}
