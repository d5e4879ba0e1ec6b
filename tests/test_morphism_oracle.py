"""The morphism checkers against the corestriction of the full intertwining
defect, formed on every word.

An ∞-morphism is a comorphism ``F`` with ``F Q = Q' F``, and since
``F Q - Q' F`` is a coderivation along ``F`` its corestriction
``p'(F Q - Q' F)`` fixes it.  The route here forms that corestriction on
every source word (every canonical one in the symmetric flavor), as
``dense_lifts.dense_defect``: no restriction-level composite, no
comorphism placement and no split table.  The checker's residual list must equal it, and the checker raises
unless its two routes give the same residual map word by word.
"""
import random
import sys
from pathlib import Path

import pytest

import linfty.homotopy as homotopy_module
import linfty.multimap as multimap_module
from dense_lifts import dense_defect
from linfty import corpus, parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import (
    HomotopyStructure,
    check_lie_morphism,
    check_loday_morphism,
    lie_to_loday,
)
from linfty.multimap import PLAIN, SYMMETRIC, ZINBIEL, MultiMap, merge_into
from linfty.report import Residual, format_vector
from linfty.tensor import check_descendent_morphism, check_embedding_explicit, descendent

FIXTURES = Path(__file__).parent / "fixtures"


def assert_matches_the_dense_defect(components, source, target, bound, flavor):
    """The checker's report, once its residuals are the dense defect's."""
    check = check_lie_morphism if flavor == SYMMETRIC else check_loday_morphism
    report = check(components, source, target, bound)
    expected = dense_defect(components, source, target, bound, flavor)
    assert list(report.residuals) == [
        Residual(len(w), source.space.format_word(w), format_vector(target.space, v))
        for w, v in expected.items()
    ]
    return report


def fixture_morphisms():
    out = []
    for name in ("morphism_quotient", "strict_centroid"):
        sf = parse_path(FIXTURES / f"{name}.lif")
        src, dst, comps = sf.morphism_section
        out.append((name, sf.structure(src), sf.structure(dst), comps))
    return out


def descendent_morphisms(bound):
    out = []
    for name in ("heisenberg", "adjoint_identity"):
        sf = parse_path(FIXTURES / f"{name}.lif")
        tensor, action = sf.embedding_tensor(), sf.action_family()
        source = descendent(tensor, action, bound)
        out.append((name, source, lie_to_loday(action.E), tensor.components))
    return out


def flavored(source, target, flavor):
    if flavor == SYMMETRIC:
        return source, target
    return lie_to_loday(source), lie_to_loday(target)


def perturbed(components, source, target, seed, flavor):
    """The components with a seeded unary map added, symmetric in the Lie
    flavor; the fixtures' spaces admit no other degree-0 arity."""
    maps = SYMMETRIC if flavor == SYMMETRIC else PLAIN
    rng = random.Random(seed)
    extra = corpus.random_multimap(source.space, target.space, 1, 0, rng, maps, 0.6)
    table = {w: dict(v) for w, v in components[1].constants.items()}
    for w, vec in extra.constants.items():
        merge_into(table.setdefault(w, {}), vec)
    return {**components, 1: MultiMap(source.space, target.space, 1, 0, maps, table)}


@pytest.mark.parametrize("flavor", (SYMMETRIC, ZINBIEL))
@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("index", range(2), ids=lambda i: fixture_morphisms()[i][0])
def test_fixture_morphisms_equal_the_dense_defect(index, bound, flavor):
    _, source, target, comps = fixture_morphisms()[index]
    source, target = flavored(source, target, flavor)
    assert assert_matches_the_dense_defect(comps, source, target, bound, flavor).ok


@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("index", range(2), ids=("heisenberg", "adjoint_identity"))
def test_descendent_morphisms_equal_the_dense_defect(index, bound):
    _, source, target, comps = descendent_morphisms(bound)[index]
    assert assert_matches_the_dense_defect(comps, source, target, bound, ZINBIEL).ok


@pytest.mark.parametrize("flavor", (SYMMETRIC, ZINBIEL))
@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("index", range(2), ids=lambda i: fixture_morphisms()[i][0])
def test_perturbed_fixture_morphisms_equal_the_dense_defect(index, bound, flavor):
    _, source, target, comps = fixture_morphisms()[index]
    source, target = flavored(source, target, flavor)
    failing = 0
    for seed in range(4):
        family = perturbed(comps, source, target, seed, flavor)
        report = assert_matches_the_dense_defect(family, source, target, bound, flavor)
        failing += not report.ok
    assert failing


@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("index", range(2), ids=("heisenberg", "adjoint_identity"))
def test_perturbed_descendent_morphisms_equal_the_dense_defect(index, bound):
    _, source, target, comps = descendent_morphisms(bound)[index]
    failing = 0
    for seed in range(4):
        family = perturbed(comps, source, target, seed, ZINBIEL)
        report = assert_matches_the_dense_defect(family, source, target, bound, ZINBIEL)
        failing += not report.ok
    assert failing


SOURCE = GradedSpace("S", [("x", 0), ("y", 1), ("z", -1)])
TARGET = GradedSpace("T", [("u", 0), ("v", 1), ("w", -1)])


def random_morphism(seed, flavor):
    """Random brackets on both sides and components of arities 1-3, with
    letters of every parity, so that every sign of both routes is read."""
    rng = random.Random(seed)
    maps = SYMMETRIC if flavor == SYMMETRIC else PLAIN

    def structure(space):
        brackets = corpus.random_restriction_family(space, (1, 2, 3), 1, rng, maps, 0.3)
        return HomotopyStructure(space, maps, brackets, 3)

    source, target = structure(SOURCE), structure(TARGET)
    components = {
        k: corpus.random_multimap(SOURCE, TARGET, k, 0, rng, maps, 0.3) for k in (1, 2, 3)
    }
    return components, source, target


@pytest.mark.parametrize("flavor", (SYMMETRIC, ZINBIEL))
@pytest.mark.parametrize("bound", (3, 4, 5))
@pytest.mark.parametrize("seed", (4, 5, 6))
def test_random_morphisms_equal_the_dense_defect(seed, bound, flavor):
    components, source, target = random_morphism(seed, flavor)
    report = assert_matches_the_dense_defect(components, source, target, bound, flavor)
    assert max(r.arity for r in report.residuals) > 2


# ---------------------------------------------------------------------------
# work counts


@pytest.fixture
def lift_calls(monkeypatch):
    """Count the full coderivation lifts, wherever a module binds them."""
    import linfty.multimap as multimap

    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("lift_symmetric_coderivation", "lift_zinbiel_coderivation"):
        real = getattr(multimap, name)
        for module in [m for k, m in sys.modules.items() if k.startswith("linfty.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    return calls


@pytest.mark.parametrize("flavor", (SYMMETRIC, ZINBIEL))
def test_morphism_checks_lift_nothing(flavor, lift_calls):
    for _, source, target, comps in fixture_morphisms():
        source, target = flavored(source, target, flavor)
        check = check_lie_morphism if flavor == SYMMETRIC else check_loday_morphism
        assert check(comps, source, target, 4).ok
    components, source, target = random_morphism(4, flavor)
    check(components, source, target, 4)
    assert lift_calls == []


@pytest.mark.parametrize("name", ("heisenberg", "adjoint_identity"))
def test_descendent_morphism_lifts_nothing(name, lift_calls):
    sf = parse_path(FIXTURES / f"{name}.lif")
    assert check_descendent_morphism(sf.embedding_tensor(), sf.action_family(), 4).ok
    assert lift_calls == []


def test_descendent_morphism_looks_up_each_composition_once(monkeypatch):
    # the identity sums read the target bracket of each of the 31 compositions
    # of the lengths 1 to 5 once, not once per word (4,712 lookups when they
    # walked every composition of every word); the intertwining defect and
    # the descendent structure make the other 21
    real = HomotopyStructure.bracket
    lookups = []

    def counted(self, k):
        lookups.append(k)
        return real(self, k)

    monkeypatch.setattr(HomotopyStructure, "bracket", counted)
    sf = parse_path(FIXTURES / "heisenberg.lif")
    assert check_descendent_morphism(sf.embedding_tensor(), sf.action_family(), 5).ok
    assert len(lookups) <= 2**5 - 1 + 21


def test_lie_morphism_sums_only_on_formed_and_read_words(monkeypatch):
    # the symmetric identity sum runs on the composite's words and the
    # comorphism rows that meet a target bracket, one word here; visiting
    # every canonical word made 7 sums
    real = homotopy_module._split_sums
    visited = []

    def counted(space, inner, outer, words, table):
        assert table is homotopy_module._symmetric_table
        visited.extend(words)
        return real(space, inner, outer, words, table)

    monkeypatch.setattr(homotopy_module, "_split_sums", counted)
    _, source, target, comps = fixture_morphisms()[1]
    assert check_lie_morphism(comps, source, target, 7).ok
    assert len(visited) <= 1


def test_descendent_morphism_visits_only_candidate_words(monkeypatch):
    # the every-word descendent and identity sum made 9,837 prefix-fed values
    # and 9,840 anchored sums here.  The descendent is one pass over the
    # keys and each check builds only the comorphism rows it reads, so no
    # full comorphism is lifted; route A of the identity has no word, since
    # the composite of the tensor with the descendent brackets forms none
    # and no comorphism row meets a bracket.  The anchored sums count the
    # words they are given
    real = multimap_module.lift_comorphism
    lifts = []

    def counted_lift(*args):
        lifts.append(args[-1])
        return real(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("linfty"):
            if getattr(module, "lift_comorphism", None) is real:
                monkeypatch.setattr(module, "lift_comorphism", counted_lift)
    words = []
    real_sums = homotopy_module._split_sums

    def counted_sums(space, inner, outer, sum_words, table):
        assert table is homotopy_module._anchored_table
        words.extend(sum_words)
        return real_sums(space, inner, outer, sum_words, table)

    monkeypatch.setattr(homotopy_module, "_split_sums", counted_sums)
    sf = parse_path(FIXTURES / "heisenberg.lif")
    tensor, action = sf.embedding_tensor(), sf.action_family()
    assert max(descendent(tensor, action, 8).brackets) > 1
    assert check_embedding_explicit(tensor, action, 8).ok
    assert check_descendent_morphism(tensor, action, 8).ok
    assert lifts == []
    assert words == []
