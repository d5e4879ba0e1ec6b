"""The scalar normal form, and the structure checkers over cleared
denominators.

Every stored constant is an ``int`` when it is integral and a ``Fraction``
only when it is not; floats are refused where constants enter.  The
structure identity is quadratic in the brackets, so ``check_loday_infinity``
and ``check_lie_infinity`` run both routes on the brackets times ``D``, the
lcm of their denominators, and divide the residuals by ``D**2`` only for
the report.  The every-word routes here read the unscaled structure through
``MultiMap.eval``, so they stay independent of the clearing.
"""
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from dense_splits import every_canonical_word_residuals
from linfty import action as action_module
from linfty import corpus, homotopy
from linfty.action import BiMultiMap, hemisemidirect
from linfty.fileformat import parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import (
    HomotopyStructure,
    check_lie_infinity,
    check_loday_infinity,
)
from linfty.multimap import PLAIN, SYMMETRIC, MultiMap
from linfty.report import InputError
from linfty.tensor import deformation_complex
from paper import maurer_cartan, mc_residual, twist

FIXTURES = Path(__file__).parent / "fixtures"
PATHS = sorted(FIXTURES.glob("*.lif"))


def is_normal(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_normal(tables, where):
    for table in tables:
        for key, vec in table.items():
            for out, c in vec.items():
                assert is_normal(c), (where, key, out, c)


def denominator(brackets) -> int:
    tables = [f.constants for f in brackets.values()]
    return lcm(*(Fraction(c).denominator for t in tables for v in t.values() for c in v.values()))


# ---------------------------------------------------------------------------
# floats are refused where constants enter

SPACE = GradedSpace("S", [("x", 0), ("y", 1)])


def test_multimap_refuses_a_float_constant_and_names_its_key():
    with pytest.raises(InputError, match=r"\(\(0,\), 1\).*float 0\.5"):
        MultiMap(SPACE, SPACE, 1, 1, PLAIN, {(0,): {1: 0.5}})


def test_bimultimap_refuses_a_float_constant_and_names_its_key():
    with pytest.raises(InputError, match=r"\(\(\(0,\), \(0,\)\), 1\).*float 2\.0"):
        BiMultiMap(SPACE, SPACE, 1, 1, 1, {((0,), (0,)): {1: 2.0}})


def test_constructors_store_integral_constants_as_ints():
    f = MultiMap(SPACE, SPACE, 1, 1, PLAIN, {(0,): {1: Fraction(4, 2)}})
    g = BiMultiMap(SPACE, SPACE, 1, 1, 1, {((0,), (0,)): {1: Fraction(3, 6)}})
    assert type(f.constants[(0,)][1]) is int and f.constants[(0,)][1] == 2
    assert g.constants[((0,), (0,))][1] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the normal form of every stored constant


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_parsed_constants_are_in_normal_form(path):
    sf = parse_path(path)
    maps = [f for _, fam in sf.bracket_sections.values() for f in fam.values()]
    for section in (sf.tensor_section, sf.morphism_section):
        if section is not None:
            maps.extend(section[2].values())
    if sf.action_section is not None:
        maps.extend(sf.action_section[2].values())
        product = hemisemidirect(sf.action_family()).structure
        assert_normal([f.constants for f in product.brackets.values()], f"{path.stem}:product")
    assert_normal([f.constants for f in maps], path.stem)


def test_products_of_basis_changed_actions_are_in_normal_form():
    fractional = 0
    for inst in corpus.action_corpus(38, 7):
        brackets = hemisemidirect(inst.action).structure.brackets
        assert_normal([f.constants for f in brackets.values()], inst.label)
        fractional += denominator(brackets) > 1
    # the basis changes give many products a denominator
    assert fractional > 10


def test_maurer_cartan_values_are_in_normal_form():
    # e of degree 0 with l1(e) = f and l2(e, e) = 3f: the curvature of t*e is
    # (t + 3t^2/2) f, integral at t = 2, fractional at t = 1/3 and zero at
    # t = -2/3, where the twisted l1 sends e to -f
    A = GradedSpace("A", [("e", 0), ("f", 1)])
    L = HomotopyStructure(A, SYMMETRIC, {
        1: MultiMap(A, A, 1, 1, SYMMETRIC, {(0,): {1: 1}}),
        2: MultiMap(A, A, 2, 1, SYMMETRIC, {(0, 0): {1: 3}}),
    })
    assert mc_residual(L, {0: 2}) == {1: 8}
    for element in ({0: 2}, {0: Fraction(2)}, {0: Fraction(1, 3)}, {0: Fraction(-2, 3)}):
        mc = maurer_cartan(L, element)
        values = [c for _, c in mc.element] + [c for p in mc.partial_sums for _, c in p]
        assert all(is_normal(c) for c in values), (element, mc)
        assert all(is_normal(c) for c in mc_residual(L, element).values()), element
    twisted = twist(L, {0: Fraction(-2, 3)})
    assert_normal([f.constants for f in twisted.brackets.values()], "twist")
    assert twisted.brackets[1].constants == {(0,): {1: -1}}


def test_unchecked_tables_equal_the_validated_ones():
    # the cleared copies and the products fill their maps without the
    # validating constructors; on the fractional actions each table is what
    # those constructors make of it
    fractional = 0
    for inst in corpus.action_corpus(114, 3):
        cleared = action_module._cleared(inst.action)
        if cleared is inst.action:
            continue
        fractional += 1
        maps = [*cleared.E.brackets.values(), *cleared.V.brackets.values()]
        for act in (inst.action, cleared):
            maps += hemisemidirect(act).structure.brackets.values()
        for f in maps:
            checked = MultiMap(f.source, f.target, f.arity, f.degree, f.flavor, f.constants)
            assert checked.constants == f.constants, inst.label
            assert_normal([f.constants], inst.label)
        for f in cleared.components.values():
            args = f.e_space, f.v_space, f.e_arity, f.v_arity, f.degree, f.constants
            assert BiMultiMap(*args).constants == f.constants, inst.label
            assert_normal([f.constants], inst.label)
    assert fractional > 50


@pytest.mark.parametrize("name", ("heisenberg", "adjoint_identity"))
def test_d1_columns_are_in_normal_form(name):
    sf = parse_path(FIXTURES / f"{name}.lif")
    cols = deformation_complex(sf.embedding_tensor(), sf.action_family(), 4).d1_columns()
    assert any(cols)
    assert_normal([dict(enumerate(cols))], name)


# ---------------------------------------------------------------------------
# both routes of the structure checkers run on integers


def test_both_loday_routes_receive_only_int_constants(monkeypatch):
    # heis-noncentral#cc3: a basis change of a non-coherent catalog action,
    # whose product brackets have denominator 9
    inst = corpus.action_corpus(22, 7)[21]
    assert inst.label == "heis-noncentral#cc3" and inst.expect_coherent is False
    product = hemisemidirect(inst.action).structure
    assert denominator(product.brackets) == 9
    seen = {"square": 0, "sum": 0}

    def ints_only(values):
        assert all(type(c) is int for v in values for c in v.values())

    def family_values(family):
        return [v for f in family.values() for v in f.constants.values()]

    square, split = homotopy._composite, homotopy._split_sums

    def counted_square(space, slots, inner, parity, bound):
        seen["square"] += 1
        inner = list(inner)
        ints_only([entry[-1] for entries in slots.values() for entry in entries])
        ints_only([vec for _, vec in inner])
        return square(space, slots, inner, parity, bound)

    def counted_sum(space, inner, outer, words, table):
        seen["sum"] += len(words)
        ints_only(family_values(inner))
        ints_only(family_values(outer))
        return split(space, inner, outer, words, table)

    monkeypatch.setattr(homotopy, "_composite", counted_square)
    monkeypatch.setattr(homotopy, "_split_sums", counted_sum)
    report = check_loday_infinity(product, 4)
    assert not report.ok
    assert seen["square"] == 1 and seen["sum"] > 0


MIXED4 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1), ("w", 0)])


def basis_changed_family(seed):
    """A seeded symmetric family that satisfies no identity, written in a
    seeded new basis."""
    rng = random.Random(seed)
    family = corpus.random_restriction_family(MIXED4, (1, 2, 3), 1, rng, SYMMETRIC, 0.4)
    p, pinv = corpus.random_basis_change(MIXED4, rng)
    return corpus.conjugate_structure(HomotopyStructure(MIXED4, SYMMETRIC, family), p, pinv)


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("seed", (1, 2))
def test_lie_residuals_of_a_basis_change_equal_the_every_word_route(seed, bound):
    structure = basis_changed_family(seed)
    assert denominator(structure.brackets) > 1
    report = check_lie_infinity(structure, bound)
    assert report.residuals
    assert list(report.residuals) == every_canonical_word_residuals(structure, bound)
