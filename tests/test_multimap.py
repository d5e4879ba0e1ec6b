import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.graded import GradedSpace
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    add_into,
    commutator,
    lift_comorphism,
    lift_symmetric_coderivation,
    lift_zinbiel_coderivation,
    merge_into,
    _signed_orderings,
)
from linfty.corpus import random_multimap, random_restriction_family
from laws import (
    check_coleibniz,
    check_intertwines_coproduct,
    compose_comorphisms,
    family_bracket,
    identity_comorphism,
    restriction_vector,
    restrictions,
    scaled,
    twist_pairsum,
)
from paper import (
    coshuffle_coproduct,
    decalage,
    decalage_inverse,
    shifted,
    symmetrize,
    zinbiel_coproduct,
)

F = Fraction


@pytest.fixture
def even_pair():
    return GradedSpace("P", [("a", 0), ("b", 0), ("c", 0)])


@pytest.fixture
def odd_pair():
    return GradedSpace("O", [("a", 1), ("b", 1), ("c", 2)])


@pytest.fixture
def mixed3():
    return GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


# ---------------------------------------------------------------------------
# MultiMap basics


def test_multimap_rejects_degree_mismatch(even_pair):
    with pytest.raises(ValueError):
        MultiMap(even_pair, even_pair, 1, 1, PLAIN, {(0,): {1: F(1)}})


def test_multimap_rejects_noncanonical_symmetric_key(even_pair):
    with pytest.raises(ValueError):
        MultiMap(even_pair, even_pair, 2, 0, SYMMETRIC, {(1, 0): {2: F(1)}})


def test_multimap_rejects_repeated_odd_key(odd_pair):
    with pytest.raises(ValueError):
        MultiMap(odd_pair, odd_pair, 2, 0, SYMMETRIC, {(0, 0): {2: F(1)}})


def test_multimap_drops_zero_coefficients(even_pair):
    f = MultiMap(even_pair, even_pair, 1, 0, PLAIN, {(0,): {1: F(0)}})
    assert f.is_zero()


def test_zero_multimap_eval(even_pair):
    f = MultiMap(even_pair, even_pair, 2, 0, SYMMETRIC, {})
    assert f.eval((0, 1)) == {}


def test_symmetric_eval_even_swap(even_pair):
    f = MultiMap(even_pair, even_pair, 2, 0, SYMMETRIC, {(0, 1): {2: F(1)}})
    assert f.eval((1, 0)) == {2: F(1)}


def test_symmetric_eval_odd_swap(odd_pair):
    f = MultiMap(odd_pair, odd_pair, 2, 0, SYMMETRIC, {(0, 1): {2: F(1)}})
    assert f.eval((1, 0)) == {2: F(-1)}
    assert f.eval((0, 0)) == {}


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_idempotent(mixed3):
    rng = random.Random(5)
    f = random_multimap(mixed3, mixed3, 2, 1, rng, flavor=SYMMETRIC)
    g = symmetrize(f.expand_plain())
    assert g.constants == f.constants
    assert symmetrize(g).constants == g.constants


def test_symmetrize_antisymmetric_to_zero(even_pair):
    f = MultiMap(
        even_pair,
        even_pair,
        2,
        0,
        PLAIN,
        {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}},
    )
    assert symmetrize(f).is_zero()


def test_symmetrize_single_ordered_key_halves(even_pair):
    f = MultiMap(even_pair, even_pair, 2, 0, PLAIN, {(0, 1): {2: F(1)}})
    g = symmetrize(f)
    assert g.eval((0, 1)) == {2: F(1, 2)}


# ---------------------------------------------------------------------------
# coproducts


def test_coproducts_vanish_on_letters(mixed3):
    assert coshuffle_coproduct(mixed3, (0,)) == {}
    assert zinbiel_coproduct(mixed3, (1,)) == {}


def test_coshuffle_two_letters_even(even_pair):
    got = coshuffle_coproduct(even_pair, (0, 1))
    assert got == {((0,), (1,)): F(1), ((1,), (0,)): F(1)}


def test_coshuffle_two_letters_odd(odd_pair):
    got = coshuffle_coproduct(odd_pair, (0, 1))
    assert got == {((0,), (1,)): F(1), ((1,), (0,)): F(-1)}


def test_zinbiel_two_letters_single_term(mixed3):
    assert zinbiel_coproduct(mixed3, (0, 1)) == {((0,), (1,)): F(1)}


def test_coshuffle_equals_symmetrized_zinbiel(mixed3):
    # over every word of length <= 5 of a 3-element mixed-degree basis
    for n in range(1, 6):
        for word in mixed3.words(n):
            zin = zinbiel_coproduct(mixed3, word)
            expected = dict(zin)
            for k, v in twist_pairsum(mixed3, zin).items():
                add_into(expected, k, v)
            assert coshuffle_coproduct(mixed3, word) == expected


def test_coshuffle_cocommutative_coassociative(mixed3):
    for n in range(2, 5):
        for word in itertools.islice(mixed3.words(n), 40):
            cp = coshuffle_coproduct(mixed3, word)
            assert twist_pairsum(mixed3, cp) == cp
            lhs = {}
            rhs = {}
            for (a, b), c in cp.items():
                for (b1, b2), c2 in coshuffle_coproduct(mixed3, b).items():
                    add_into(lhs, (a, b1, b2), c * c2)
                for (a1, a2), c2 in coshuffle_coproduct(mixed3, a).items():
                    add_into(rhs, (a1, a2, b), c * c2)
            assert lhs == rhs


def test_zinbiel_coidentity(mixed3):
    # (Id x D) D = (D x Id) D + (tau D x Id) D on words of length <= 5
    for n in range(2, 6):
        for word in mixed3.words(n):
            cp = zinbiel_coproduct(mixed3, word)
            lhs = {}
            rhs = {}
            for (a, b), c in cp.items():
                for (b1, b2), c2 in zinbiel_coproduct(mixed3, b).items():
                    add_into(lhs, (a, b1, b2), c * c2)
                inner = zinbiel_coproduct(mixed3, a)
                for (a1, a2), c2 in inner.items():
                    add_into(rhs, (a1, a2, b), c * c2)
                for (a1, a2), c2 in twist_pairsum(mixed3, inner).items():
                    add_into(rhs, (a1, a2, b), c * c2)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# coderivation lifts


def test_lift_symmetric_zero(mixed3):
    q = lift_symmetric_coderivation(mixed3, {}, 4)
    assert q.is_zero()


def test_lift_symmetric_unary_coleibniz(mixed3):
    rng = random.Random(1)
    q1 = random_multimap(mixed3, mixed3, 1, 1, rng, flavor=SYMMETRIC, density=0.8)
    lifted = lift_symmetric_coderivation(mixed3, {1: q1}, 4)
    assert check_coleibniz(lifted) == {}


def test_lift_roundtrip_restrictions(mixed3):
    rng = random.Random(2)
    family = random_restriction_family(mixed3, [1, 2, 3], 1, rng, flavor=SYMMETRIC)
    family = {k: f for k, f in family.items() if not f.is_zero()}
    lifted = lift_symmetric_coderivation(mixed3, family, 4)
    back = restrictions(lifted)
    for k, f in family.items():
        assert back[k].constants == f.constants


def test_lift_symmetric_coleibniz_random(mixed3):
    for seed in range(8):
        rng = random.Random(100 + seed)
        degree = rng.choice([0, 1])
        family = random_restriction_family(
            mixed3, [1, 2], degree, rng, flavor=SYMMETRIC
        )
        lifted = lift_symmetric_coderivation(mixed3, family, 4)
        assert check_coleibniz(lifted) == {}


def test_lift_zinbiel_zero_and_two_word(mixed3):
    assert lift_zinbiel_coderivation(mixed3, {}, 3).is_zero()
    rng = random.Random(3)
    q2 = random_multimap(mixed3, mixed3, 2, 1, rng, density=0.9)
    lifted = lift_zinbiel_coderivation(mixed3, {2: q2}, 3)
    for w in mixed3.words(2):
        expected = {(b,): c for b, c in q2.eval(w).items()}
        assert lifted.rows.get(w, {}) == expected


def test_lift_zinbiel_coleibniz_random(mixed3):
    for seed in range(8):
        rng = random.Random(200 + seed)
        degree = rng.choice([0, 1])
        family = random_restriction_family(mixed3, [1, 2, 3], degree, rng)
        lifted = lift_zinbiel_coderivation(mixed3, family, 4)
        assert check_coleibniz(lifted) == {}


def test_symmetric_restrictions_intertwine_projection(mixed3):
    # pi . Q^Z == Q . pi on words up to the bound, for symmetric restrictions
    for seed in range(6):
        rng = random.Random(300 + seed)
        family = random_restriction_family(
            mixed3, [1, 2], 1, rng, flavor=SYMMETRIC
        )
        zin = lift_zinbiel_coderivation(mixed3, family, 4)
        sym = lift_symmetric_coderivation(mixed3, family, 4)
        for w in mixed3.words_up_to(4):
            lhs = {}
            for u, c in zin.rows.get(w, {}).items():
                norm, sign = mixed3.normalize(u)
                if sign:
                    add_into(lhs, norm, sign * c)
            norm, sign = mixed3.normalize(w)
            rhs = {}
            if sign:
                for u, c in sym.rows.get(norm, {}).items():
                    add_into(rhs, u, sign * c)
            assert lhs == rhs, (w, lhs, rhs)


# ---------------------------------------------------------------------------
# comorphisms


def test_identity_comorphism_is_identity(mixed3):
    com = identity_comorphism(mixed3, 3)
    for w in mixed3.words_up_to(3):
        assert com.rows.get(w, {}) == {w: F(1)}


def test_comorphism_unary_is_tensor_power(mixed3):
    rng = random.Random(4)
    f1 = random_multimap(mixed3, mixed3, 1, 0, rng, density=0.9)
    com = lift_comorphism(mixed3, mixed3, {1: f1}, 3)
    for w in mixed3.words_up_to(3):
        expected = {((), F(1))}
        expected = [((), F(1))]
        for letter in w:
            expected = [
                (u + (b,), c * cb)
                for (u, c) in expected
                for b, cb in f1.eval((letter,)).items()
            ]
        acc = {}
        for u, c in expected:
            add_into(acc, u, c)
        assert com.rows.get(w, {}) == acc


def test_comorphism_intertwines_coproduct(mixed3):
    for seed in range(6):
        rng = random.Random(400 + seed)
        comps = {
            1: random_multimap(mixed3, mixed3, 1, 0, rng, density=0.8),
            2: random_multimap(mixed3, mixed3, 2, 0, rng),
            3: random_multimap(mixed3, mixed3, 3, 0, rng),
        }
        com = lift_comorphism(mixed3, mixed3, comps, 4)
        assert check_intertwines_coproduct(com) == {}


def test_comorphism_composition_matches_component_composition(mixed3):
    rng = random.Random(7)
    f = {
        1: random_multimap(mixed3, mixed3, 1, 0, rng, density=0.8),
        2: random_multimap(mixed3, mixed3, 2, 0, rng),
    }
    g = {
        1: random_multimap(mixed3, mixed3, 1, 0, rng, density=0.8),
        2: random_multimap(mixed3, mixed3, 2, 0, rng),
    }
    cf = lift_comorphism(mixed3, mixed3, f, 3)
    cg = lift_comorphism(mixed3, mixed3, g, 3)
    composed = compose_comorphisms(cg, cf)
    # restriction components of the composite, re-lifted, give the same rows
    relift = lift_comorphism(mixed3, mixed3, composed.components, 3)
    for w in mixed3.words_up_to(3):
        assert relift.rows.get(w, {}) == composed.rows.get(w, {})


# ---------------------------------------------------------------------------
# commutators and the derived bracket on families


def test_commutator_squares_to_zero_even(mixed3):
    rng = random.Random(8)
    family = random_restriction_family(mixed3, [1, 2], 0, rng)
    q = lift_zinbiel_coderivation(mixed3, family, 3)
    assert commutator(q, q).is_zero()


def test_commutator_graded_antisymmetry(mixed3):
    rng = random.Random(9)
    fam1 = random_restriction_family(mixed3, [1, 2], 1, rng)
    fam2 = random_restriction_family(mixed3, [1, 2], 1, rng)
    q = lift_zinbiel_coderivation(mixed3, fam1, 3)
    p = lift_zinbiel_coderivation(mixed3, fam2, 3)
    lhs = commutator(q, p)
    sign = -1 if (q.degree % 2 and p.degree % 2) else 1
    rhs = scaled(commutator(p, q), F(-sign))
    assert lhs.rows == rhs.rows


def test_commutator_unary_matches_matrix_commutator(mixed3):
    rng = random.Random(10)
    a = random_multimap(mixed3, mixed3, 1, 1, rng, density=0.9)
    b = random_multimap(mixed3, mixed3, 1, 1, rng, density=0.9)
    qa = lift_zinbiel_coderivation(mixed3, {1: a}, 1)
    qb = lift_zinbiel_coderivation(mixed3, {1: b}, 1)
    bracket = commutator(qa, qb)
    for i in range(mixed3.dim):
        expected = {}
        for j, c in b.eval((i,)).items():
            merge_into(expected, a.eval((j,)), c)
        for j, c in a.eval((i,)).items():
            merge_into(expected, b.eval((j,)), c)  # anticommutator: both odd
        assert restriction_vector(bracket, (i,)) == expected


def test_balavoine_zero_on_even_square(mixed3):
    rng = random.Random(12)
    fam = random_restriction_family(mixed3, [1, 2], 0, rng)
    assert family_bracket(mixed3, fam, fam, 3) == {}


def test_balavoine_arity_one_is_commutator(mixed3):
    rng = random.Random(13)
    a = random_multimap(mixed3, mixed3, 1, 1, rng, density=0.9)
    b = random_multimap(mixed3, mixed3, 1, 0, rng, density=0.9)
    got = family_bracket(mixed3, {1: a}, {1: b}, 2)
    expected = {}
    for i in range(mixed3.dim):
        acc = {}
        for j, c in b.eval((i,)).items():
            merge_into(acc, a.eval((j,)), c)
        for j, c in a.eval((i,)).items():
            merge_into(acc, b.eval((j,)), -c)
        if acc:
            expected[(i,)] = acc
    got1 = got.get(1)
    assert (got1.constants if got1 else {}) == expected


def test_balavoine_jacobi_on_short_words(mixed3):
    rng = random.Random(14)
    fams = [random_restriction_family(mixed3, [1, 2], 1, rng) for _ in range(3)]
    lifts = [lift_zinbiel_coderivation(mixed3, fam, 3) for fam in fams]
    a, b, c = lifts
    j1 = commutator(a, commutator(b, c))
    j2 = commutator(commutator(a, b), c)
    sgn = -1 if (a.degree % 2 and b.degree % 2) else 1
    j3 = scaled(commutator(b, commutator(a, c)), F(sgn))
    assert j1.rows == j2.add(j3).rows


# ---------------------------------------------------------------------------
# decalage


def test_decalage_roundtrip_random(mixed3):
    up = shifted(mixed3, 1)
    rng = random.Random(15)
    for _ in range(50):
        arity = rng.randint(1, 3)
        degree = rng.randint(-1, 2)
        f = random_multimap(mixed3, mixed3, arity, degree, rng)
        g = decalage(f, up, up)
        assert g.degree == f.degree + 1 - arity
        back = decalage_inverse(g, mixed3, mixed3)
        assert back.constants == f.constants
        assert back.degree == f.degree


MIXED3 = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(-2, 2),
    st.sampled_from((PLAIN, SYMMETRIC)),
    st.integers(0, 2**16),
)
def test_decalage_round_trip_property(arity, degree, flavor, seed):
    # symmetric inputs come back expanded: the transported map is plain
    up = shifted(MIXED3, 1)
    f = random_multimap(MIXED3, MIXED3, arity, degree, random.Random(seed), flavor, 0.6)
    g = decalage(f, up, up)
    assert g.flavor == PLAIN and g.degree == degree + 1 - arity
    for w in MIXED3.words(arity):
        # (-1)^{sum_{j<k} (k - j) d_j} over the unshifted degrees, 1-indexed
        total = sum((arity - j) * MIXED3.degrees[x] for j, x in enumerate(w, start=1))
        sign = -1 if total % 2 else 1
        assert g.eval(w) == {out: sign * c for out, c in f.eval(w).items()}
    back = decalage_inverse(g, MIXED3, MIXED3)
    assert back.degree == degree and back.constants == f.expand_plain().constants


def test_decalage_arity_one_is_reindexing(mixed3):
    up = shifted(mixed3, 1)
    rng = random.Random(16)
    f = random_multimap(mixed3, mixed3, 1, 1, rng, density=0.9)
    g = decalage(f, up, up)
    assert g.constants == f.constants
    assert g.degree == f.degree


def test_decalage_binary_bracket_sign():
    # a shifted Lie bracket on two degree -1 letters: the unshifted bracket
    # on the suspension carries the sign (-1)^i with i = -1
    low = GradedSpace("L", [("a", -1), ("b", -1)])
    high = shifted(low, 1)
    l2 = MultiMap(low, low, 2, 1, SYMMETRIC, {(0, 1): {1: F(1)}})
    q2 = decalage(l2, high, high)
    assert q2.degree == 0
    assert q2.eval((0, 1)) == {1: F(-1)}
    assert q2.eval((1, 0)) == {1: F(1)}
    # the result is skew on the even letters, as an unshifted bracket must be
    assert q2.eval((0, 0)) == {}


def test_signed_orderings_are_every_ordering_with_its_sort_sign():
    space = GradedSpace("P", [("a", 0), ("b", 1), ("c", 1), ("d", 2)])
    for n in range(1, 5):
        for word in space.canonical_words(n):
            parities = tuple(space.degrees[x] % 2 for x in word)
            table = dict(_signed_orderings(word, parities))
            assert set(table) == set(itertools.permutations(word))
            for u, sign in table.items():
                assert space.normalize(u) == (word, sign)
