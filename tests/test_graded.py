import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from laws import compose, unshuffles
from linfty import graded
from linfty.graded import (
    GradedSpace,
    increasing_unshuffles,
    is_permutation,
    koszul_sign,
    permute,
)
from paper import shifted


def brute_unshuffles(blocks):
    """Independent oracle: filter all permutations for block monotonicity."""
    n = sum(blocks)
    out = []
    for sigma in itertools.permutations(range(n)):
        pos = 0
        good = True
        for b in blocks:
            if any(sigma[pos + i] > sigma[pos + i + 1] for i in range(b - 1)):
                good = False
                break
            pos += b
        if good:
            out.append(sigma)
    return out


def test_koszul_identity_is_plus_one():
    assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1
    assert koszul_sign((0,), (5,)) == 1


def test_koszul_transposition_of_two_odds():
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (0, 1)) == 1
    assert koszul_sign((1, 0), (2, 4)) == 1


def test_koszul_cycle_three_odds():
    # output word v3 v1 v2: two odd-odd inversions, sign +1
    assert koszul_sign((2, 0, 1), (1, 1, 1)) == 1


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((0, 1), (1,))


def test_koszul_multiplicativity_exhaustive():
    # over all permutation pairs of n <= 4 and degree patterns in {0,1}^n
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        for degrees in itertools.product((0, 1), repeat=n):
            for tau in perms:
                d_tau = permute(tau, degrees)
                s_tau = koszul_sign(tau, degrees)
                for sigma in perms:
                    lhs = koszul_sign(compose(tau, sigma), degrees)
                    assert lhs == koszul_sign(sigma, d_tau) * s_tau


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 8))
    tau = tuple(draw(st.permutations(range(n))))
    sigma = tuple(draw(st.permutations(range(n))))
    degrees = tuple(draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))
    return tau, sigma, degrees


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(permutation_pairs())
def test_koszul_multiplicativity_up_to_length_8(case):
    # beyond the exhaustive range: any degrees, not only parities
    tau, sigma, degrees = case
    assert koszul_sign(compose(tau, sigma), degrees) == (
        koszul_sign(sigma, permute(tau, degrees)) * koszul_sign(tau, degrees)
    )


def test_compose_matches_sequential_application():
    word = ("a", "b", "c", "d")
    for tau in itertools.permutations(range(4)):
        for sigma in itertools.permutations(range(4)):
            assert permute(sigma, permute(tau, word)) == permute(
                compose(tau, sigma), word
            )


def test_unshuffles_single_block_is_identity():
    assert unshuffles(3) == ((0, 1, 2),)
    assert increasing_unshuffles(4) == ((0, 1, 2, 3),)


def test_unshuffles_counts_and_uniqueness():
    assert len(unshuffles(1, 2)) == 3
    assert len(unshuffles(2, 2)) == 6
    for blocks in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 2), (3, 2), (2, 4)]:
        got = unshuffles(*blocks)
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(brute_unshuffles(blocks))


def test_unshuffle_count_binomial_up_to_six():
    for total in range(2, 7):
        for p in range(1, total):
            assert len(unshuffles(p, total - p)) == comb(total, p)


def test_multinomial_count_three_blocks():
    assert len(unshuffles(1, 1, 1)) == 6
    assert len(unshuffles(2, 1, 1)) == factorial(4) // 2


def test_increasing_unshuffles_examples():
    assert increasing_unshuffles(1, 1) == ((0, 1),)
    assert len(increasing_unshuffles(1, 2)) == 2
    got = set(increasing_unshuffles(1, 2))
    assert got <= set(unshuffles(1, 2))


def test_increasing_unshuffles_subset_property():
    for blocks in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1)]:
        inc = set(increasing_unshuffles(*blocks))
        all_ = set(unshuffles(*blocks))
        assert inc <= all_


def test_increasing_unshuffles_list_no_other_unshuffle(monkeypatch):
    # a target bracket of arity k over unary components asks for k blocks
    # of size one: one increasing unshuffle among k! unshuffles, so the
    # enumerator must not list the others
    blocks, ends = (1, 1, 3, 1, 2), (1, 2, 5, 6, 8)
    filtered = tuple(
        s for s in unshuffles(*blocks) if all(s[a - 1] < s[b - 1] for a, b in zip(ends, ends[1:]))
    )

    def refuse(blocks):
        raise AssertionError("listed every unshuffle")

    monkeypatch.setattr(graded, "_unshuffles", refuse)
    build = graded._increasing_unshuffles.__wrapped__
    assert build((1,) * 12) == (tuple(range(12)),)
    assert build(blocks) == filtered and len(filtered) == 42


def test_unshuffles_rejects_bad_blocks():
    with pytest.raises(ValueError):
        unshuffles(0, 2)
    with pytest.raises(ValueError):
        unshuffles()


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 3, 1))


@pytest.fixture
def mixed_space():
    return GradedSpace("W", [("a", 0), ("b", 1), ("c", 1), ("d", -2)])


def test_normalize_sorted_word(mixed_space):
    word = (0, 1, 2)
    assert mixed_space.normalize(word) == (word, 1)


def test_normalize_even_swap():
    space = GradedSpace("U", [("a", 0), ("b", 0)])
    assert space.normalize((1, 0)) == ((0, 1), 1)


def test_normalize_odd_swap():
    space = GradedSpace("U", [("a", 1), ("b", 1)])
    assert space.normalize((1, 0)) == ((0, 1), -1)


def test_normalize_idempotent(mixed_space):
    for word in itertools.product(range(mixed_space.dim), repeat=3):
        sorted_word, sign = mixed_space.normalize(word)
        again, again_sign = mixed_space.normalize(sorted_word)
        assert again == sorted_word and again_sign == (1 if sign else 0)


def test_normalize_sign_consistency(mixed_space):
    # sorting is realized by some permutation; on a word that does not
    # vanish its Koszul sign must match
    for word in itertools.product(range(mixed_space.dim), repeat=4):
        sorted_word, sign = mixed_space.normalize(word)
        assert sorted(word) == list(sorted_word)
        if not sign:
            continue
        degs = mixed_space.word_degrees(word)
        found = [
            koszul_sign(sigma, degs)
            for sigma in itertools.permutations(range(4))
            if permute(sigma, word) == sorted_word
        ]
        assert sign in found


def test_normalize_caches_its_result(mixed_space):
    # one shared cache entry per word, holding the canonical word and the
    # sign or 0, is all a second call reads
    twin = GradedSpace("W2", zip("pqrs", mixed_space.degrees))
    for word in ((2, 1, 0), (1, 3, 1)):
        result = mixed_space.normalize(word)
        assert twin._sort_cache[word] == result == twin.normalize(word)


def test_normalize_repeated_odd_vanishes(mixed_space):
    assert mixed_space.normalize((1, 1))[1] == 0
    assert mixed_space.normalize((0, 0))[1] == 1
    assert mixed_space.normalize((2, 1))[1] == -1


def test_canonical_words(mixed_space):
    words = list(mixed_space.canonical_words(2))
    assert (1, 1) not in words
    assert (2, 2) not in words
    assert (0, 0) in words
    assert all(tuple(sorted(w)) == w for w in words)


def test_space_rejects_duplicate_symbols():
    with pytest.raises(ValueError):
        GradedSpace("X", [("a", 0), ("a", 1)])


def test_shifted_space(mixed_space):
    up = shifted(mixed_space, 1)
    assert up.symbols == mixed_space.symbols
    assert up.degrees == tuple(d + 1 for d in mixed_space.degrees)
