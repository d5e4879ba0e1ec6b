"""Graded vector spaces, Koszul signs and unshuffle combinatorics.

Scalars are exact everywhere in this package: an ``int`` when integral and
a :class:`fractions.Fraction` only when not (:func:`linfty.multimap.exact`),
never a float; signs are plain ints.  A *word* over a space is a tuple of basis
indices.  A permutation of ``n`` slots is a tuple ``sigma`` of the images
``0..n-1`` acting on words by slot pull-back::

    permute(sigma, w)[j] == w[sigma[j]]

so the letter landing in output slot ``j`` comes from input slot
``sigma[j]``.  The Koszul sign of the move is the product of ``-1`` over
pairs of odd-degree letters whose relative order is inverted.

The three sums of the package's componentwise identities read their terms
from one ``lru_cache`` table per summation shape, keyed by the word shape
(the length and the letter parities) and the arities or blocks summed:
:func:`_symmetric_table` (the unshuffle-insertion sum of Lie-type structures
and morphisms), :func:`_anchored_table` (the anchored sum of Loday-type
structures, morphisms and embedding tensors) and :func:`_increasing_table`
(the block sum over increasing unshuffles on the right side of morphisms).
Each row holds a sign computed once and ``itemgetter`` gathers of the
blocks, so reading a term validates no permutation and counts no crossing;
the tables are this module's only interface to those sums.  The structure
and morphism checkers read from them the values of their first route, not
its words: each runs its sums once per check on the words that its second
route's composite kernel forms (:func:`linfty.multimap.lifted_composite`,
:func:`linfty.multimap.symmetric_composite`), and the every-word oracles in
``tests/`` check that word set.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]
Permutation = tuple[int, ...]

__all__ = [
    "GradedSpace",
    "Word",
    "Permutation",
    "compositions",
    "increasing_unshuffles",
    "is_permutation",
    "koszul_sign",
    "permute",
]


def is_permutation(sigma: Sequence[int]) -> bool:
    """True when ``sigma`` is a bijection of ``0..len(sigma)-1``."""
    n = len(sigma)
    seen = [False] * n
    for v in sigma:
        if not (0 <= v < n) or seen[v]:
            return False
        seen[v] = True
    return True


def permute(sigma: Permutation, word: Sequence) -> tuple:
    """Apply ``sigma`` to a word: output slot ``j`` gets ``word[sigma[j]]``."""
    return tuple(word[s] for s in sigma)


def koszul_sign(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Sign of reordering homogeneous letters of the given degrees by ``sigma``.

    With the slot convention above, the output word is
    ``(v_{sigma[0]}, ..., v_{sigma[n-1]})`` and each inverted pair of
    odd-degree letters contributes a factor of ``-1``.  Multiplicative:
    with ``tau_sigma = permute(sigma, tau)``, the slot map of "first tau,
    then sigma", ``koszul_sign(tau_sigma, d) ==
    koszul_sign(sigma, permute(tau, d)) * koszul_sign(tau, d)``.
    """
    n = len(sigma)
    if len(degrees) != n:
        raise ValueError("permutation and degree sequence have different lengths")
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma!r}")
    sign = 1
    for a in range(n):
        if degrees[sigma[a]] % 2 == 0:
            continue
        for b in range(a + 1, n):
            if sigma[a] > sigma[b] and degrees[sigma[b]] % 2:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def _unshuffles(blocks: tuple[int, ...]) -> tuple[Permutation, ...]:
    """Block-increasing permutations; zero-size blocks are permitted here.

    Enumeration order is lexicographic on the block-membership mask
    ``(block of value 0, block of value 1, ...)``, which makes outputs
    reproducible.
    """
    n = sum(blocks)
    k = len(blocks)
    masks: list[tuple[int, ...]] = []
    remaining = list(blocks)
    assign: list[int] = []

    def rec(v: int) -> None:
        if v == n:
            masks.append(tuple(assign))
            return
        for b in range(k):
            if remaining[b]:
                remaining[b] -= 1
                assign.append(b)
                rec(v + 1)
                assign.pop()
                remaining[b] += 1

    rec(0)
    perms = []
    for mask in masks:
        values: list[list[int]] = [[] for _ in range(k)]
        for v, b in enumerate(mask):
            values[b].append(v)
        perms.append(tuple(itertools.chain.from_iterable(values)))
    return tuple(perms)


@lru_cache(maxsize=None)
def _split_table(blocks: tuple[int, int], parities: tuple[int, ...]) -> tuple:
    """Each ``blocks``-unshuffle of letters of the given parities, as
    ``(sign, front_sign, sigma)``.

    ``sign`` is the Koszul sign of the move; ``front_sign`` is that sign
    times ``(-1)^{|first block|}``, the extra cost of moving a degree +1 map
    past the first block.  Both are computed once per key, so the sums that
    read this table never validate a permutation or count crossings.
    """
    out = []
    for sigma in _unshuffles(blocks):
        sign = koszul_sign(sigma, parities)
        odd = sum(parities[s] for s in sigma[: blocks[0]]) % 2
        out.append((sign, -sign if odd else sign, sigma))
    return tuple(out)


def _gather(slots: Sequence[int]) -> itemgetter:
    """An ``itemgetter`` reading the letters at ``slots`` of a word as a
    tuple: a slice when the slots are consecutive, as they are when there
    are fewer than two."""
    start = slots[0] if slots else 0
    if tuple(slots) == tuple(range(start, start + len(slots))):
        return itemgetter(slice(start, start + len(slots)))
    return itemgetter(*slots)


@lru_cache(maxsize=None)
def _symmetric_table(n: int, arities: tuple[int, ...], parities: tuple[int, ...]) -> tuple:
    """The terms of the unshuffle-insertion sum on ``n`` letters of the
    given parities, as rows ``(i, sign, front, block, tail)``.

    One row for each arity ``i`` (in the given order; arities above ``n``
    are skipped) and each ``(i, n-i)``-unshuffle: ``block`` gathers the
    first block of the reordered word and ``tail`` the rest, ``front``
    gathers nothing, and ``sign`` is the Koszul sign of the reordering.
    The gathers are those of :func:`_anchored_table`, so a sum reads both
    tables with one loop."""
    front = _gather(())
    return tuple(
        (i, sign, front, _gather(sigma[:i]), _gather(sigma[i:]))
        for i in arities
        if i <= n
        for sign, _, sigma in _split_table((i, n - i), parities)
    )


@lru_cache(maxsize=None)
def _anchored_table(n: int, arities: tuple[int, ...], parities: tuple[int, ...]) -> tuple:
    """The terms of the anchored (Zinbiel) sum on ``n`` letters of the
    given parities, as rows ``(k, sign, front, block, tail)``.

    One row for each inner arity ``k`` (in the given order), each front
    size ``i`` and each ``(i, k-1)``-unshuffle of the head, the first
    ``cut = i+k-1`` letters: ``front`` gathers the first block, ``block``
    the second block followed by the anchored letter at ``cut``, and
    ``tail`` the letters after it.  ``sign`` is the Koszul sign of the
    unshuffle times ``(-1)^{|front|}``, the cost of moving a degree +1 map
    past the front."""
    rows = []
    for k in arities:
        for i in range(n - k + 1):
            cut = i + k - 1
            tail = _gather(range(cut + 1, n))
            for _, sign, sigma in _split_table((i, k - 1), parities[:cut]):
                rows.append((k, sign, _gather(sigma[:i]), _gather(sigma[i:] + (cut,)), tail))
    return tuple(rows)


@lru_cache(maxsize=None)
def _increasing_unshuffles(blocks: tuple[int, ...]) -> tuple[Permutation, ...]:
    """Built from the last block back: it takes the largest value left and
    any ``b - 1`` of the others, and the blocks before it split the rest.
    Sorted into the block-membership-mask order of :func:`_unshuffles`."""

    def build(values: tuple[int, ...], k: int) -> Iterator[Permutation]:
        if k == 0:
            yield ()
            return
        *others, top = values
        for chosen in itertools.combinations(others, blocks[k - 1] - 1):
            rest = tuple(v for v in others if v not in chosen)
            for head in build(rest, k - 1):
                yield head + chosen + (top,)

    def mask(sigma: Permutation) -> list[int]:
        block_of = [0] * len(sigma)
        pos = 0
        for j, b in enumerate(blocks):
            for v in sigma[pos : pos + b]:
                block_of[v] = j
            pos += b
        return block_of

    return tuple(sorted(build(tuple(range(sum(blocks))), len(blocks)), key=mask))


def increasing_unshuffles(*block_sizes: int) -> tuple[Permutation, ...]:
    """Unshuffles whose block maxima increase left to right."""
    if not block_sizes or any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive integers")
    return _increasing_unshuffles(tuple(block_sizes))


@lru_cache(maxsize=None)
def _increasing_table(blocks: tuple[int, ...], parities: tuple[int, ...]) -> tuple:
    """Each increasing ``blocks``-unshuffle of letters of the given parities,
    as ``(sign, parts)``: ``parts`` gathers the letters of each block, and
    ``sign`` is the Koszul sign of the reordering."""
    cuts = tuple(itertools.accumulate(blocks, initial=0))
    return tuple(
        (koszul_sign(sigma, parities), tuple(_gather(sigma[a:b]) for a, b in zip(cuts, cuts[1:])))
        for sigma in increasing_unshuffles(*blocks)
    )


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Ordered tuples of positive integers summing to ``n``, lexicographic."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _canonical_words(degrees: tuple[int, ...], n: int) -> tuple[Word, ...]:
    """The ``n``-letter symmetric-algebra basis words over letters of the
    given degrees; see :meth:`GradedSpace.canonical_words`."""
    return tuple(
        w
        for w in itertools.combinations_with_replacement(range(len(degrees)), n)
        if not any(a == b and degrees[a] % 2 for a, b in zip(w, w[1:]))
    )


_SORT_CACHES: dict[tuple[int, ...], dict] = {}


class GradedSpace:
    """A finite ordered basis of homogeneous elements with integer degrees.

    The stored basis order is the canonical order used to normalise words
    in symmetric contexts.  Instances are immutable and compare by identity.
    A word's sort and its sign depend only on the degrees, so spaces with
    equal ``degrees`` share one sort cache (``_SORT_CACHES``), as they share
    the tables of :func:`_canonical_words`.
    """

    __slots__ = ("name", "symbols", "degrees", "_index", "_sort_cache")

    def __init__(self, name: str, basis: Iterable[tuple[str, int]]):
        basis = list(basis)
        symbols = tuple(sym for sym, _ in basis)
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate basis symbols in space {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "degrees", tuple(int(d) for _, d in basis))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})
        object.__setattr__(self, "_sort_cache", _SORT_CACHES.setdefault(self.degrees, {}))

    def __setattr__(self, *_):
        raise AttributeError("GradedSpace is immutable")

    def __repr__(self) -> str:
        pairs = ", ".join(f"{s}:{d}" for s, d in zip(self.symbols, self.degrees))
        return f"GradedSpace({self.name!r}; {pairs})"

    @property
    def dim(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r} in space {self.name!r}") from None

    def word_degrees(self, word: Word) -> tuple[int, ...]:
        return tuple(self.degrees[i] for i in word)

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[i] for i in word)

    def normalize(self, word: Word) -> tuple[Word, int]:
        """Canonical word and the Koszul sign of the sort; sign 0 when the
        symmetric class vanishes, as a word with a repeated odd-degree
        letter does over a field of characteristic zero.  Each word's
        result is computed once and kept in the shared sort cache."""
        cached = self._sort_cache.get(word)
        if cached is not None:
            return cached
        sigma = tuple(sorted(range(len(word)), key=lambda j: (word[j], j)))
        norm = permute(sigma, word)
        vanishes = any(a == b and self.degrees[a] % 2 for a, b in zip(norm, norm[1:]))
        sign = 0 if vanishes else koszul_sign(sigma, self.word_degrees(word))
        result = self._sort_cache[word] = (norm, sign)
        return result

    def words(self, length: int) -> Iterator[Word]:
        """All ordered words of the given length (tensor-algebra basis)."""
        return itertools.product(range(self.dim), repeat=length)

    def canonical_words(self, length: int) -> tuple[Word, ...]:
        """Sorted words with no repeated odd letter (symmetric-algebra basis),
        in lexicographic order: a tuple from the ``lru_cache`` table
        :func:`_canonical_words`, shared by every space with these degrees."""
        return _canonical_words(self.degrees, length)

    def words_up_to(self, bound: int) -> Iterator[Word]:
        for n in range(1, bound + 1):
            yield from self.words(n)

    def canonical_words_up_to(self, bound: int) -> Iterator[Word]:
        for n in range(1, bound + 1):
            yield from self.canonical_words(n)

    def format_word(self, word: Word) -> str:
        return ",".join(self.symbols[i] for i in word)

