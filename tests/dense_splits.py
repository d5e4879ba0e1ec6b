"""The terms of the three componentwise sums, enumerated slot by slot.

A test oracle for the split tables of :mod:`linfty.graded`
(``_symmetric_table``, ``_anchored_table`` and ``_increasing_table``), whose
rows read on a word give the same terms.  It picks the slots of each moved
block with ``itertools.combinations`` and counts the odd-odd crossings
itself, so it shares no unshuffle table, Koszul sign or permutation code
with the package.  :func:`dense_anchored_value` sums the anchored identity
of a structure on one word from these terms and ``MultiMap.eval``, and
:func:`dense_symmetric_value` the symmetric one;
:func:`every_canonical_word_residuals` is the symmetric one on every
canonical word up to a bound, as a report's residual list.
"""
from __future__ import annotations

import itertools

from linfty.multimap import merge_into
from linfty.report import Residual, format_vector


def _crossing_sign(parities, moved, stays) -> int:
    """``-1`` to the number of odd letters in ``stays`` that an odd letter
    of ``moved`` passes on its way to the front."""
    flips = sum(1 for a in moved for b in stays if b < a and parities[a] and parities[b])
    return -1 if flips % 2 else 1


def dense_symmetric_splits(space, word, arities):
    """``(sign, block, rest)``: ``block`` is any ``i`` letters of ``word``
    moved to the front in their order, ``rest`` the others."""
    n = len(word)
    parities = [space.degrees[x] % 2 for x in word]
    for i in arities:
        if i > n:
            continue
        for chosen in itertools.combinations(range(n), i):
            rest = [s for s in range(n) if s not in chosen]
            yield (
                _crossing_sign(parities, chosen, rest),
                tuple(word[s] for s in chosen),
                tuple(word[s] for s in rest),
            )


def dense_anchored_splits(space, word, arities):
    """``(sign, front, block, tail)``: for inner arity ``k`` and front size
    ``i``, ``front`` is any ``i`` letters of the first ``i + k - 1``, and
    ``block`` the other ``k - 1`` followed by the anchored letter after
    them.  The sign also counts the odd letters of ``front``, which a
    degree +1 map passes."""
    n = len(word)
    parities = [space.degrees[x] % 2 for x in word]
    for k in arities:
        for i in range(n - k + 1):
            head = range(i + k - 1)
            for front in itertools.combinations(head, i):
                inner = [s for s in head if s not in front]
                sign = _crossing_sign(parities, front, inner)
                if sum(parities[s] for s in front) % 2:
                    sign = -sign
                yield (
                    sign,
                    tuple(word[s] for s in front),
                    tuple(word[s] for s in inner) + (word[i + k - 1],),
                    tuple(word[i + k :]),
                )


def dense_symmetric_value(structure, word):
    """``sum sign * l_{n-i+1}(l_i(block), rest)`` over the oracle's symmetric
    splits of ``word``, each bracket read through ``MultiMap.eval``."""
    brackets, n, acc = structure.brackets, len(word), {}
    for sign, block, rest in dense_symmetric_splits(structure.space, word, range(1, n + 1)):
        inner, outer = brackets.get(len(block)), brackets.get(n - len(block) + 1)
        if inner is not None and outer is not None:
            for b, c in inner.eval(block).items():
                merge_into(acc, outer.eval((b,) + rest), sign * c)
    return acc


def every_canonical_word_residuals(structure, bound):
    """The sorted residual list of :func:`dense_symmetric_value` on every
    canonical word up to ``bound``, the words read from
    ``itertools.combinations_with_replacement``."""
    space, items = structure.space, []
    for n in range(1, bound + 1):
        for word in itertools.combinations_with_replacement(range(space.dim), n):
            if space.normalize(word) != (word, 1):
                continue
            value = dense_symmetric_value(structure, word)
            if value:
                items.append(Residual(n, space.format_word(word), format_vector(space, value)))
    return sorted(items)


def dense_anchored_value(structure, word):
    """``sum sign * l_{n-k+1}(front, l_k(block), tail)`` over the oracle's
    anchored splits of ``word``, each bracket read through ``MultiMap.eval``."""
    brackets, n, acc = structure.brackets, len(word), {}
    for sign, front, block, tail in dense_anchored_splits(structure.space, word, range(1, n + 1)):
        inner, outer = brackets.get(len(block)), brackets.get(n - len(block) + 1)
        if inner is not None and outer is not None:
            for b, c in inner.eval(block).items():
                merge_into(acc, outer.eval(front + (b,) + tail), sign * c)
    return acc


def _block_choices(free, sizes):
    """Each way of giving the blocks, in order, ``sizes`` of the ``free``
    slots, as a tuple of increasing slot tuples."""
    if not sizes:
        yield ()
        return
    for chosen in itertools.combinations(free, sizes[0]):
        left = [s for s in free if s not in chosen]
        for more in _block_choices(left, sizes[1:]):
            yield (chosen,) + more


def dense_increasing_splits(space, word, blocks):
    """``(sign, parts)``: each block takes any of the slots the blocks before
    it left, and a choice counts when the blocks' largest slots increase
    left to right.  The sign counts the odd-odd pairs that the concatenated
    slot order inverts."""
    parities = [space.degrees[x] % 2 for x in word]
    for slots in _block_choices(range(len(word)), list(blocks)):
        if any(a[-1] > b[-1] for a, b in zip(slots, slots[1:])):
            continue
        order = [s for part in slots for s in part]
        flips = sum(
            1
            for i, a in enumerate(order)
            for b in order[i + 1 :]
            if a > b and parities[a] and parities[b]
        )
        yield -1 if flips % 2 else 1, tuple(tuple(word[s] for s in part) for part in slots)
