"""The terms of the two double sums, enumerated slot by slot.

A test oracle for :func:`linfty.graded.symmetric_splits` and
:func:`linfty.graded.anchored_splits`.  It picks the slots of the moved
block with ``itertools.combinations`` and counts the odd-odd crossings
itself, so it shares no unshuffle table, Koszul sign or permutation code
with the package.
"""
from __future__ import annotations

import itertools


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
