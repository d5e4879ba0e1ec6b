"""Word-by-word coderivation lifts, kept as a test oracle.

These visit every word up to the bound and, on each one, try every inner
arity, front size and unshuffle, exactly as the coderivation formula reads
forwards.  The package builds its lifts from the support of the restriction
maps instead; the oracle tests check the two agree row for row.  The square
of the word-by-word Zinbiel lift is the oracle of ``zinbiel_square``, which
forms only the lift entries the restrictions read.  The commutator series of
full lifts, composed row by row, is the oracle of the series the package
runs on restriction families.  The comorphism that visits every source
word, reading its blocks from ``dense_splits.dense_increasing_splits``, is
the oracle of ``lift_comorphism``, which places the components' keys.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from dense_splits import dense_increasing_splits
from linfty.graded import GradedSpace, Word, _unshuffles, koszul_sign, permute, unshuffles
from linfty.homotopy import _square_restrictions
from linfty.multimap import (
    SYMMETRIC,
    ZINBIEL,
    MultiMap,
    TruncatedCoderivation,
    TruncatedComorphism,
    Vector,
    WordSum,
    _common_degree,
    add_into,
    commutator,
)
from linfty.report import RouteDisagreement
from linfty.tensor import _SERIES_SLACK


def dense_symmetric_lift(
    space: GradedSpace, restrictions: Mapping[int, MultiMap], bound: int
) -> TruncatedCoderivation:
    """On a canonical word, sum over (k, n-k)-unshuffles the inner map
    applied to the first block times the remaining letters."""
    degree = _common_degree(restrictions)
    rows: dict[Word, WordSum] = {}
    arities = sorted(k for k, f in restrictions.items() if not f.is_zero())
    for n in range(1, bound + 1):
        for w in space.canonical_words(n):
            degs = space.word_degrees(w)
            acc: WordSum = {}
            for k in arities:
                if k > n:
                    break
                f = restrictions[k]
                for sigma in unshuffles(k, n - k) if k < n else ((tuple(range(n)),)):
                    eps = koszul_sign(sigma, degs)
                    pw = permute(sigma, w)
                    inner = f.eval(pw[:k])
                    if not inner:
                        continue
                    rest = pw[k:]
                    for b, c in inner.items():
                        norm, s2 = space.normalize((b,) + rest)
                        if s2:
                            add_into(acc, norm, eps * s2 * c)
            if acc:
                rows[w] = acc
    return TruncatedCoderivation(space, bound, degree, SYMMETRIC, rows)


def dense_zinbiel_lift(
    space: GradedSpace, restrictions: Mapping[int, MultiMap], bound: int
) -> TruncatedCoderivation:
    """For each inner arity ``k`` and front size ``i``, unshuffle slots
    ``0..i+k-2`` into the front block and the inner arguments; the inner map
    absorbs the anchored letter at slot ``i+k-1``."""
    degree = _common_degree(restrictions)
    parity = degree % 2
    rows: dict[Word, WordSum] = {}
    arities = sorted(k for k, f in restrictions.items() if not f.is_zero())
    for n in range(1, bound + 1):
        for w in space.words(n):
            acc: WordSum = {}
            for k in arities:
                if k > n:
                    break
                f = restrictions[k]
                for i in range(0, n - k + 1):
                    head = w[: i + k - 1]
                    degs = space.word_degrees(head)
                    anchored = w[i + k - 1]
                    tail = w[i + k:]
                    for sigma in _unshuffles((i, k - 1)):
                        eps = koszul_sign(sigma, degs)
                        pw = permute(sigma, head)
                        inner = f.eval(pw[i:] + (anchored,))
                        if not inner:
                            continue
                        front = pw[:i]
                        sign = eps
                        if parity and space.word_degree(front) % 2:
                            sign = -sign
                        for b, c in inner.items():
                            add_into(acc, front + (b,) + tail, sign * c)
            if acc:
                rows[w] = acc
    return TruncatedCoderivation(space, bound, degree, ZINBIEL, rows)


def dense_zinbiel_square(
    space: GradedSpace, restrictions: Mapping[int, MultiMap], bound: int
) -> dict[Word, Vector]:
    """The restrictions applied to every entry of every row of the
    word-by-word Zinbiel lift: the single-letter components of its square."""
    return _square_restrictions(restrictions, dense_zinbiel_lift(space, restrictions, bound))


def dense_ad_series(
    start: TruncatedCoderivation, t: TruncatedCoderivation, bound: int, include_start: bool
) -> TruncatedCoderivation:
    """``sum_m [..[start, t].., t] / m!`` from full commutators of the lifts,
    each composing every row; stabilization asserted."""
    acc = start if include_start else start.scale(Fraction(0))
    term = start
    factorial = Fraction(1)
    step = 0
    while not term.is_zero():
        step += 1
        factorial *= step
        term = commutator(term, t)
        acc = acc.add(term.scale(Fraction(1) / factorial))
        if step > 2 * bound + _SERIES_SLACK:
            raise RouteDisagreement("commutator series did not stabilize")
    return acc


def dense_comorphism(
    source: GradedSpace,
    target: GradedSpace,
    components: Mapping[int, MultiMap],
    bound: int,
    flavor: str,
) -> TruncatedComorphism:
    """On every source word (every canonical one in the symmetric flavor),
    sum over the compositions ``(k_1, ..., k_j)`` of its length and the
    increasing splits into blocks of those sizes the words whose letters
    are the component values on the blocks, with the split's sign; in the
    symmetric flavor each word is sorted with its Koszul sign."""
    rows: dict[Word, WordSum] = {}
    words = source.canonical_words_up_to if flavor == SYMMETRIC else source.words_up_to
    for w in words(bound):
        acc: WordSum = {}
        for comp in _compositions(len(w)):
            maps = [components.get(k) for k in comp]
            if None in maps:
                continue
            for sign, parts in dense_increasing_splits(source, w, comp):
                values = [f.eval(part) for f, part in zip(maps, parts)]
                for letters in itertools.product(*(v.items() for v in values)):
                    u = tuple(b for b, _ in letters)
                    c = Fraction(sign)
                    for _, cb in letters:
                        c *= cb
                    if flavor == SYMMETRIC:
                        u, s = target.normalize(u)
                        c *= s
                    add_into(acc, u, c)
        if acc:
            rows[w] = acc
    return TruncatedComorphism(source, target, bound, flavor, dict(components), rows)


def _compositions(n: int):
    """Ordered tuples of positive integers summing to ``n``."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest
