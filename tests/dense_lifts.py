"""Word-by-word coderivation lifts, kept as a test oracle.

These visit every word up to the bound and, on each one, try every inner
arity, front size and unshuffle, exactly as the coderivation formula reads
forwards.  The package builds its lifts from the support of the restriction
maps instead; the oracle tests check the two agree row for row.
``_square_restrictions`` applies a family to every entry of every row of a
lift: over the word-by-word Zinbiel lift it is the oracle of
``lifted_composite``, and over the word-by-word symmetric lift that of
``symmetric_composite``, each of which forms only the lift entries the
outer family reads.  ``assert_composite_matches``
holds such a kernel to it: equal nonzero values, and a formed word at every
row where the family reads an entry, since the checkers sum their first
route on exactly the words their kernel forms.  The action axiom, which the
package forms as the square of the semidirect brackets, and the coherence
commutators, which it forms as brackets of restriction families, are
checked against sums and commutators of the word-by-word symmetric lifts
of the action's families (``dense_actions.py``).  The commutator series of
full lifts, composed row by row, is the oracle of the series the package
runs on restriction families.  The deformation complex's brackets, its
``d1`` columns and its Maurer-Cartan residuals run on restriction families
too; their references are the projected chains ``P([..[S, a_1].., a_k])``
and series of the word-by-word lifts, composed by ``commutator``.  The
comorphism that visits every source word, reading its blocks from
``dense_splits.dense_increasing_splits``, is the oracle of
``lift_comorphism``, which places the components' keys.  The
corestriction ``p'(F Q - Q' F)`` of a comorphism's intertwining defect,
formed on every source word from these full lifts, ``dense_defect``, is the
oracle of the morphism checkers, into End(V) for a representation.  The
descendent structure that visits every target word and feeds the dense
comorphism image of each proper prefix into the action,
``dense_descendent``, is the oracle of ``tensor.descendent``, which visits
only its candidate words.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from dense_splits import dense_increasing_splits
from laws import action_value, maps_by_arity, unshuffles
from linfty.graded import GradedSpace, Word, _unshuffles, koszul_sign, permute
from linfty.homotopy import HomotopyStructure
from linfty.multimap import (
    PLAIN,
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
    merge_into,
)
from linfty.report import RouteDisagreement
from linfty.tensor import _SERIES_SLACK
from paper import HomElement, eval_bracket


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
    absorbs the anchored letter at slot ``i+k-1``.  A ``(k, i)`` whose
    anchored letter ends no key of the map is skipped: every term of it
    vanishes."""
    degree = _common_degree(restrictions)
    parity = degree % 2
    rows: dict[Word, WordSum] = {}
    arities = sorted(k for k, f in restrictions.items() if not f.is_zero())
    ends = {k: {u[-1] for u in restrictions[k].expand_plain().constants} for k in arities}
    for n in range(1, bound + 1):
        for w in space.words(n):
            acc: WordSum = {}
            for k in arities:
                if k > n:
                    break
                f = restrictions[k]
                for i in range(0, n - k + 1):
                    anchored = w[i + k - 1]
                    if anchored not in ends[k]:
                        continue
                    head = w[: i + k - 1]
                    degs = space.word_degrees(head)
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


def _square_restrictions(
    brackets: Mapping[int, MultiMap], lifted: TruncatedCoderivation
) -> dict[Word, Vector]:
    """Single-letter components of the composite of ``brackets`` after the
    lifted coderivation, read from every row of the lift."""
    out: dict[Word, Vector] = {}
    for w, row in lifted.rows.items():
        acc: Vector = {}
        for u, c in row.items():
            f = brackets.get(len(u))
            if f is not None:
                value, sign = f.lookup(u)
                if value:
                    merge_into(acc, value, c if sign > 0 else -c)
        if acc:
            out[w] = acc
    return out


def assert_composite_matches(
    formed: Mapping[Word, Vector], brackets: Mapping[int, MultiMap], lifted: TruncatedCoderivation
) -> dict[Word, Vector]:
    """A composite kernel's output ``formed`` against ``brackets`` applied to
    every row of ``lifted``: its nonzero values must be
    :func:`_square_restrictions`, and its keys must hold every row with an
    entry that ``brackets`` read, also where those terms cancel.  Returns
    the nonzero values."""
    expected = _square_restrictions(brackets, lifted)
    assert {w: v for w, v in formed.items() if v} == expected
    read = {
        w
        for w, row in lifted.rows.items()
        for u in row
        if len(u) in brackets and brackets[len(u)].lookup(u)[0]
    }
    assert read <= set(formed), sorted(read - set(formed))
    return expected


def dense_ad_series(
    start: TruncatedCoderivation, t: TruncatedCoderivation, bound: int, include_start: bool
) -> TruncatedCoderivation:
    """``sum_m [..[start, t].., t] / m!`` from full commutators of the lifts,
    each composing every row; stabilization asserted."""
    acc = start if include_start else TruncatedCoderivation(
        start.space, start.bound, start.degree, start.coalgebra, {}
    )
    term = start
    factorial = Fraction(1)
    step = 0
    while not term.is_zero():
        step += 1
        factorial *= step
        term = commutator(term, t)
        acc = acc.add(term, Fraction(1) / factorial)
        if step > 2 * bound + _SERIES_SLACK:
            raise RouteDisagreement("commutator series did not stabilize")
    return acc


def _product_lift(hemi, table: Mapping[Word, Vector], degree: int, bound: int):
    """The word-by-word lift of target-to-acting maps ``{v word: vector}``
    as a family on the product ``hemi``."""
    space = hemi.space
    rows = {hemi.from_v_word(w): dict(vec) for w, vec in table.items()}
    return dense_zinbiel_lift(space, maps_by_arity(space, space, degree, PLAIN, rows), bound)


def dense_twisted(tensor, hemi, bound: int) -> TruncatedCoderivation:
    """The codifferential of the product ``hemi`` twisted by the tensor,
    ``sum_m [..[Q, T].., T] / m!``, from the word-by-word lifts of the
    product's brackets and of the tensor's components."""
    table = {
        w: vec
        for k, f in tensor.components.items()
        if k <= bound
        for w, vec in f.constants.items()
    }
    q = dense_zinbiel_lift(hemi.space, hemi.structure.brackets, bound)
    return dense_ad_series(q, _product_lift(hemi, table, 0, bound), bound, True)


def projected(hemi, cod: TruncatedCoderivation, degree: int) -> HomElement:
    """The length-one acting part of each pure-target row of ``cod``."""
    rows: dict[Word, Vector] = {}
    for w, row in cod.rows.items():
        if all(x >= hemi.v_offset for x in w):
            vec = {u[0]: c for u, c in row.items() if len(u) == 1 and u[0] < hemi.v_offset}
            if vec:
                rows[hemi.to_v_word(w)] = vec
    return HomElement.from_rows(degree, rows)


def dense_chain(hemi, start: TruncatedCoderivation, elements, bound: int) -> HomElement:
    """``P([..[S, a_1].., a_k])`` for the full coderivation ``S`` and the
    word-by-word lifts of the elements, each bracket a ``commutator``."""
    chain = start
    for a in elements:
        chain = commutator(chain, _product_lift(hemi, dict(a.rows), a.degree, bound))
    return projected(hemi, chain, start.degree + sum(a.degree for a in elements))


def dense_mc_residual(hemi, twisted: TruncatedCoderivation, element, bound: int) -> HomElement:
    """``P sum_{m >= 1} [..[T, A].., A] / m!`` for the full twisted
    codifferential ``T`` and the word-by-word lift ``A`` of the element."""
    lifted = _product_lift(hemi, dict(element.rows), element.degree, bound)
    return projected(hemi, dense_ad_series(twisted, lifted, bound, False), 1)


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


def dense_defect(components, source, target, bound, flavor):
    """``p'(F Q - Q' F)`` on every source word, from full word-by-word lifts."""
    lift = dense_symmetric_lift if flavor == SYMMETRIC else dense_zinbiel_lift
    space, tspace = source.space, target.space
    com = dense_comorphism(space, tspace, components, bound, flavor).rows
    q = lift(space, source.brackets, bound).rows
    q_target = lift(tspace, target.brackets, bound).rows
    words = space.canonical_words_up_to if flavor == SYMMETRIC else space.words_up_to
    out = {}
    for w in words(bound):
        acc = {}
        for u, c in q.get(w, {}).items():
            for v, cv in com.get(u, {}).items():
                if len(v) == 1:
                    add_into(acc, v[0], c * cv)
        for v, c in com.get(w, {}).items():
            for x, cx in q_target.get(v, {}).items():
                if len(x) == 1:
                    add_into(acc, x[0], -c * cx)
        if acc:
            out[w] = acc
    return out


def dense_descendent(tensor, action, bound: int):
    """On every target word of length 2 to ``bound``, the target bracket
    plus the action of the dense comorphism image of each proper prefix on
    the rest of the word; the unary bracket is the target's own."""
    V, vspace = action.V, action.V.space
    # a proper prefix is at most bound - 1 letters long
    com = dense_comorphism(vspace, action.E.space, tensor.components, bound - 1, ZINBIEL).rows
    brackets = {1: V.bracket(1)} if V.bracket(1) is not None else {}
    for n in range(2, bound + 1):
        table = {}
        for w in vspace.words(n):
            acc = eval_bracket(V, n, w)
            for k in range(1, n):
                for ue, ce in com.get(w[:k], {}).items():
                    merge_into(acc, action_value(action, ue, w[k:]), ce)
            if acc:
                table[w] = acc
        if table:
            brackets[n] = MultiMap(vspace, vspace, n, 1, PLAIN, table)
    return HomotopyStructure(vspace, PLAIN, brackets, max(bound, V.max_arity))


def _compositions(n: int):
    """Ordered tuples of positive integers summing to ``n``."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest
