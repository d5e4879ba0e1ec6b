"""Law checkers and small helpers that only the tests read.

The co-Leibniz defect of a coderivation, the coproduct defect of a
comorphism, the twist of a pair sum, the identity comorphism, the
exponential of a degree-0 coderivation, the strict and symmetric flags of
an embedding tensor, an element's rows as a dict, and a seeded random
vector.
"""
from __future__ import annotations

import random
from fractions import Fraction

from linfty.corpus import SMALL_FRACTIONS
from linfty.graded import GradedSpace, Word
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    ZINBIEL,
    MultiMap,
    PairSum,
    TruncatedCoderivation,
    TruncatedComorphism,
    Vector,
    WordSum,
    add_into,
    coshuffle_coproduct,
    lift_comorphism,
    merge_into,
    symmetrize,
    zinbiel_coproduct,
)
from linfty.report import InputError, RouteDisagreement
from linfty.tensor import _SERIES_SLACK, EmbeddingTensor, HomElement


def check_coleibniz(cod: TruncatedCoderivation) -> dict[Word, PairSum]:
    """Defect of the co-Leibniz identity against the ambient coproduct.

    Returns the nonzero rows of ``Delta Q - (Q x Id + Id x Q) Delta``
    over all words up to the bound; empty means the identity holds.
    """
    if cod.coalgebra == SYMMETRIC:
        coproduct, words = coshuffle_coproduct, cod.space.canonical_words_up_to(cod.bound)
    else:
        coproduct, words = zinbiel_coproduct, cod.space.words_up_to(cod.bound)
    defects: dict[Word, PairSum] = {}
    parity = cod.degree % 2
    for w in words:
        lhs: PairSum = {}
        for u, c in cod.apply_word(w).items():
            merge_into(lhs, coproduct(cod.space, u), c)
        rhs: PairSum = {}
        for (a, b), c in coproduct(cod.space, w).items():
            for u, cu in cod.apply_word(a).items():
                add_into(rhs, (u, b), c * cu)
            sign = -1 if (parity and cod.space.word_degree(a) % 2) else 1
            for u, cu in cod.apply_word(b).items():
                add_into(rhs, (a, u), sign * c * cu)
        diff = dict(lhs)
        for k, v in rhs.items():
            add_into(diff, k, -v)
        if diff:
            defects[w] = diff
    return defects


def check_intertwines_coproduct(com: TruncatedComorphism) -> dict[Word, PairSum]:
    """Defect of ``Delta F - (F x F) Delta`` over all words <= bound."""
    if com.flavor == SYMMETRIC:
        coproduct, words = coshuffle_coproduct, com.source.canonical_words_up_to(com.bound)
    else:
        coproduct, words = zinbiel_coproduct, com.source.words_up_to(com.bound)
    defects: dict[Word, PairSum] = {}
    for w in words:
        lhs: PairSum = {}
        for u, c in com.apply_word(w).items():
            merge_into(lhs, coproduct(com.target, u), c)
        rhs: PairSum = {}
        for (a, b), c in coproduct(com.source, w).items():
            fa = com.apply_word(a)
            fb = com.apply_word(b)
            for ua, ca in fa.items():
                for ub, cb in fb.items():
                    add_into(rhs, (ua, ub), c * ca * cb)
        diff = dict(lhs)
        for k, v in rhs.items():
            add_into(diff, k, -v)
        if diff:
            defects[w] = diff
    return defects


def twist_pairsum(space: GradedSpace, pairs: PairSum) -> PairSum:
    """Apply the twist map ``a (x) b -> (-1)^{|a||b|} b (x) a``."""
    out: PairSum = {}
    for (a, b), c in pairs.items():
        sign = -1 if (space.word_degree(a) % 2 and space.word_degree(b) % 2) else 1
        add_into(out, (b, a), sign * c)
    return out


def identity_comorphism(space: GradedSpace, bound: int, flavor: str = ZINBIEL):
    ident = MultiMap(
        space, space, 1, 0, PLAIN, {(i,): {i: Fraction(1)} for i in range(space.dim)}
    )
    return lift_comorphism(space, space, {1: ident}, bound, flavor)


def coderivation_exponential(
    coderivation: TruncatedCoderivation, bound: int
) -> dict[Word, WordSum]:
    """Word-by-word exponential series of a degree-0 coderivation."""
    if coderivation.degree != 0:
        raise InputError("only degree-0 coderivations exponentiate to comorphisms")
    rows: dict[Word, WordSum] = {}
    for w in coderivation.space.words_up_to(bound):
        acc: WordSum = {w: Fraction(1)}
        term: WordSum = {w: Fraction(1)}
        factorial = Fraction(1)
        step = 0
        while term:
            step += 1
            factorial *= step
            term = coderivation.apply_sum(term)
            merge_into(acc, term, Fraction(1) / factorial)
            if step > 2 * bound + _SERIES_SLACK:
                raise RouteDisagreement("coderivation exponential did not stabilize")
        rows[w] = acc
    return rows


def is_strict(tensor: EmbeddingTensor) -> bool:
    """Whether the tensor has only a unary component."""
    return all(k == 1 for k in tensor.components)


def is_symmetric(tensor: EmbeddingTensor) -> bool:
    """Whether every component equals its graded symmetrization."""
    for f in tensor.components.values():
        sym = symmetrize(f)
        for w in tensor.v_space.words(f.arity):
            if f.eval(w) != sym.eval(w):
                return False
    return True


def as_dict(element: HomElement) -> dict[Word, Vector]:
    return {w: dict(vec) for w, vec in element.rows}


def random_vector(space: GradedSpace, degree: int, rng: random.Random) -> Vector:
    out: Vector = {}
    for i in range(space.dim):
        if space.degrees[i] == degree and rng.random() < 0.7:
            out[i] = rng.choice(SMALL_FRACTIONS)
    return out
