"""The action axiom and coherence, word by word from full lifts.

A test oracle for :func:`linfty.action.check_action` and
:func:`linfty.action.check_coherence`.  It reads the action's own data,
with its ``Fraction`` constants as they are: the package clears their
denominators first and divides its residuals back for the report, so on a
fractional action the two meet only if that scale is right.  The bracket
side of the axiom visits every target word and reads its terms from
``dense_splits.dense_symmetric_splits`` and the components through
``BiMultiMap.eval``; the coderivation side and the coherence commutators
are commutators of the word-by-word symmetric lifts
(``dense_lifts.dense_symmetric_lift``) of the families, over
``dense_splits.dense_increasing_splits``.  Every family of those
commutators, ``phi_x`` as well as the adjoint and mixed ones, is formed
here too, by evaluating a bracket or a component on every canonical probe
word (:func:`dense_ad_family`, :func:`dense_mixed_family`), so the oracle
shares none of the package's key-driven construction.  Each residual list
is a report's: sorted ``Residual`` triples.  The hemisemidirect product's
brackets are read here on every ordered word of the direct sum
(:func:`dense_hemi_brackets`), and the components of a structure acting on
itself on every canonical pair of an acting and a target word
(:func:`dense_adjoint_components`).
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from dense_lifts import dense_symmetric_lift
from dense_splits import dense_increasing_splits, dense_symmetric_splits
from laws import action_value, restriction_vector, restrictions
from linfty.multimap import SYMMETRIC, MultiMap, commutator, merge_into
from linfty.report import Residual, format_vector
from paper import eval_bracket


def _every_word_family(vspace, degree, arities, value):
    """The family ``w -> value(w)`` on every canonical target word ``w`` of
    the given arities, as maps by arity; empty maps are dropped."""
    out = {}
    for n in arities:
        table = {w: vec for w in vspace.canonical_words(n) if (vec := value(w))}
        if table:
            out[n] = MultiMap(vspace, vspace, n, degree, SYMMETRIC, table)
    return out


def dense_ad_family(action, vword, bound):
    """``w -> l(vword, w)``, each value read through ``MultiMap.eval``."""
    V = action.V
    arities = [n for n in range(1, bound + 1) if V.bracket(len(vword) + n) is not None]
    return _every_word_family(
        V.space,
        1 + V.space.word_degree(vword),
        arities,
        lambda w: V.bracket(len(vword) + len(w)).eval(vword + w),
    )


def dense_mixed_family(action, xw, vword, bound):
    """``w -> value(xw; vword.w)``, each value read through
    ``BiMultiMap.eval``; ``phi_x`` for an empty ``vword``."""
    degree = 1 + action.E.space.word_degree(xw) + action.V.space.word_degree(vword)
    arities = [n for n in range(1, bound + 1) if (len(xw), len(vword) + n) in action.components]
    return _every_word_family(
        action.V.space,
        degree,
        arities,
        lambda w: action.components[len(xw), len(vword) + len(w)].eval(xw, vword + w),
    )


def dense_action_lhs(action, xw, bound):
    """``sum sign * value(l_k(block), rest; v)`` over the oracle's symmetric
    splits of ``xw``, on every canonical target word ``v`` up to ``bound``,
    each component read through ``BiMultiMap.eval``."""
    E, vspace, n, lhs = action.E, action.V.space, len(xw), {}
    for sign, block, rest in dense_symmetric_splits(E.space, xw, range(1, n + 1)):
        lk = E.bracket(len(block))
        if lk is None:
            continue
        for b, c in lk.eval(block).items():
            for vw in vspace.canonical_words_up_to(bound):
                comp = action.components.get((n - len(block) + 1, len(vw)))
                if comp is not None:
                    merge_into(lhs.setdefault(vw, {}), comp.eval((b,) + rest, vw), sign * c)
    return {vw: v for vw, v in lhs.items() if v}


def dense_action_rhs(action, xw, bound):
    """``-[M, Phi_x] + sum eps (-1)^{|Phi_a|} [Phi_a, Phi_b]`` on the
    word-by-word lifts, over the oracle's increasing splits, length-one part
    by target word."""
    V = action.V

    def lift(family):
        return dense_symmetric_lift(V.space, family, bound)

    def phi(x):
        return lift(dense_mixed_family(action, x, (), bound))

    terms = [(-1, lift(V.brackets), phi(xw))]
    n = len(xw)
    for j in range(1, n):
        for eps, (xa, xb) in dense_increasing_splits(action.E.space, xw, (j, n - j)):
            sign = eps if (1 + action.E.space.word_degree(xa)) % 2 == 0 else -eps
            terms.append((sign, phi(xa), phi(xb)))
    out = {}
    for sign, a, b in terms:
        for f in restrictions(commutator(a, b)).values():
            for w, vec in f.constants.items():
                merge_into(out.setdefault(w, {}), vec, Fraction(sign))
    return {w: vec for w, vec in out.items() if vec}


def dense_action_residuals(action, bound):
    """The residual list of the action axiom: bracket side less coderivation
    side on every canonical acting word and target word up to ``bound``, the
    acting words read from ``itertools.combinations_with_replacement``."""
    espace, vspace, items = action.E.space, action.V.space, []
    for n in range(1, bound + 1):
        for xw in itertools.combinations_with_replacement(range(espace.dim), n):
            if espace.normalize(xw) != (xw, 1):
                continue
            diff = dense_action_lhs(action, xw, bound)
            for vw, vec in dense_action_rhs(action, xw, bound).items():
                merge_into(diff.setdefault(vw, {}), vec, -1)
            for vw, vec in diff.items():
                if vec:
                    word = f"{espace.format_word(xw)} ; {vspace.format_word(vw)}"
                    items.append(Residual(n, word, format_vector(vspace, vec)))
    return sorted(items)


def dense_coherence_residuals(action, bound):
    """Each nonzero length-one output of ``[ad_v, phi_y]`` on ``w`` with
    ``|v|+|y|+|w| <= bound`` and of ``[mixed(x, v), phi_y]`` on ``w`` with
    ``|x|+|v|+|y|+|w| <= bound``, from the commutator of the word-by-word
    lifts of the families, as a sorted residual list."""
    espace, vspace = action.E.space, action.V.space
    ewords = list(espace.canonical_words_up_to(bound))
    vwords = list(vspace.canonical_words_up_to(bound))

    def lift(family):
        return dense_symmetric_lift(vspace, family, bound)

    # a first family needs room for an acting word and a probe word
    firsts = [
        (f"ad {vspace.format_word(v)}", len(v), lift(dense_ad_family(action, v, bound)))
        for v in vwords
        if len(v) + 2 <= bound
    ]
    firsts += [
        (f"{espace.format_word(x)} ; {vspace.format_word(v)}", len(x) + len(v),
         lift(dense_mixed_family(action, x, v, bound)))
        for x, v in itertools.product(ewords, vwords)
        if len(x) + len(v) + 2 <= bound
    ]
    phis = {
        y: lift(dense_mixed_family(action, y, (), bound)) for y in ewords if len(y) + 2 <= bound
    }
    items = []
    for (label, weight, first), y in itertools.product(firsts, phis):
        if weight + len(y) + 1 > bound:
            continue
        bracket = commutator(first, phis[y])
        for w in vwords:
            if weight + len(y) + len(w) > bound:
                continue
            value = restriction_vector(bracket, w)
            if value:
                word = f"{label} ; {espace.format_word(y)} ; {vspace.format_word(w)}"
                items.append(Residual(weight + len(y) + len(w), word, format_vector(vspace, value)))
    return sorted(items)


def dense_hemi_brackets(action):
    """The hemisemidirect product's bracket tables by arity, on every ordered
    word of ``E+V`` up to the largest arity of the action's data: the acting
    letters are ``0..dim E - 1`` and the target letters follow them.  A pure
    acting word reads ``eval_bracket(E, ...)``, a pure target word
    ``eval_bracket(V, ...)``, and a mixed word with every acting letter in
    front ``action.eval``; every other word is zero.  Empty values are
    dropped."""
    E, V = action.E, action.V
    off = E.space.dim
    top = max(E.max_arity, V.max_arity, *(k + n for k, n in action.components), 1)
    out = {}
    for k in range(1, top + 1):
        table = {}
        for u in itertools.product(range(off + V.space.dim), repeat=k):
            acting = sum(i < off for i in u)
            x, v = u[:acting], tuple(i - off for i in u[acting:])
            if any(i < 0 for i in v):
                continue
            if not v:
                value = eval_bracket(E, k, x)
            else:
                value = eval_bracket(V, k, v) if not x else action_value(action, x, v)
                value = {off + o: c for o, c in value.items()}
            if value:
                table[u] = value
        if table:
            out[k] = table
    return out


def dense_adjoint_components(E, arities):
    """The tables of ``E`` acting on itself at the arity pairs ``(k, n)``:
    ``(x, v) -> l_{k+n}(x + v)`` on every canonical acting word ``x`` of
    length ``k`` and target word ``v`` of length ``n``, each value read
    through ``eval_bracket(E, ...)``.  Empty tables are dropped."""
    space, out = E.space, {}
    for k, n in arities:
        table = {
            (x, v): vec
            for x in space.canonical_words(k)
            for v in space.canonical_words(n)
            if (vec := eval_bracket(E, k + n, x + v))
        }
        if table:
            out[(k, n)] = table
    return out


def dense_adjoint_representation(E):
    """The components of the adjoint representation: an acting word and one
    letter, under the top arity of ``E``."""
    return dense_adjoint_components(E, [(k, 1) for k in range(1, E.max_arity)])


def dense_adjoint_action(E):
    """The components of the full self-action: every split of a word of at
    most the top arity of ``E`` into two nonempty blocks."""
    top = E.max_arity
    arities = [(k, n) for k in range(1, top) for n in range(1, top - k + 1)]
    return dense_adjoint_components(E, arities)
