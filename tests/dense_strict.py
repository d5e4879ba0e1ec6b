"""The classical strict conditions, word by word, kept as a test oracle.

A unary degree-0 map ``t`` of a Lie-infinity algebra ``E`` is a strict
embedding tensor of the adjoint representation when it commutes with
``l_1`` and ``l_n(t w_1, .., t w_n) = t l_n(t w_1, .., t w_{n-1}, w_n)`` on
every ordered word; it lies in the centroid when it commutes with ``l_1``
and ``l_{k+1}(x, f e) = f l_{k+1}(x, e)`` for every canonical word ``x`` and
letter ``e``.  These are the closed forms of the classical case (Sheng, Tang
and Zhu, *Comm. Math. Phys.* 2022; Kotov and Strobl, *Comm. Math. Phys.*
2020).  The package reads the first as the tensor identity of ``t`` in the
adjoint representation and the second as a commutator of coderivations on
the direct sum; here each map is evaluated through ``MultiMap.eval`` on
every word, with no lift, split table, composite or series.  Each residual
list is a report's: sorted ``Residual`` triples.
"""
from __future__ import annotations

import itertools

from linfty.multimap import merge_into
from linfty.report import Residual, format_vector


def _image(f, vec):
    """``f`` applied letter by letter to a vector."""
    out = {}
    for j, c in vec.items():
        merge_into(out, f.eval((j,)), c)
    return out


def dense_chain_map_residuals(E, f):
    """The letters where ``l_1 f - f l_1`` is nonzero."""
    space, l1, items = E.space, E.bracket(1), []
    if l1 is None:
        return items
    for i in range(space.dim):
        diff = _image(l1, f.eval((i,)))
        merge_into(diff, _image(f, l1.eval((i,))), -1)
        if diff:
            items.append(Residual(1, space.format_word((i,)), format_vector(space, diff)))
    return items


def _on_images(ln, vectors):
    """``l_n`` on the multilinear expansion of the vectors, one letter from each."""
    out = {}
    for choice in itertools.product(*(vec.items() for vec in vectors)):
        c = 1
        for _, cb in choice:
            c *= cb
        merge_into(out, ln.eval(tuple(b for b, _ in choice)), c)
    return out


def dense_strict_residuals(E, t1):
    """The strict conditions of ``t1`` on every ordered word up to the
    structure's top arity."""
    space = E.space
    items = dense_chain_map_residuals(E, t1)
    for n in range(2, E.max_arity + 1):
        ln = E.bracket(n)
        if ln is None:
            continue
        for w in itertools.product(range(space.dim), repeat=n):
            images = [t1.eval((x,)) for x in w]
            diff = _on_images(ln, images)
            inner = _on_images(ln, images[:-1] + [{w[-1]: 1}])
            merge_into(diff, _image(t1, inner), -1)
            if diff:
                items.append(Residual(n, space.format_word(w), format_vector(space, diff)))
    return sorted(items)


def dense_centroid_residuals(E, f1):
    """The centroid conditions of ``f1`` on every canonical acting word and
    every letter."""
    space = E.space
    items = dense_chain_map_residuals(E, f1)
    for k in range(1, E.max_arity):
        lk1 = E.bracket(k + 1)
        if lk1 is None:
            continue
        for xw in space.canonical_words(k):
            for e in range(space.dim):
                diff = _on_images(lk1, [{x: 1} for x in xw] + [f1.eval((e,))])
                merge_into(diff, _image(f1, lk1.eval(xw + (e,))), -1)
                if diff:
                    word = f"{space.format_word(xw)} ; {space.format_word((e,))}"
                    items.append(Residual(k + 1, word, format_vector(space, diff)))
    return sorted(items)
