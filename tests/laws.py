"""Law checkers and small helpers that only the tests read.

The composite of two slot maps and the unshuffles of given block sizes,
the co-Leibniz defect of a coderivation, the coproduct defect of a
comorphism, the twist of a pair sum, the identity comorphism, a multiple
and the length-one part of a row of a full coderivation, a table as one
map per word length, the bracket of two families through their tables,
the restriction family of a coderivation, the composite of two
comorphisms, the exponential of a degree-0 coderivation, the extension
``identity + tensor`` of the product coalgebra and the restriction lemma
it satisfies, the strict and symmetric flags of an embedding tensor, the
value of an action or a tensor on words, the sum of two tensors, an
element's rows as a dict, a seeded random vector and the adjoint
representation of a structure.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from linfty.corpus import SMALL_FRACTIONS
from linfty.graded import GradedSpace, Permutation, Word, _unshuffles
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    TruncatedCoderivation,
    TruncatedComorphism,
    Vector,
    WordSum,
    _common_degree,
    add_into,
    balavoine_bracket,
    lift_comorphism,
    merge_into,
)
from linfty.action import ActionFamily, hemisemidirect
from linfty.report import (
    CheckReport,
    InputError,
    Residual,
    RouteDisagreement,
    format_vector,
    make_report,
)
from linfty.tensor import (
    _SERIES_SLACK,
    EmbeddingTensor,
    _check_tensor_spaces,
    _ensure_coherent,
    descendent,
)
from paper import (
    HomElement,
    PairSum,
    coshuffle_coproduct,
    eval_bracket,
    symmetrize,
    zinbiel_coproduct,
)


def compose(tau: Permutation, sigma: Permutation) -> Permutation:
    """The slot map of "first tau, then sigma".

    Satisfies ``permute(sigma, permute(tau, w)) == permute(compose(tau, sigma), w)``.
    """
    return tuple(tau[s] for s in sigma)


def unshuffles(*block_sizes: int) -> tuple[Permutation, ...]:
    """All ``(i_1, ..., i_k)``-unshuffles of ``0..sum-1``, read from the
    package's table :func:`linfty.graded._unshuffles`.

    A permutation is an unshuffle when it is increasing inside each
    consecutive block of slots.  The count is the multinomial coefficient.
    """
    if not block_sizes or any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive integers")
    return _unshuffles(tuple(block_sizes))


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
        for u, c in cod.rows.get(w, {}).items():
            merge_into(lhs, coproduct(cod.space, u), c)
        rhs: PairSum = {}
        for (a, b), c in coproduct(cod.space, w).items():
            for u, cu in cod.rows.get(a, {}).items():
                add_into(rhs, (u, b), c * cu)
            sign = -1 if (parity and cod.space.word_degree(a) % 2) else 1
            for u, cu in cod.rows.get(b, {}).items():
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
        for u, c in com.rows.get(w, {}).items():
            merge_into(lhs, coproduct(com.target, u), c)
        rhs: PairSum = {}
        for (a, b), c in coproduct(com.source, w).items():
            fa = com.rows.get(a, {})
            fb = com.rows.get(b, {})
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


def identity_comorphism(space: GradedSpace, bound: int):
    ident = MultiMap(
        space, space, 1, 0, PLAIN, {(i,): {i: Fraction(1)} for i in range(space.dim)}
    )
    return lift_comorphism(space, space, {1: ident}, bound)


def scaled(cod: TruncatedCoderivation, c: Fraction) -> TruncatedCoderivation:
    """``c`` times a coderivation, row by row."""
    rows = {w: {u: c * v for u, v in row.items()} for w, row in cod.rows.items()} if c else {}
    return TruncatedCoderivation(cod.space, cod.bound, cod.degree, cod.coalgebra, rows)


def restriction_vector(cod: TruncatedCoderivation, word: Word) -> Vector:
    """The length-one part of the row of ``word``, as a vector."""
    return {u[0]: c for u, c in cod.rows.get(word, {}).items() if len(u) == 1}


def maps_by_arity(
    source: GradedSpace,
    target: GradedSpace,
    degree: int,
    flavor: str,
    table: Mapping[Word, Vector],
) -> dict[int, MultiMap]:
    """A table of values on words as one map per word length; empty values
    are dropped."""
    per_arity: dict[int, dict[Word, Vector]] = {}
    for w, vec in table.items():
        if vec:
            per_arity.setdefault(len(w), {})[w] = vec
    return {
        k: MultiMap(source, target, k, degree, flavor, words)
        for k, words in per_arity.items()
    }


def family_bracket(
    space: GradedSpace, f: Mapping[int, MultiMap], g: Mapping[int, MultiMap], bound: int
) -> dict[int, MultiMap]:
    """:func:`balavoine_bracket` of two homogeneous families, fed each one's
    plain support as one table with its degree; the bracket's table comes
    back as one map per word length of the summed degree, which checks that
    every value has it."""

    def table(family):
        return {w: v for m in family.values() for w, v in m.expand_plain().constants.items()}

    fd, gd = _common_degree(f), _common_degree(g)
    bracket = balavoine_bracket(space, table(f), fd, table(g), gd, bound)
    return maps_by_arity(space, space, fd + gd, PLAIN, bracket)


def length_one_maps(source, target, degree, coalgebra, rows) -> dict[int, MultiMap]:
    """The length-one part of each row, as one map per word length."""
    flavor = SYMMETRIC if coalgebra == SYMMETRIC else PLAIN
    table: dict[Word, Vector] = {}
    for w, row in rows.items():
        vec = {u[0]: c for u, c in row.items() if len(u) == 1}
        if vec:
            table[w] = vec
    return maps_by_arity(source, target, degree, flavor, table)


def restrictions(cod: TruncatedCoderivation) -> dict[int, MultiMap]:
    """The defining family of a coderivation: projection to single letters,
    by arity."""
    return length_one_maps(cod.space, cod.space, cod.degree, cod.coalgebra, cod.rows)


def compose_comorphisms(
    outer: TruncatedComorphism, inner: TruncatedComorphism
) -> TruncatedComorphism:
    """``outer . inner`` row by row, with the components of the composite."""
    if inner.target is not outer.source:
        raise ValueError("comorphisms do not compose")
    rows: dict[Word, WordSum] = {}
    for w, row in inner.rows.items():
        acc: WordSum = {}
        for u, c in row.items():
            merge_into(acc, outer.rows.get(u, {}), c)
        if acc:
            rows[w] = acc
    components = length_one_maps(inner.source, outer.target, 0, outer.flavor, rows)
    return TruncatedComorphism(
        inner.source, outer.target, inner.bound, outer.flavor, components, rows
    )


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


def extend_tensor(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> TruncatedComorphism:
    """The comorphism ``identity + tensor`` of the product coalgebra.

    Unary component ``x + v -> x + v + T_1(v)``; higher components equal the
    tensor's on pure-target words and vanish elsewhere.  Coincides with the
    exponential of the tensor's coderivation (tested separately).
    """
    _check_tensor_spaces(tensor, action)
    hemi = hemisemidirect(action)
    space = hemi.space
    table1: dict[Word, Vector] = {
        (i,): {i: Fraction(1)} for i in range(space.dim)
    }
    t1 = tensor.components.get(1)
    if t1 is not None:
        for w, vec in t1.constants.items():
            key = hemi.from_v_word(w)
            merge_into(table1.setdefault(key, {}), vec)
    components = {1: MultiMap(space, space, 1, 0, PLAIN, table1)}
    for k, f in tensor.components.items():
        if k == 1 or k > bound:
            continue
        table = {hemi.from_v_word(w): dict(vec) for w, vec in f.constants.items()}
        components[k] = MultiMap(space, space, k, 0, PLAIN, table)
    return lift_comorphism(space, space, components, bound)


def restriction_lemma_check(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> CheckReport:
    """Relative co-Leibniz law and restriction formula for ``p Q (id + T)``.

    The composite of the product codifferential with the extended comorphism,
    projected to pure-target words, must (a) satisfy the coderivation law
    relative to the projection comorphism and (b) restrict on target words to
    the brackets of :func:`linfty.tensor.descendent`, the target brackets plus
    prefix-fed action terms, compared against the independent matrix
    expansion of the composite.
    """
    _check_tensor_spaces(tensor, action)
    _ensure_coherent(action, bound)
    hemi = hemisemidirect(action)
    vspace = action.V.space
    q = hemi.codifferential(bound)
    ext = extend_tensor(tensor, action, bound)
    brackets = descendent(tensor, action, bound)

    def project(words: WordSum) -> WordSum:
        out: WordSum = {}
        for u, c in words.items():
            if hemi.is_pure_v(u):
                add_into(out, hemi.to_v_word(u), c)
        return out

    def r_of(word: Word) -> WordSum:
        return project(q.apply_sum(ext.rows.get(word, {})))

    items: list[Residual] = []
    for w in hemi.space.words_up_to(bound):
        lhs: dict = {}
        for u, c in r_of(w).items():
            merge_into(lhs, zinbiel_coproduct(vspace, u), c)
        rhs: dict = {}
        for (a, b), c in zinbiel_coproduct(hemi.space, w).items():
            pb = project({b: Fraction(1)})
            for u, cu in r_of(a).items():
                for vb, cb in pb.items():
                    add_into(rhs, (u, vb), c * cu * cb)
            pa = project({a: Fraction(1)})
            sign = -1 if hemi.space.word_degree(a) % 2 else 1
            for va, ca in pa.items():
                for u, cu in r_of(b).items():
                    add_into(rhs, (va, u), sign * c * ca * cu)
        diff = dict(lhs)
        merge_into(diff, rhs, Fraction(-1))
        if diff:
            items.append(
                Residual(
                    len(w),
                    hemi.space.format_word(w),
                    "co-Leibniz defect on "
                    + ", ".join(
                        f"{vspace.format_word(a)}(x){vspace.format_word(b)}"
                        for (a, b) in sorted(diff)[:3]
                    ),
                )
            )

    # restriction maps on pure-target words match the prefix formula
    for n in range(1, bound + 1):
        for w in vspace.words(n):
            got: Vector = {}
            row = r_of(hemi.from_v_word(w))
            for u, c in row.items():
                if len(u) == 1:
                    add_into(got, u[0], c)
            expected = eval_bracket(brackets, n, w)
            diff = dict(got)
            merge_into(diff, expected, Fraction(-1))
            if diff:
                items.append(
                    Residual(
                        n,
                        vspace.format_word(w),
                        "restriction defect " + format_vector(vspace, diff),
                    )
                )
    return make_report("restriction-lemma", bound, items)


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


def action_value(action: ActionFamily, eword: Word, vword: Word) -> Vector:
    """The action's component on an acting and a target word; ``{}`` where
    the family has no component of those arities."""
    f = action.components.get((len(eword), len(vword)))
    return f.eval(eword, vword) if f is not None else {}


def tensor_value(tensor: EmbeddingTensor, word: Word) -> Vector:
    """The tensor's component on a target word, as :func:`action_value`."""
    f = tensor.components.get(len(word))
    return f.eval(word) if f is not None else {}


def tensor_sum(t: EmbeddingTensor, u: EmbeddingTensor) -> EmbeddingTensor:
    """The componentwise sum of two tensors on the same spaces."""
    tables: dict[int, dict[Word, Vector]] = {}
    for f in (*t.components.values(), *u.components.values()):
        for w, vec in f.constants.items():
            merge_into(tables.setdefault(f.arity, {}).setdefault(w, {}), vec)
    comps = {
        k: MultiMap(t.v_space, t.e_space, k, 0, PLAIN, {w: v for w, v in table.items() if v})
        for k, table in tables.items()
    }
    return EmbeddingTensor(t.v_space, t.e_space, comps)


def as_dict(element: HomElement) -> dict[Word, Vector]:
    return {w: dict(vec) for w, vec in element.rows}


def random_vector(space: GradedSpace, degree: int, rng: random.Random) -> Vector:
    out: Vector = {}
    for i in range(space.dim):
        if space.degrees[i] == degree and rng.random() < 0.7:
            out[i] = rng.choice(SMALL_FRACTIONS)
    return out


def adjoint_rep_components(structure, end) -> dict[int, MultiMap]:
    """The adjoint representation of ``structure`` on its own space, as
    degree-0 components into the shifted endomorphism space ``end``:
    ``x_1...x_k -> (v -> l_{k+1}(x_1, ..., x_k, v))``."""
    space = structure.space
    comps = {}
    for k in range(1, structure.max_arity):
        lk1 = structure.bracket(k + 1)
        if lk1 is None:
            continue
        table = {}
        for xw in space.canonical_words(k):
            vec = {}
            for v in range(space.dim):
                for out, c in lk1.eval(xw + (v,)).items():
                    vec[end.index(v, out)] = c
            if vec:
                table[xw] = vec
        if table:
            comps[k] = MultiMap(space, end.space, k, 0, SYMMETRIC, table)
    return comps
