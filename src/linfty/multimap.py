"""Multilinear graded maps as exact structure constants, and the coalgebra
machinery built on them: coderivation and comorphism lifts truncated at a
word-length bound, graded commutators, the composites of coderivations of
both coalgebras formed from their restriction families, and the Balavoine
bracket of two Zinbiel ones.

Formal linear data is kept sparse:

* a *vector* is ``dict[int, Scalar]`` over basis indices,
* a *word sum* is ``dict[Word, Scalar]``.

Zero coefficients are never stored.  A ``Scalar`` is exact and kept in one
normal form (:func:`exact`): an ``int`` when it is integral and a
``Fraction`` only when it is not.  :class:`MultiMap` stores its constants
in that form and refuses floats, and the kernels seed their sums with
``int`` signs and ones, so a sum of integral products never forms a
``Fraction``; only a division does.  The structure checks and the action
and coherence checks feed the kernels ``int`` constants only: each clears
the denominators of its data once
(:func:`linfty.homotopy._clear_denominators`) and divides by ``D**2`` only
the values it reports.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .graded import (
    GradedSpace,
    Word,
    _unshuffles,
    compositions,
    increasing_unshuffles,
    koszul_sign,
    permute,
)
from .report import InputError

Scalar = int | Fraction
Vector = dict[int, Scalar]
WordSum = dict[Word, Scalar]

SYMMETRIC = "symmetric"
PLAIN = "plain"
ZINBIEL = "zinbiel"

__all__ = [
    "MultiMap",
    "TruncatedCoderivation",
    "TruncatedComorphism",
    "Vector",
    "WordSum",
    "add_into",
    "balavoine_bracket",
    "commutator",
    "exact",
    "expand",
    "lift_comorphism",
    "lift_symmetric_coderivation",
    "lift_zinbiel_coderivation",
    "lifted_composite",
    "symmetric_composite",
]


def exact(c, key) -> Scalar:
    """``c`` in the scalar normal form: an ``int`` when it is integral, a
    ``Fraction`` otherwise.  A float is refused with the ``key`` it was
    given at, since it would enter as its binary expansion."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise InputError(f"constant at {key} is the float {c!r}, not an exact int or Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add_into(acc: dict, key, coeff: Scalar) -> None:
    """Accumulate ``coeff`` at ``key``, dropping exact zeros."""
    old = acc.get(key)
    if old is None:
        if coeff:
            acc[key] = coeff
        return
    new = old + coeff
    if new:
        acc[key] = new
    else:
        del acc[key]


def merge_into(acc: dict, other: Mapping, c: Scalar = 1) -> None:
    for k, v in other.items():
        add_into(acc, k, c * v)


def expand(vectors: Iterable[Vector], coeff: Scalar) -> list[tuple[Word, Scalar]]:
    """The multilinear expansion of ``coeff * v_1 (x) ... (x) v_k``.

    One ``(word, coefficient)`` pair per choice of a basis letter from each
    vector, in lexicographic order of the choices.  Stops reading
    ``vectors`` at the first empty one, whose expansion is empty.
    """
    words = [((), coeff)]
    for vec in vectors:
        words = [(w + (b,), c * cb) for (w, c) in words for b, cb in vec.items()]
        if not words:
            break
    return words


class MultiMap:
    """A multilinear map between graded spaces given by structure constants.

    ``constants`` maps an input word of length ``arity`` to the output vector.
    Symmetric maps are stored only on canonically sorted words with no
    repeated odd-degree letter; evaluation on any other ordering picks up the
    Koszul sign of the sort.  Plain maps are looked up literally.  Each
    constant is stored in the normal form of :func:`exact`; a float is
    refused with :class:`InputError`.
    """

    __slots__ = ("source", "target", "arity", "degree", "flavor", "constants")

    def __init__(
        self,
        source: GradedSpace,
        target: GradedSpace,
        arity: int,
        degree: int,
        flavor: str,
        constants: Mapping[Word, Mapping[int, Scalar]],
    ):
        if arity < 1:
            raise ValueError("arity must be positive")
        if flavor not in (SYMMETRIC, PLAIN):
            raise ValueError(f"unknown flavor {flavor!r}")
        table: dict[Word, Vector] = {}
        for word, vec in constants.items():
            word = tuple(word)
            if len(word) != arity:
                raise ValueError(f"key {word} does not have arity {arity}")
            if any(not 0 <= i < source.dim for i in word):
                raise ValueError(f"key {word} leaves the source basis")
            if flavor == SYMMETRIC:
                norm, sign = source.normalize(word)
                if sign == 0:
                    raise ValueError(f"key {word} vanishes in the symmetric algebra")
                if norm != word or sign != 1:
                    raise ValueError(f"symmetric key {word} is not canonical")
            deg_in = source.word_degree(word)
            clean: Vector = {}
            for out, c in vec.items():
                c = exact(c, (word, out))
                if not c:
                    continue
                if not 0 <= out < target.dim:
                    raise ValueError(f"output index {out} leaves the target basis")
                if target.degrees[out] != degree + deg_in:
                    raise ValueError(
                        f"constant ({word} -> {target.symbols[out]}) breaks degree "
                        f"homogeneity for a degree {degree} map"
                    )
                clean[out] = c
            if clean:
                table[word] = clean
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.flavor = flavor
        self.constants = table

    @classmethod
    def _unchecked(cls, source, target, arity, degree, flavor, table) -> "MultiMap":
        """A map on ``table`` as it is, with no check and no copy: for a
        caller whose keys and values come from validated maps, such as an
        integer multiple of their constants or a reordering of their keys
        with its sign, in the normal form of :func:`exact` and with no
        empty value."""
        self = object.__new__(cls)
        self.source, self.target, self.arity = source, target, arity
        self.degree, self.flavor, self.constants = degree, flavor, table
        return self

    def eval(self, word: Word) -> Vector:
        """Exact value on a basis word (a fresh dict; may be empty)."""
        if len(word) != self.arity:
            raise ValueError(f"word {word} does not match arity {self.arity}")
        dim = self.source.dim
        if any(not 0 <= i < dim for i in word):
            raise ValueError(f"word {word} does not index the source basis")
        row, sign = self.lookup(tuple(word))
        if not row:
            return {}
        return dict(row) if sign == 1 else {k: -v for k, v in row.items()}

    def lookup(self, word: Word) -> tuple[Vector | None, int]:
        """The stored value on a word of the map's arity and the Koszul sign
        it is read with; ``(None, 0)`` where the map vanishes.

        Neither validates the word nor copies the value, so the caller must
        not change it.  The componentwise sums read their constants here.
        """
        if self.flavor == SYMMETRIC:
            norm, sign = self.source.normalize(word)
            row = self.constants.get(norm) if sign else None
        else:
            row, sign = self.constants.get(word), 1
        return (row, sign) if row else (None, 0)

    def is_zero(self) -> bool:
        return not self.constants

    def entries(self) -> Iterator[tuple[Word, int, Scalar]]:
        for w in sorted(self.constants):
            for out in sorted(self.constants[w]):
                yield w, out, self.constants[w][out]

    def expand_plain(self) -> "MultiMap":
        """The same map with every ordering of each key stored explicitly,
        each read from :func:`_signed_orderings`."""
        if self.flavor == PLAIN:
            return self
        odd = tuple(d % 2 for d in self.source.degrees)
        table: dict[Word, Vector] = {}
        for word, vec in self.constants.items():
            negated = {out: -c for out, c in vec.items()}
            for u, sign in _signed_orderings(word, tuple(odd[x] for x in word)):
                table[u] = vec if sign > 0 else negated
        return MultiMap(self.source, self.target, self.arity, self.degree, PLAIN, table)

    def __repr__(self) -> str:
        return (
            f"MultiMap({self.source.name}->{self.target.name}, arity={self.arity}, "
            f"degree={self.degree}, {self.flavor}, {len(self.constants)} keys)"
        )


@lru_cache(maxsize=None)
def _signed_orderings(word: Word, parities: tuple[int, ...]) -> tuple[tuple[Word, int], ...]:
    """Each distinct ordering ``u`` of a canonical word whose letters have
    the given parities, with the Koszul sign of sorting ``u`` back to
    ``word``: a symmetric map's value on ``u`` is that sign times its value
    on ``word``.  :meth:`MultiMap.expand_plain` and the hemisemidirect
    product read every ordering of a key from here."""
    out: dict[Word, int] = {}
    for sigma in itertools.permutations(range(len(word))):
        u = permute(sigma, word)
        if u not in out:
            out[u] = koszul_sign(sigma, parities)
    return tuple(out.items())


# ---------------------------------------------------------------------------
# truncated coderivations


class TruncatedCoderivation:
    """A degree-homogeneous coderivation on words of length at most ``bound``.

    ``coalgebra`` selects the ambient coalgebra: ``"symmetric"`` rows are
    indexed by canonical words and valued in canonical word sums;
    ``"zinbiel"`` rows live on the full tensor-word basis.  Rows absent from
    ``rows`` are zero.  All maps here never increase word length, so the
    truncation is closed under composition and brackets.
    """

    __slots__ = ("space", "bound", "degree", "coalgebra", "rows")

    def __init__(self, space, bound, degree, coalgebra, rows):
        if coalgebra not in (SYMMETRIC, ZINBIEL):
            raise ValueError(f"unknown coalgebra {coalgebra!r}")
        self.space = space
        self.bound = bound
        self.degree = degree
        self.coalgebra = coalgebra
        self.rows = {w: ws for w, ws in rows.items() if ws}

    def apply_sum(self, words: WordSum) -> WordSum:
        acc: WordSum = {}
        for w, c in words.items():
            row = self.rows.get(w)
            if row:
                merge_into(acc, row, c)
        return acc

    def compose(self, other: "TruncatedCoderivation") -> "TruncatedCoderivation":
        self._check_compatible(other)
        rows: dict[Word, WordSum] = {}
        for w, row in other.rows.items():
            acc = self.apply_sum(row)
            if acc:
                rows[w] = acc
        return TruncatedCoderivation(
            self.space, self.bound, self.degree + other.degree, self.coalgebra, rows
        )

    def add(self, other: "TruncatedCoderivation", c: Scalar = 1):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("adding coderivations of different degrees")
        rows = {w: dict(row) for w, row in self.rows.items()}
        for w, row in other.rows.items():
            merge_into(rows.setdefault(w, {}), row, c)
        rows = {w: r for w, r in rows.items() if r}
        return TruncatedCoderivation(self.space, self.bound, self.degree, self.coalgebra, rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _check_compatible(self, other) -> None:
        if self.space is not other.space:
            raise ValueError("coderivations live on different spaces")
        if self.bound != other.bound:
            raise ValueError("coderivations have different truncation bounds")
        if self.coalgebra != other.coalgebra:
            raise ValueError("coderivations live on different coalgebras")

    def __repr__(self) -> str:
        return (
            f"TruncatedCoderivation({self.space.name}, bound={self.bound}, "
            f"degree={self.degree}, {self.coalgebra}, {len(self.rows)} rows)"
        )


def _common_degree(restrictions: Mapping[int, MultiMap]) -> int:
    degrees = {f.degree for f in restrictions.values() if not f.is_zero()}
    if len(degrees) > 1:
        raise ValueError(f"restriction maps are not degree-homogeneous: {sorted(degrees)}")
    if degrees:
        return degrees.pop()
    degrees = {f.degree for f in restrictions.values()}
    return degrees.pop() if len(degrees) == 1 else 0


def lift_symmetric_coderivation(
    space: GradedSpace, restrictions: Mapping[int, MultiMap], bound: int
) -> TruncatedCoderivation:
    """The unique coderivation of the reduced symmetric coalgebra with the
    given restriction maps, truncated to words of length <= ``bound``.

    On a canonical word ``w`` the lift sums, over (k, n-k)-unshuffles, the
    inner map applied to the first block times the remaining letters.  It
    is :func:`symmetric_composite` with every canonical word ``y`` up to the
    bound as an outer key whose value is ``y`` itself, so the work is
    proportional to the (key, output letter, rest) triples that fit under
    the bound, not to the number of canonical words.
    """
    words = {y: {y: 1} for y in space.canonical_words_up_to(bound)}
    inner = (pair for f in restrictions.values() for pair in f.constants.items())
    rows = _symmetric_composite(space, _letter_index(space, [words]), inner, bound)
    return TruncatedCoderivation(space, bound, _common_degree(restrictions), SYMMETRIC, rows)


def _split_count(u: Word, rest: Word) -> int:
    """Unshuffles of ``sorted(u + rest)`` whose blocks read ``u`` and ``rest``."""
    count = 1
    for x in set(u).intersection(rest):
        count *= math.comb(u.count(x) + rest.count(x), u.count(x))
    return count


def _letter_index(space: GradedSpace, tables: Iterable[Mapping[Word, Mapping]]) -> dict:
    """The canonical keys of the tables indexed under each distinct letter
    ``b`` as ``b -> [(rest, value)]``, shortest rest first: ``rest`` is the
    key less one ``b``, and ``value`` carries the sign of
    ``normalize(b + rest)``."""
    index: dict[int, list[tuple[Word, Mapping]]] = {}
    for table in tables:
        for y, value in table.items():
            # plain maps are read literally, so only canonical keys are ever met
            if space.normalize(y) != (y, 1):
                continue
            for j, b in enumerate(y):
                if j and y[j - 1] == b:
                    continue
                rest = y[:j] + y[j + 1 :]
                signed = value
                if space.normalize((b,) + rest)[1] < 0:
                    signed = {o: -c for o, c in value.items()}
                index.setdefault(b, []).append((rest, signed))
    for entries in index.values():
        entries.sort(key=lambda e: len(e[0]))
    return index


def _symmetric_composite(
    space: GradedSpace, index: Mapping[int, list], inner: Iterable[tuple[Word, Vector]], bound: int
) -> dict[Word, dict]:
    """:func:`symmetric_composite` from the outer keys' :func:`_letter_index`
    and the inner family's ``(key, value)`` pairs, as :func:`_composite`
    reads them, so a table is composed with no map built around it; every
    term is summed in place."""
    out: dict[Word, dict] = {}
    for u, vec in inner:
        if space.normalize(u) != (u, 1):
            continue
        room = bound - len(u)
        for b, cb in vec.items():
            for rest, value in index.get(b, ()):
                if len(rest) > room:
                    break
                w, eps = space.normalize(u + rest)
                if not eps:
                    continue
                mult = _split_count(u, rest)
                c = cb * mult if mult > 1 else cb
                if eps < 0:
                    c = -c
                acc = out.get(w)
                if acc is None:
                    acc = out[w] = {}
                for o, co in value.items():
                    total = acc.get(o, 0) + c * co
                    if total:
                        acc[o] = total
                    else:
                        del acc[o]
    return out


def symmetric_composite(
    space: GradedSpace,
    outer: Mapping[int, MultiMap],
    inner: Mapping[int, MultiMap],
    bound: int,
) -> dict[Word, Vector]:
    """The single-letter components ``p(A B) = a B`` of the composite of the
    symmetric lifts ``A`` and ``B`` of the families ``outer`` (``a``) and
    ``inner`` (``b``), on every canonical word up to ``bound`` that a
    (key, letter, key) triple below forms; a value that cancels stays as an
    empty dict, so the keys are the words where a term of ``a B`` can be
    nonzero.

    ``a`` reads only the entries ``y`` of ``B``'s rows that are its keys.
    Each comes from an inner key ``u`` with an output letter ``b`` of ``y``:
    the row of ``normalize(u + rest)``, ``rest = y - b``, holds ``b(u)_b y``
    with the sorts' signs, once per unshuffle splitting ``u`` off that word
    (:func:`_split_count`).  So the outer keys are indexed by letter and the
    work is proportional to the (inner key, output letter, outer key)
    triples that fit under the bound.
    """
    index = _letter_index(space, [f.constants for f in outer.values()])
    pairs = (pair for f in inner.values() for pair in f.constants.items())
    return _symmetric_composite(space, index, pairs, bound)


@lru_cache(maxsize=None)
def _words_of_length(dim: int, n: int) -> tuple[Word, ...]:
    return tuple(itertools.product(range(dim), repeat=n))


@lru_cache(maxsize=None)
def _placement_flips(k: int, i: int, inner_odd: int, parity: int) -> tuple:
    """Each placement of ``i`` front letters among the first ``k - 1``
    letters of an inner key, whose odd ones are the set bits of
    ``inner_odd``, as ``(gather, flip_mask)``, for the Zinbiel lift of a
    family of parity ``parity``.

    A placement is an ``(i, k - 1)``-unshuffle of the head's slots;
    ``gather``, an :func:`operator.itemgetter`, reads the head off the front
    letters followed by the inner ones.  The Koszul sign of the crossings
    times ``(-1)^{|Q| |F|}`` is the product over the front letters ``f_a``
    of ``(-1)^{|f_a| (|Q| + |C_a|)}``, ``C_a`` the inner letters ``f_a``
    crosses; bit ``a`` of ``flip_mask`` is set where ``|Q| + |C_a|`` is odd,
    so the sign is ``-1`` exactly when the front's odd mask shares an odd
    number of bits with it.  Every Zinbiel composite reads its placements
    from here (:func:`_composite`), and the table is kept per ``(k, i,
    inner_odd, parity)``: neither entry depends on the letters themselves.
    """
    out = []
    for sigma in _unshuffles((i, k - 1)):
        front_slots, inner_slots = sigma[:i], sigma[i:]
        flip_mask = 0
        for a, s in enumerate(front_slots):
            crossed = sum(inner_odd >> j & 1 for j, t in enumerate(inner_slots) if t < s)
            if (parity + crossed) % 2:
                flip_mask |= 1 << a
        source = [0] * len(sigma)
        for a, t in enumerate(sigma):
            source[t] = a
        out.append((itemgetter(*source) if len(source) > 1 else tuple, flip_mask))
    return tuple(out)


def _odd_mask(word: Word, odd) -> int:
    """The positions of the odd letters of ``word``, as the set bits."""
    mask = 0
    for x in reversed(word):
        mask = mask << 1 | odd[x]
    return mask


def _plain_support(restrictions: Mapping[int, MultiMap]) -> Iterator[tuple[Word, Vector]]:
    """Every key of each map with its value, symmetric maps through
    :meth:`MultiMap.expand_plain`."""
    for f in restrictions.values():
        yield from f.expand_plain().constants.items()


def lift_zinbiel_coderivation(
    space: GradedSpace, restrictions: Mapping[int, MultiMap], bound: int
) -> TruncatedCoderivation:
    """The coderivation of the Zinbiel coalgebra with the given restrictions.

    On a word ``w`` the lift sums, for each inner arity ``k`` and each count
    ``i`` of pass-through letters in front, over the unshuffles of slots
    ``0..i+k-2`` into a front block and the inner arguments; the inner map
    always absorbs the anchored letter at slot ``i+k-1``, and the remaining
    letters pass through on the right.  Moving a degree-``d`` map past the
    front block costs ``(-1)^{d * deg(front)}``.

    The rows up to the anchored letter are :func:`_prefix_rows`; every
    prefix row then extends by each tail that fits under the bound.  The
    work is proportional to the (key, front word, placement) triples and
    their tails, not to the ``dim^bound`` words.
    """
    degree = _common_degree(restrictions)
    short = [_words_of_length(space.dim, n) for n in range(bound)]
    prefixes = _prefix_rows(space, list(_plain_support(restrictions)), degree % 2, bound)
    rows: dict[Word, WordSum] = {}
    for prefix, prow in prefixes.items():
        if not prow:
            continue
        for n in range(bound - len(prefix) + 1):
            for tail in short[n]:
                w = prefix + tail
                row = rows.get(w)
                if row is None:
                    rows[w] = {x + tail: c for x, c in prow.items()}
                else:
                    for x, c in prow.items():
                        add_into(row, x + tail, c)
    return TruncatedCoderivation(space, bound, degree, ZINBIEL, rows)


def _prefix_rows(
    space: GradedSpace, support: list[tuple[Word, Vector]], parity: int, bound: int
) -> dict[Word, WordSum]:
    """The rows of the Zinbiel lift of a plain support of degree parity
    ``parity`` on the words that end in the anchored letter, the prefixes;
    a row that cancels stays empty.  They are :func:`_composite` with every
    word ``y`` that fits as an outer key and ends in an output letter of the
    family, read at its last slot only, with value ``y`` itself: the prefix
    that interleaves ``y[:-1]`` with ``u[:-1]``, then ``u[-1]``, holds
    ``y[:-1] + (b,)`` with the sign of that placement times ``q(u)_b``."""
    short = [_words_of_length(space.dim, n) for n in range(bound)]
    longest = bound + 1 - min((len(u) for u, _ in support), default=bound + 1)
    outputs = {b for _, vec in support for b in vec}
    odd = tuple(d % 2 for d in space.degrees)
    slots: dict[tuple[int, int], list] = {}
    for n in range(longest):
        for front in short[n]:
            mask = _odd_mask(front, odd)
            for b in outputs:
                slots.setdefault((b, n), []).append((front, mask, (), {front + (b,): 1}))
    return _composite(space, slots, support, parity, bound)


def _slot_index(space: GradedSpace, support: Iterable[tuple[Word, Vector]]) -> dict:
    """The keys of a plain support indexed by the letter and the position of
    each slot, as ``(letter, j) -> [(front, front odd mask, tail, value)]``:
    ``front`` is ``key[:j]``, with its odd letters as the set bits of the
    mask (:func:`_odd_mask`), and ``tail`` is ``key[j+1:]``."""
    odd = tuple(d % 2 for d in space.degrees)
    slots: dict[tuple[int, int], list[tuple[Word, int, Word, Vector]]] = {}
    for y, value in support:
        for j, b in enumerate(y):
            front = y[:j]
            slots.setdefault((b, j), []).append((front, _odd_mask(front, odd), y[j + 1 :], value))
    return slots


def _composite(
    space: GradedSpace,
    slots: Mapping[tuple[int, int], list],
    inner: Iterable[tuple[Word, Vector]],
    parity: int,
    bound: int,
) -> dict[Word, Vector]:
    """:func:`lifted_composite` from the outer family's :func:`_slot_index`,
    the inner family's plain support and the parity of its degree, so a
    caller that composes one outer family with many inner ones, or a family
    with itself, indexes it once; :func:`_prefix_rows` forms the Zinbiel
    lift's prefix rows here from an index of its own.  Each placement
    gathers its head from the front and the inner letters and reads its sign
    from the front's odd mask (:func:`_placement_flips`), and every term is
    summed in place."""
    odd = tuple(d % 2 for d in space.degrees)
    out: dict[Word, Vector] = {}
    for u, vec in inner:
        k = len(u)
        head, anchor = u[:-1], u[-1:]
        inner_odd = _odd_mask(head, odd)
        for i in range(bound - k + 1):
            room = bound - k - i
            placements = _placement_flips(k, i, inner_odd, parity)
            for b, cb in vec.items():
                for front, front_odd, tail, value in slots.get((b, i), ()):
                    if len(tail) > room:
                        continue
                    letters, end = front + head, anchor + tail
                    for gather, flip_mask in placements:
                        c = -cb if (front_odd & flip_mask).bit_count() & 1 else cb
                        w = gather(letters) + end
                        acc = out.get(w)
                        if acc is None:
                            acc = out[w] = {}
                        for o, co in value.items():
                            total = acc.get(o, 0) + c * co
                            if total:
                                acc[o] = total
                            else:
                                del acc[o]
    return out


def lifted_composite(
    space: GradedSpace,
    outer: Mapping[int, MultiMap],
    inner: Mapping[int, MultiMap],
    bound: int,
) -> dict[Word, Vector]:
    """The single-letter components ``p(A B) = a B`` of the composite of the
    Zinbiel lifts ``A`` and ``B`` of the families ``outer`` (``a``) and
    ``inner`` (``b``), on every word up to ``bound`` that a (key, key,
    placement) triple below forms; a value that cancels stays as an empty
    dict, so the keys are the words where a term of ``a B`` can be nonzero.

    A coderivation is fixed by its restriction, so ``p(A B)`` is ``a``
    applied to the rows of ``B``, and ``a`` reads only the entries of ``B``
    whose word ``y`` is a key of its plain support; only those are formed.
    Each one comes from an inner key ``u`` with an output letter
    ``c = y[j]``: for each placement of the front ``y[:j]`` among ``u[:-1]``,
    the row of the word that interleaves them, then ``u[-1]``, then the tail
    ``y[j+1:]``, holds ``y`` with the lift's sign times ``b(u)_c``, whose
    flip rule reads the parity of the inner family's degree, and so picks up
    that multiple of ``a(y)``.  The outer keys are indexed by the letter and
    the position of each slot, and every term is written once; the work is
    proportional to the (inner key, outer key, placement) triples that fit
    under the bound.
    """
    slots = _slot_index(space, _plain_support(outer))
    if not slots:
        return {}
    return _composite(space, slots, _plain_support(inner), _common_degree(inner) % 2, bound)


def commutator(q: TruncatedCoderivation, p: TruncatedCoderivation) -> TruncatedCoderivation:
    """Graded commutator ``q p - (-1)^{|q||p|} p q`` on the truncation."""
    qp = q.compose(p)
    pq = p.compose(q)
    sign = -1 if (q.degree % 2 and p.degree % 2) else 1
    return qp.add(pq, -sign)


def balavoine_bracket(
    space: GradedSpace, f: Mapping[Word, Vector], f_degree: int,
    g: Mapping[Word, Vector], g_degree: int, bound: int,
) -> dict[Word, Vector]:
    """The restriction ``p[F, G] = f G - (-1)^{|f||g|} g F`` of the
    commutator of the Zinbiel lifts of two plain tables ``{word: vector}``
    of the given degrees, a table of degree ``f_degree + g_degree`` with no
    empty value, from two :func:`_composite` calls, with no lift and no
    commutator."""
    fg = _composite(space, _slot_index(space, f.items()), g.items(), g_degree % 2, bound)
    gf = _composite(space, _slot_index(space, g.items()), f.items(), f_degree % 2, bound)
    sign = 1 if f_degree % 2 and g_degree % 2 else -1
    for w, vec in gf.items():
        merge_into(fg.setdefault(w, {}), vec, sign)
    return {w: vec for w, vec in fg.items() if vec}


# ---------------------------------------------------------------------------
# truncated comorphisms


class TruncatedComorphism:
    """A coalgebra morphism on words of length <= ``bound``.

    Determined by its degree-0 components ``F_k : k-words -> target``; the
    word-to-word action distributes the letters over blocks indexed by
    increasing unshuffles.
    """

    __slots__ = ("source", "target", "bound", "flavor", "components", "rows")

    def __init__(self, source, target, bound, flavor, components, rows):
        self.source = source
        self.target = target
        self.bound = bound
        self.flavor = flavor
        self.components = components
        self.rows = rows

    def __repr__(self) -> str:
        return (
            f"TruncatedComorphism({self.source.name}->{self.target.name}, "
            f"bound={self.bound}, {self.flavor}, {len(self.rows)} rows)"
        )


def lift_comorphism(
    source: GradedSpace,
    target: GradedSpace,
    components: Mapping[int, MultiMap],
    bound: int,
) -> TruncatedComorphism:
    """The coalgebra morphism induced by degree-0 components ``F_k``.

    On an ``n``-word the image sums, over compositions ``(k_1, ..., k_j)`` of
    ``n`` and increasing unshuffles, the ``j``-letter words whose letters are
    the component values on the blocks.  Intertwines the Zinbiel coproduct
    (hence also the coshuffle one) up to the bound.

    The rows are generated from the components' keys rather than from the
    source words.  For each composition, each tuple ``(u_1, ..., u_j)`` of
    keys of the plain supports of ``F_{k_1}, ..., F_{k_j}`` (symmetric maps
    enter through :meth:`MultiMap.expand_plain`) and each increasing
    unshuffle, the letters of ``u_1 ... u_j`` are placed into the one word
    whose blocks the unshuffle reads back as the keys; that row gains the
    expansion of the keys' values with the Koszul sign of the unshuffle on
    that word.  The work is proportional to the (key tuple, unshuffle) pairs
    that fit under the bound, not to the source words.
    """
    for k, f in components.items():
        if f.degree != 0 and not f.is_zero():
            raise ValueError(f"component of arity {k} has nonzero degree {f.degree}")
    comp_tables: dict[int, MultiMap] = {
        k: f for k, f in components.items() if not f.is_zero()
    }
    rows = _comorphism_rows(source, target, comp_tables, bound, ZINBIEL, range(1, bound + 1))
    return TruncatedComorphism(source, target, bound, ZINBIEL, comp_tables, rows)


def _comorphism_rows(source, target, components, bound, flavor, parts) -> dict[Word, WordSum]:
    """The nonzero rows of the comorphism of ``flavor`` from the compositions
    into ``j`` blocks for ``j`` in ``parts``, whose image words have ``j``
    letters (the symmetric flavor keeps canonical words only); the
    components' degrees are not checked."""
    support = {k: list(f.expand_plain().constants.items()) for k, f in components.items()}
    odd = tuple(d % 2 for d in source.degrees)
    rows: dict[Word, WordSum] = {}
    for n in range(1, bound + 1):
        for comp in compositions(n):
            if len(comp) not in parts or any(k not in support for k in comp):
                continue
            for keys in itertools.product(*(support[k] for k in comp)):
                letters = tuple(x for u, _ in keys for x in u)
                images = _image_words([vec for _, vec in keys], target, flavor)
                for slots, sign in _increasing_placements(comp, tuple(odd[x] for x in letters)):
                    word = [0] * n
                    for s, x in zip(slots, letters):
                        word[s] = x
                    w = tuple(word)
                    if flavor == SYMMETRIC and not _is_canonical(w, odd):
                        continue
                    row = rows.setdefault(w, {})
                    for u, c in images:
                        add_into(row, u, c if sign > 0 else -c)
    return {w: row for w, row in rows.items() if row}


@lru_cache(maxsize=None)
def _increasing_placements(blocks: tuple[int, ...], parities: tuple[int, ...]) -> tuple:
    """Each increasing ``blocks``-unshuffle ``sigma`` as ``(sigma, sign)``
    for block letters of the given parities, in block order: letter ``t``
    of the blocks sits at slot ``sigma[t]`` of the word the unshuffle reads
    them from, and ``sign`` is the Koszul sign of the unshuffle on that
    word."""
    out = []
    for sigma in increasing_unshuffles(*blocks):
        degrees = [0] * len(sigma)
        for s, p in zip(sigma, parities):
            degrees[s] = p
        out.append((sigma, koszul_sign(sigma, degrees)))
    return tuple(out)


def _is_canonical(word: Word, odd) -> bool:
    """Sorted, with no repeated odd letter: a symmetric-algebra basis word."""
    return all(a < b or (a == b and not odd[a]) for a, b in zip(word, word[1:]))


def _image_words(block_vectors, target, flavor) -> list[tuple[Word, Scalar]]:
    """The expansion of the block values, each word sorted with its Koszul
    sign in the symmetric flavor; words that vanish there are dropped."""
    words = expand(block_vectors, 1)
    if flavor == ZINBIEL:
        return words
    out = []
    for w, c in words:
        norm, sign = target.normalize(w)
        if sign:
            out.append((norm, sign * c))
    return out
