"""Homotopy Lie and Loday structures on the shift, with their checkers.

A structure is a space with a family of degree +1 brackets.  Symmetric
families are candidates for the generalized Jacobi identity (equivalently a
square-zero coderivation of the reduced symmetric coalgebra); plain families
are checked against the anchored identity of the Zinbiel coalgebra.  Every
checker runs two independent routes and raises :class:`RouteDisagreement`
unless they give the same residual map word by word, and every checker
runs them in one place, :func:`_morphism_residuals`, on the morphism
identity ``p'(F Q) = q' F``.  A structure is the case ``F = q`` into the
same space with no brackets, ``p(Q Q) = 0``.  The first route is the
componentwise identity.  The second is formed at the restriction level
with no lift: the corestriction of the intertwining defect, the
composite of the components with the source brackets
(:func:`lifted_composite`, :func:`symmetric_composite`) less the target
brackets read on the rows of the comorphism, which are built only where
the image has a target bracket's arity, so none for a target with no
brackets; for a structure that is the square of the lifted coderivation.
The first route sums on the words the second forms: the keys of its
composite kernel, which keeps every word a pair of keys forms, and the
comorphism rows that meet a target bracket key, in one call of
:func:`_anchored_sums` or :func:`_symmetric_sums` per check and, for a
target with brackets, one of :func:`_increasing_sums` for the right side.
Its values come only from the split tables of :mod:`linfty.graded`
(:func:`linfty.graded._anchored_table`,
:func:`linfty.graded._symmetric_table` and
:func:`linfty.graded._increasing_table`), and it reads a symmetric map
through a signed plain table filled from :meth:`GradedSpace.normalize`, so
the routes share that word set and nothing else; a third route in
``tests/``, which visits every word, checks it.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .graded import (
    Word,
    _anchored_table,
    _increasing_table,
    _symmetric_table,
    compositions,
)
from .multimap import (
    PLAIN,
    SYMMETRIC,
    ZINBIEL,
    MultiMap,
    Vector,
    _comorphism_rows,
    expand,
    lifted_composite,
    merge_into,
    symmetric_composite,
)
from .report import (
    CheckReport,
    InputError,
    Residual,
    RouteDisagreement,
    format_vector,
    make_report,
)

__all__ = [
    "HomotopyStructure",
    "check_lie_infinity",
    "check_lie_morphism",
    "check_loday_infinity",
    "check_loday_morphism",
    "lie_to_loday",
]


class HomotopyStructure:
    """A space with an arity-indexed family of degree +1 brackets.

    ``flavor`` is ``"symmetric"`` for Lie-type structures and ``"plain"`` for
    Loday-type ones.  Brackets vanish above ``max_arity``, a file's
    ``max_arity`` setting; the adjoint actions split the brackets up to it,
    and the strict-tensor checks run at it as their bound.
    Degree-inhomogeneous brackets are rejected at construction.
    """

    __slots__ = ("space", "flavor", "brackets", "max_arity")

    def __init__(self, space, flavor, brackets: Mapping[int, MultiMap], max_arity=None):
        if flavor not in (SYMMETRIC, PLAIN):
            raise InputError(f"unknown structure flavor {flavor!r}")
        brackets = {k: f for k, f in brackets.items() if not f.is_zero()}
        for k, f in brackets.items():
            if f.arity != k:
                raise InputError(f"bracket stored at arity {k} has arity {f.arity}")
            if f.degree != 1:
                raise InputError(f"bracket of arity {k} has degree {f.degree}, not +1")
            if f.source is not space or f.target is not space:
                raise InputError("brackets must be endomorphisms of the structure space")
            if flavor == SYMMETRIC and f.flavor != SYMMETRIC:
                raise InputError(f"symmetric structure holds a plain arity-{k} bracket")
        if max_arity is None:
            max_arity = max(brackets, default=1)
        if any(k > max_arity for k in brackets):
            raise InputError("bracket arity exceeds the declared maximum")
        self.space = space
        self.flavor = flavor
        self.brackets = dict(sorted(brackets.items()))
        self.max_arity = max_arity

    def bracket(self, k: int) -> MultiMap | None:
        return self.brackets.get(k)

    def __repr__(self) -> str:
        ks = ",".join(str(k) for k in self.brackets)
        return (
            f"HomotopyStructure({self.space.name}, {self.flavor}, arities [{ks}], "
            f"max_arity={self.max_arity})"
        )


def lie_to_loday(structure: HomotopyStructure) -> HomotopyStructure:
    """Reinterpret a symmetric family as a plain (Zinbiel) one.

    The same brackets define a coderivation of the Zinbiel coalgebra, and the
    symmetric identity implies the anchored one.
    """
    if structure.flavor != SYMMETRIC:
        raise InputError("lie_to_loday expects a symmetric structure")
    return HomotopyStructure(
        structure.space, PLAIN, structure.brackets, structure.max_arity
    )


# ---------------------------------------------------------------------------
# defining identities


def _symmetric_sums(space, inner, outer, words) -> dict[Word, Vector]:
    """``sum sign * outer_{n-i+1}(inner_i(block), rest)`` over the
    unshuffle-insertion splits of each word, read from
    :func:`linfty.graded._symmetric_table`; ``inner`` and ``outer`` map
    arities to maps.  Returns each word's value where it is nonzero."""
    return _split_sums(space, inner, outer, words, _symmetric_table)


def _anchored_sums(space, inner, outer, words) -> dict[Word, Vector]:
    """``sum sign * outer_{n-k+1}(front, inner_k(block), tail)`` over the
    anchored splits of each word, read from
    :func:`linfty.graded._anchored_table`; ``inner`` and ``outer`` map
    arities to maps.  Returns each word's value where it is nonzero."""
    return _split_sums(space, inner, outer, words, _anchored_table)


class _SignedValues(dict):
    """A symmetric map's values on any ordering of a key, as a plain table:
    a word is filled when it is first read, from
    :meth:`GradedSpace.normalize`, with the value at its sort times the
    sign of the sort, ``None`` where the map vanishes."""

    __slots__ = ("normalize", "constants")

    def __init__(self, f: MultiMap):
        super().__init__()
        self.normalize, self.constants = f.source.normalize, f.constants

    def __missing__(self, word: Word) -> Vector | None:
        norm, sign = self.normalize(word)
        row = self.constants.get(norm) if sign else None
        if row and sign < 0:
            row = {o: -c for o, c in row.items()}
        self[word] = row
        return row


def _values(f: MultiMap):
    """The reader of ``f``'s value on a word of its arity, ``None`` where
    it vanishes: the constants of a plain map, a :class:`_SignedValues`
    table of a symmetric one."""
    return f.constants.get if f.flavor == PLAIN else _SignedValues(f).__getitem__


def _split_sums(space, inner, outer, words, table) -> dict[Word, Vector]:
    """The sums of :func:`_symmetric_sums` and :func:`_anchored_sums`, whose
    ``table`` gives the rows ``(k, sign, front, block, tail)`` of one word
    shape: each term is ``sign * outer_{n-k+1}(front + inner_k(block) +
    tail)``.  Each map's reader (:func:`_values`) is made once per call, and
    the rows of each shape, the word length and letter parities, are joined
    to the maps of their arities once per call; the terms are summed in
    place."""
    inner = {k: _values(f) for k, f in inner.items()}
    outer = {k: _values(f) for k, f in outer.items()}
    odd = tuple(d % 2 for d in space.degrees)
    plans: dict[tuple[int, ...], list] = {}
    sums: dict[Word, Vector] = {}
    for w in words:
        parities = tuple(map(odd.__getitem__, w))
        plan = plans.get(parities)
        if plan is None:
            n = len(w)
            arities = tuple(k for k in inner if n - k + 1 in outer)
            plan = plans[parities] = [
                (sign, front, block, tail, inner[k], outer[n - k + 1])
                for k, sign, front, block, tail in table(n, arities, parities)
            ]
        acc: Vector = {}
        for sign, front, block, tail, inner_value, outer_value in plan:
            value = inner_value(block(w))
            if not value:
                continue
            head, rest = front(w), tail(w)
            for b, c in value.items():
                row = outer_value(head + (b,) + rest)
                if row:
                    if sign < 0:
                        c = -c
                    for o, x in row.items():
                        acc[o] = acc.get(o, 0) + c * x
        if acc := {o: x for o, x in acc.items() if x}:
            sums[w] = acc
    return sums


def _increasing_sums(space, components, target, words) -> dict[Word, Vector]:
    """``sum sign * m_j(F_{k_1}(block_1), ..., F_{k_j}(block_j))`` over the
    compositions of each word's length into arities of ``components`` and
    the increasing splits of :func:`linfty.graded._increasing_table`, each
    ``m_j`` a bracket of ``target``; readers and plans are made as in
    :func:`_split_sums`, and :func:`expand` forms the multilinear product.
    Returns each word's value where it is nonzero."""
    inner = {k: _values(f) for k, f in components.items()}
    outer = {j: _values(m) for j, m in target.brackets.items()}
    odd = tuple(d % 2 for d in space.degrees)
    plans: dict[tuple[int, ...], list] = {}
    sums: dict[Word, Vector] = {}
    for w in words:
        parities = tuple(map(odd.__getitem__, w))
        plan = plans.get(parities)
        if plan is None:
            plan = plans[parities] = [
                (sign, tuple(zip(parts, map(inner.__getitem__, comp))), outer[len(comp)])
                for comp in compositions(len(w))
                if len(comp) in outer and all(k in inner for k in comp)
                for sign, parts in _increasing_table(comp, parities)
            ]
        acc: Vector = {}
        for sign, parts, outer_value in plan:
            values = [value(part(w)) for part, value in parts]
            if not all(values):
                continue
            for u, c in expand(values, sign):
                row = outer_value(u)
                if row:
                    for o, x in row.items():
                        acc[o] = acc.get(o, 0) + c * x
        if acc := {o: x for o, x in acc.items() if x}:
            sums[w] = acc
    return sums


def _residual_items(space, value_space, residuals: dict[Word, Vector]):
    return [
        Residual(len(w), space.format_word(w), format_vector(value_space, v))
        for w, v in residuals.items()
    ]


def _clear_denominators(tables: list[Mapping]) -> tuple[list[Mapping], int]:
    """``D``, the lcm of the denominators of the constants of ``tables``
    (maps from keys to vectors), and each table times ``D``, so that every
    constant is an ``int``; the tables themselves when ``D`` is 1.  The
    structure checks (:func:`_cleared`) and the action checks
    (:func:`linfty.action._cleared`) clear their data here."""
    den = lcm(*(c.denominator for t in tables for v in t.values() for c in v.values()))
    if den == 1:
        return tables, 1
    scaled = [
        {k: {o: c.numerator * (den // c.denominator) for o, c in v.items()} for k, v in t.items()}
        for t in tables
    ]
    return scaled, den


def _cleared(structure: HomotopyStructure) -> tuple[HomotopyStructure, int]:
    """The structure with its brackets times ``D``
    (:func:`_clear_denominators`), and ``D``.

    The structure identity is quadratic in the brackets, so the residual
    map of the cleared brackets is exactly ``D**2`` times the structure's."""
    tables, den = _clear_denominators([f.constants for f in structure.brackets.values()])
    return (structure, 1) if den == 1 else (_with_constants(structure, tables), den)


def _with_constants(structure: HomotopyStructure, tables) -> HomotopyStructure:
    """The structure with the constants of its brackets, in arity order,
    replaced by ``tables``, integer multiples of them
    (:func:`_clear_denominators`), which fill the copies unchecked
    (:meth:`MultiMap._unchecked`)."""
    brackets = {
        k: MultiMap._unchecked(f.source, f.target, k, f.degree, f.flavor, table)
        for (k, f), table in zip(structure.brackets.items(), tables)
    }
    return HomotopyStructure(structure.space, structure.flavor, brackets, structure.max_arity)


def _structure_report(
    check: str, structure: HomotopyStructure, bound: int, anchored: bool, den: int | None = None
) -> CheckReport:
    """The report of a structure checker: :func:`_morphism_residuals` with
    the brackets cleared by ``D`` (:func:`_cleared`) as the components, into
    the same space with no brackets (``target`` ``None``).  A caller whose
    brackets are already integral, ``D`` times the structure it reports on,
    passes that ``D`` as ``den``, and nothing is cleared."""
    if den is None:
        structure, den = _cleared(structure)
    space = structure.space
    residuals = _morphism_residuals(structure.brackets, structure, None, bound, anchored, den=den)
    return make_report(check, bound, _residual_items(space, space, residuals))


def check_lie_infinity(structure: HomotopyStructure, bound: int) -> CheckReport:
    """Verify the symmetric structure identity on all canonical words.

    The identity ``p(Q Q) = 0`` is the morphism identity of the brackets
    ``q`` into the same space with no brackets, so it runs the morphism
    checker's two routes (:func:`_morphism_residuals`): the componentwise
    double sum against the square ``q Q``, :func:`symmetric_composite` of
    the brackets with themselves, which forms only the lift entries whose
    word is a bracket key, from pairs of keys, and builds no lift row.  The
    double sum runs on the words the square forms, as
    :func:`check_loday_infinity` does.  Both routes run on the integral
    brackets of :func:`_cleared` and compare integer residual maps; only the
    report and a disagreement's message divide by ``D**2``.
    """
    if structure.flavor != SYMMETRIC:
        raise InputError("check_lie_infinity expects a symmetric structure")
    return _structure_report("lie-infinity", structure, bound, anchored=False)


def check_loday_infinity(structure: HomotopyStructure, bound: int) -> CheckReport:
    """Verify the anchored structure identity on all tensor words.

    As in :func:`check_lie_infinity`, the explicit double sum and the square
    ``q Q`` of the lifted Zinbiel coderivation, :func:`lifted_composite` of
    the brackets with themselves, are computed and compared.  The square
    forms only the lift entries whose word is a bracket key, from pairs of
    keys, with the lift's own signs; it builds no lift row.  It keeps every
    word one of its (key, key, placement) triples forms, and the double sum
    runs on those words and no others.  A split term is nonzero only when
    its inner block is a bracket key and its outer word one too, which is
    such a triple, so on every other word the identity holds term by term
    and the verdict still covers all words up to the bound.  The double
    sum (:func:`_anchored_sums`) runs once on that word set, and its values
    still come only from the anchored split table
    :func:`linfty.graded._anchored_table`; the word set is the one thing the
    routes share, and the every-word route of ``tests/test_loday_oracle.py``
    checks it.
    """
    return _structure_report("loday-infinity", structure, bound, anchored=True)


def _route_diff(space, value_space, a, b, labels: tuple[str, str]) -> str:
    """The first word (shortest, then lexicographic) where the residual maps
    ``a`` and ``b`` of the routes named by ``labels`` differ, with the value
    in ``value_space`` each route gives there."""
    bad = (w for w in set(a) | set(b) if a.get(w) != b.get(w))
    w = min(bad, key=lambda w: (len(w), w))
    return (
        f"first at [{space.format_word(w)}]: "
        f"{labels[0]} {format_vector(value_space, a.get(w, {}))}, "
        f"{labels[1]} {format_vector(value_space, b.get(w, {}))}"
    )


# ---------------------------------------------------------------------------
# morphisms


def _check_components(components: Mapping[int, MultiMap], source, target) -> None:
    for k, f in components.items():
        if f.is_zero():
            continue
        if f.degree != 0:
            raise InputError(f"morphism component of arity {k} has degree {f.degree}")
        if f.arity != k:
            raise InputError("component arity mismatch")
        if f.source is not source.space or f.target is not target.space:
            raise InputError("component spaces do not match the structures")


def _lie_components(components: Mapping[int, MultiMap], source, target) -> dict[int, MultiMap]:
    """The checked components (:func:`_check_components`) as symmetric maps
    (:func:`_symmetric_component`)."""
    _check_components(components, source, target)
    return {k: _symmetric_component(f) for k, f in components.items()}


def check_lie_morphism(
    components: Mapping[int, MultiMap],
    source: HomotopyStructure,
    target: HomotopyStructure,
    bound: int,
) -> CheckReport:
    """Verify the morphism identity between symmetric structures.

    The components are read as symmetric maps; a key that is not a
    canonical word of the source is refused.  Componentwise: for every
    canonical source word, the unshuffled sum of components applied after
    source brackets equals the target brackets applied to block images over
    increasing unshuffles.  The other route is the corestriction of the
    intertwining defect of the symmetric lifts, formed with no lift; the
    two residual maps must be equal word by word.
    """
    if source.flavor != SYMMETRIC or target.flavor != SYMMETRIC:
        raise InputError("check_lie_morphism expects symmetric structures")
    components = _lie_components(components, source, target)
    residuals = _morphism_residuals(components, source, target, bound, anchored=False)
    items = _residual_items(source.space, target.space, residuals)
    return make_report("lie-morphism", bound, items)


def check_loday_morphism(
    components: Mapping[int, MultiMap],
    source: HomotopyStructure,
    target: HomotopyStructure,
    bound: int,
) -> CheckReport:
    """Verify the anchored morphism identity between plain structures."""
    _check_components(components, source, target)
    residuals = _morphism_residuals(components, source, target, bound, anchored=True)
    items = _residual_items(source.space, target.space, residuals)
    return make_report("loday-morphism", bound, items)


def _symmetric_component(f: MultiMap) -> MultiMap:
    """A Lie-morphism component as a symmetric map on canonical keys."""
    for w in f.constants:
        norm, sign = f.source.normalize(w)
        if (norm, sign) != (w, 1):
            why = "is not canonical" if sign else "vanishes in the symmetric algebra"
            raise InputError(f"Lie-morphism component key [{f.source.format_word(w)}] {why}")
    return MultiMap(f.source, f.target, f.arity, f.degree, SYMMETRIC, f.constants)


def _morphism_residuals(components, source, target, bound, anchored: bool, den=1):
    """The residual map of the morphism identity, components after source
    brackets less target brackets on the comorphism image, crosschecked word
    by word against ``p'(F Q) - q' F``, the corestriction of the
    intertwining defect of the comorphism ``F``.  The callers check the
    components.

    ``p'(F Q)`` is the components after the lift of the source brackets,
    :func:`lifted_composite` or :func:`symmetric_composite` of the two
    families; ``q' F`` reads the target brackets on the comorphism rows
    whose image words have the arity of a target bracket, which it builds
    itself (:func:`_comorphism_rows`), none when the target has no
    brackets.  Neither codifferential is lifted.  The identity sum, of
    either flavor, visits only the words where a term can be nonzero: the
    keys of the composite, every word it forms from a component key and a
    source bracket key, and the comorphism rows whose image meets a target
    bracket key, which the pass of ``q' F`` collects.  Each side runs once
    on that word set: the components after the source brackets in
    :func:`_anchored_sums` or :func:`_symmetric_sums`, and, for a target
    with brackets, the target brackets on the block images in
    :func:`_increasing_sums`.  Their values come only from the split tables
    of :mod:`linfty.graded`; the dense defect of ``tests/dense_lifts.py``,
    formed on every word, checks the word set.

    A structure identity ``p(Q Q) = 0`` is the case ``F = q`` into the same
    space with no brackets, which a structure checker passes as ``target``
    ``None``; a disagreement's message then names the coderivation square.
    The components may be brackets cleared by ``den`` (:func:`_cleared`), so
    the returned map and a disagreement's message are divided by
    ``den**2``.
    """
    space = source.space
    tspace = space if target is None else target.space
    if anchored:
        coalgebra, composite, lhs_sums = ZINBIEL, lifted_composite, _anchored_sums
    else:
        coalgebra, composite, lhs_sums = SYMMETRIC, symmetric_composite, _symmetric_sums
    defect = composite(space, components, source.brackets, bound)
    words = set(defect)
    if target is not None and target.brackets:
        rows = _comorphism_rows(space, tspace, components, bound, coalgebra, target.brackets)
        for w, row in rows.items():
            acc = defect.setdefault(w, {})
            for u, c in row.items():
                f = target.bracket(len(u))
                value, sign = f.lookup(u) if f is not None else (None, 0)
                if value:
                    words.add(w)
                    merge_into(acc, value, -c if sign > 0 else c)
    defect = {w: v for w, v in defect.items() if v}
    residuals = lhs_sums(space, source.brackets, components, words)
    if target is not None and target.brackets:
        for w, value in _increasing_sums(space, components, target, words).items():
            merge_into(residuals.setdefault(w, {}), value, -1)
        residuals = {w: v for w, v in residuals.items() if v}
    if residuals != defect:
        residuals, defect = _unscaled(residuals, den), _unscaled(defect, den)
        if target is None:
            kind = "anchored" if anchored else "symmetric"
            what = f"{kind} identity sum and coderivation square differ"
            routes = ("identity sum", "coderivation square")
        else:
            kind = "anchored " if anchored else ""
            what = f"componentwise {kind}morphism identity and comorphism intertwining disagree"
            routes = ("identity sum", "intertwining defect")
        raise RouteDisagreement(f"{what}: {_route_diff(space, tspace, residuals, defect, routes)}")
    return _unscaled(residuals, den)


def _unscaled(residuals: dict[Word, Vector], den: int) -> dict[Word, Vector]:
    """The residual map with every value divided by ``den**2``."""
    if den == 1:
        return residuals
    return {w: {o: Fraction(c, den * den) for o, c in v.items()} for w, v in residuals.items()}
