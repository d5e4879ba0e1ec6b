"""Actions of one symmetric structure on another, their coherence, and the
non-abelian hemisemidirect product.

An action is stored through its doubly indexed component family: degree +1
maps taking a symmetric word in the acting space and a symmetric word in the
target space to a target vector.  Fixing the acting word gives the
restriction family of a coderivation of the target's reduced symmetric
coalgebra; the action axiom is the morphism identity into the differential
graded algebra of such coderivations.  It is also the symmetric identity of
one structure on the direct sum, the semidirect brackets
(:func:`_semidirect`), on the words with an acting and a target letter,
and :func:`check_action` reads it there, on acting words and target words
each of length at most the bound.  The hemisemidirect product is the same
brackets with every acting letter kept in front.  Coherence asks that the
coderivations commute with every adjoint coderivation and every mixed one,
on words whose total weight is at most the bound, and the main crosscheck
confirms, instance by instance, that coherence is exactly what makes the
product pass the anchored (Loday) identity.  A coderivation is fixed by
its restriction, so every commutator here is two composites of families
on the direct sum, and no coderivation is lifted.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .graded import GradedSpace, Word, _unshuffles
from .homotopy import (
    HomotopyStructure,
    _clear_denominators,
    _structure_report,
    _unscaled,
    _with_constants,
)
from .memo import memo
from .multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    TruncatedCoderivation,
    Vector,
    _letter_index,
    _signed_orderings,
    _symmetric_composite,
    exact,
    lift_zinbiel_coderivation,
    merge_into,
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
    "ActionFamily",
    "BiMultiMap",
    "HemiProduct",
    "adjoint_action",
    "adjoint_representation",
    "check_action",
    "check_coherence",
    "hemisemidirect",
    "theorem_crosscheck",
]


class BiMultiMap:
    """A map multilinear in two blocks of slots, symmetric inside each block.

    Constants are keyed by a pair (acting word, target word), both in
    canonical order; evaluation on arbitrary orderings sorts each block with
    its own Koszul sign.  Letters never cross the block boundary.  Constants
    are stored in the normal form of :func:`linfty.multimap.exact`; a float
    is refused.
    """

    __slots__ = ("e_space", "v_space", "e_arity", "v_arity", "degree", "constants")

    def __init__(self, e_space, v_space, e_arity, v_arity, degree, constants):
        if e_arity < 1 or v_arity < 1:
            raise InputError("both blocks of a component must be nonempty")
        table: dict[tuple[Word, Word], Vector] = {}
        for (ew, vw), vec in constants.items():
            ew, vw = tuple(ew), tuple(vw)
            if len(ew) != e_arity or len(vw) != v_arity:
                raise InputError(f"key {(ew, vw)} does not match arities")
            for word, space, label in ((ew, e_space, "acting"), (vw, v_space, "target")):
                if any(not 0 <= i < space.dim for i in word):
                    raise InputError(f"{label} key {word} leaves the {label} basis")
                norm, sign = space.normalize(word)
                if sign == 0:
                    raise InputError(f"{label} key {word} vanishes in the symmetric algebra")
                if norm != word or sign != 1:
                    raise InputError(f"{label} key {word} is not canonical")
            deg_in = e_space.word_degree(ew) + v_space.word_degree(vw)
            clean: Vector = {}
            for out, c in vec.items():
                c = exact(c, ((ew, vw), out))
                if not c:
                    continue
                if not 0 <= out < v_space.dim:
                    raise InputError(
                        f"component constant {(ew, vw)} -> output index {out} leaves "
                        f"the target basis"
                    )
                if v_space.degrees[out] != degree + deg_in:
                    raise InputError(
                        f"component constant {(ew, vw)} -> {v_space.symbols[out]} "
                        f"breaks degree homogeneity"
                    )
                clean[out] = c
            if clean:
                table[(ew, vw)] = clean
        self.e_space = e_space
        self.v_space = v_space
        self.e_arity = e_arity
        self.v_arity = v_arity
        self.degree = degree
        self.constants = table

    @classmethod
    def _unchecked(cls, e_space, v_space, e_arity, v_arity, degree, table) -> "BiMultiMap":
        """A component on ``table`` as it is, with no check and no copy, as
        :meth:`linfty.multimap.MultiMap._unchecked`."""
        self = object.__new__(cls)
        self.e_space, self.v_space, self.e_arity = e_space, v_space, e_arity
        self.v_arity, self.degree, self.constants = v_arity, degree, table
        return self

    def eval(self, eword: Word, vword: Word) -> Vector:
        en, es = self.e_space.normalize(tuple(eword))
        if not es:
            return {}
        vn, vs = self.v_space.normalize(tuple(vword))
        if not vs:
            return {}
        row = self.constants.get((en, vn))
        if not row:
            return {}
        sign = es * vs
        return dict(row) if sign == 1 else {k: -v for k, v in row.items()}

    def is_zero(self) -> bool:
        return not self.constants


class ActionFamily:
    """A degree +1 component family defining a candidate action.

    ``components[(k, n)]`` maps a k-word of the acting structure and an
    n-word of the target structure to a target vector.  The family is an
    action exactly when :func:`check_action` reports no residuals.

    The restriction families of the coderivations the coherence check
    brackets are tables of one split index of the keys (:func:`_absorbed`),
    read where they are filed; none of them is lifted.  The family memoizes
    (:func:`linfty.memo.memo`) what its checks re-read: that split index
    under ``("split",)``, the semidirect brackets under ``("semidirect",)``
    (:func:`_semidirect`), the coherence verdict under ``("coherent",
    bound)`` and its cleared copy under ``("cleared",)`` (:func:`_cleared`).
    A family that :func:`_cleared` made keeps the factor ``D`` of its data
    in ``_den``; every other family has ``_den`` 1.
    """

    def __init__(self, E: HomotopyStructure, V: HomotopyStructure, components):
        if E.flavor != SYMMETRIC or V.flavor != SYMMETRIC:
            raise InputError("actions happen between symmetric structures")
        comps: dict[tuple[int, int], BiMultiMap] = {}
        for (k, n), f in components.items():
            if f.is_zero():
                continue
            if f.e_space is not E.space or f.v_space is not V.space:
                raise InputError("component spaces do not match the structures")
            if (f.e_arity, f.v_arity) != (k, n):
                raise InputError("component arities do not match their index")
            if f.degree != 1:
                raise InputError(f"component {(k, n)} has degree {f.degree}, not +1")
            comps[(k, n)] = f
        self.E = E
        self.V = V
        self.components = dict(sorted(comps.items()))
        self._memo: dict = {}
        self._den = 1

    def is_coherent(self, bound: int) -> bool:
        """The verdict of :func:`check_coherence` at ``bound``, computed once."""
        return memo(self._memo, ("coherent", bound), lambda: check_coherence(self, bound).ok)


def _split_index(space: GradedSpace, keyed):
    """Each canonical key ``y`` of the ``(head, y, value)`` triples split
    into a picked sub-multiset ``v``, possibly empty, and a nonempty rest
    ``w``, as ``(head, v) -> {len(w): {w: value}}``, ``value`` times the
    sign of ``normalize(v + w)``.  Both blocks are sub-words of ``y``, so
    canonical.  The work follows the keys, not the words of ``space``."""
    index: dict[tuple[Word, Word], dict[int, dict[Word, Vector]]] = {}
    for head, y, value in keyed:
        negated = {o: -c for o, c in value.items()}
        for picked, rest in _sub_multisets(len(y)):
            v = tuple(y[j] for j in picked)
            w = tuple(y[j] for j in rest)
            by_length = index.setdefault((head, v), {}).setdefault(len(w), {})
            if w not in by_length:
                by_length[w] = value if space.normalize(v + w)[1] > 0 else negated
    return index


def _absorbed(action: ActionFamily) -> dict[tuple[Word, Word], dict[int, dict[Word, Vector]]]:
    """The split index (:func:`_split_index`) of the action, kept under
    ``("split",)``, of each key ``y`` of a target bracket, head ``()``, and
    each key ``(x, y)`` of a component, head ``x``.  The tables under
    ``(x, v)`` are the family ``w -> value(x; v + w)``: ``phi_x``,
    ``ad_v``, the mixed family or, under ``((), ())``, the target's
    brackets."""

    def build():
        brackets = action.V.brackets.values()
        keyed = [((), y, value) for f in brackets for y, value in f.constants.items()]
        for f in action.components.values():
            keyed += [(x, y, value) for (x, y), value in f.constants.items()]
        return _split_index(action.V.space, keyed)

    return memo(action._memo, ("split",), build)


@lru_cache(maxsize=None)
def _sub_multisets(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each split of the slots ``0..n-1`` into a picked block, possibly
    empty, and a nonempty rest, both increasing: the ``(r, n - r)``
    unshuffles (:func:`linfty.graded._unshuffles`) for ``r < n``."""
    return tuple((s[:r], s[r:]) for r in range(n) for s in _unshuffles((r, n - r)))


# ---------------------------------------------------------------------------
# the action axiom


def _cleared(action: ActionFamily) -> ActionFamily:
    """The action with the constants of its acting brackets, target brackets
    and components times ``D``, the lcm of their denominators
    (:func:`linfty.homotopy._clear_denominators`), so that each is an
    ``int``, and with ``_den`` set to ``D``; the action itself when ``D`` is
    1, and a family that was cleared.  The copy is kept under
    ``("cleared",)``, ``None`` when there is none, so the denominators of a
    family are scanned once however many checks read it.

    Every term of the action axiom and of both coherence commutators is
    bilinear in those data, so every residual of the cleared family is
    exactly ``D**2`` times the action's, and the checks divide by
    ``_den**2`` only the values they report.  A cleared family clears to
    itself, so the checks on one action share the cleared family's memo.
    The copies are integer multiples of maps validated when the action was
    built, so they are filled unchecked (:meth:`BiMultiMap._unchecked`,
    :func:`linfty.homotopy._with_constants`).
    """
    if action._den != 1:
        return action

    def build():
        E, V = action.E, action.V
        maps = [*E.brackets.values(), *V.brackets.values(), *action.components.values()]
        tables, den = _clear_denominators([f.constants for f in maps])
        if den == 1:
            return None
        e, v = len(E.brackets), len(E.brackets) + len(V.brackets)
        comps = {
            (k, n): BiMultiMap._unchecked(f.e_space, f.v_space, k, n, f.degree, table)
            for ((k, n), f), table in zip(action.components.items(), tables[v:])
        }
        cleared = ActionFamily(
            _with_constants(E, tables[:e]), _with_constants(V, tables[e:v]), comps
        )
        cleared._den = den
        return cleared

    return memo(action._memo, ("cleared",), build) or action


def _sum_space(action: ActionFamily) -> GradedSpace:
    """The direct sum of the acting and target spaces, acting letters first,
    so the target letters start at ``E.space.dim``.  A letter is its space's
    name, a dot and its symbol; the target's prefix gains a ``'`` when the
    names are equal, and another while a target letter would still spell an
    acting one, as names and symbols may hold dots."""
    espace, vspace = action.E.space, action.V.space
    basis = [(f"{espace.name}.{s}", d) for s, d in zip(espace.symbols, espace.degrees)]
    acting = {s for s, _ in basis}
    vname = vspace.name if vspace.name != espace.name else f"{vspace.name}'"
    while any(f"{vname}.{s}" in acting for s in vspace.symbols):
        vname += "'"
    basis += [(f"{vname}.{s}", d) for s, d in zip(vspace.symbols, vspace.degrees)]
    return GradedSpace(f"{espace.name}+{vspace.name}", basis)


def _semidirect(action: ActionFamily) -> tuple[GradedSpace, dict[int, dict[Word, Vector]]]:
    """The direct sum (:func:`_sum_space`) and the tables of its symmetric
    brackets by arity, kept under ``("semidirect",)``: the acting
    structure's constants as they are, then each target bracket key ``y``
    and each component key ``(x, y)`` filed under ``x + (offset + y)``,
    with the outputs offset; the keys were validated with the action.  The
    action axiom is the square of these brackets (:func:`check_action`),
    and the hemisemidirect product their orderings with every acting letter
    in front (:class:`HemiProduct`)."""

    def build():
        E, V = action.E, action.V
        space, off = _sum_space(action), E.space.dim
        tables = {k: dict(f.constants) for k, f in E.brackets.items()}
        keyed = [((), y, vec) for f in V.brackets.values() for y, vec in f.constants.items()]
        for f in action.components.values():
            keyed += [(x, y, vec) for (x, y), vec in f.constants.items()]
        for x, y, vec in keyed:
            table = tables.setdefault(len(x) + len(y), {})
            table[x + tuple(off + i for i in y)] = {off + o: c for o, c in vec.items()}
        return space, {k: tables[k] for k in sorted(tables)}

    return memo(action._memo, ("semidirect",), build)


def check_action(action: ActionFamily, bound: int) -> CheckReport:
    """The action axiom as the square of the semidirect brackets.

    The action is a symmetric structure on the direct sum
    (:func:`_semidirect`), and the axiom is its identity on the words with
    an acting and a target letter: one composite of the brackets with the
    keys that hold a target letter, whose values are target vectors and
    whose words all hold a target letter.  The report keeps the words with
    ``n`` acting letters, ``1 <= n <= bound``, and at most ``bound`` target
    letters, as ``x ; v``: acting and target words are each bounded by the
    bound, not their total weight.  A
    pair of keys ``u, y`` forms words of at most ``len(u) + len(y) - 1``
    letters, so the composite runs at ``2 * bound`` and forms every word the
    pairs of keys under the per-block bound form.  It runs on ``int``
    constants (:func:`_cleared`); only the reported values are divided.
    """
    action = _cleared(action)
    espace, vspace = action.E.space, action.V.space
    space, brackets = _semidirect(action)
    off = espace.dim
    outer = [{y: v for y, v in table.items() if y[-1] >= off} for table in brackets.values()]
    inner = (pair for table in brackets.values() for pair in table.items())
    square = _symmetric_composite(space, _letter_index(space, outer), inner, 2 * bound)
    items: list[Residual] = []
    for w, diff in _unscaled(square, action._den).items():
        n = bisect_left(w, off)
        if diff and 1 <= n <= bound and len(w) - n <= bound:
            v = tuple(i - off for i in w[n:])
            word = f"{espace.format_word(w[:n])} ; {vspace.format_word(v)}"
            value = format_vector(vspace, {o - off: c for o, c in diff.items()})
            items.append(Residual(n, word, value))
    return make_report("action", bound, items)


# ---------------------------------------------------------------------------
# coherence


def _coherence_firsts(action: ActionFamily, bound: int):
    """The first family of each coherence commutator, as ``(label, weight,
    parity, by_length)``: ``ad_v`` at each key ``((), v)`` of the split
    index (:func:`_absorbed`) and the mixed family at each key ``(x, v)``,
    with ``v`` nonempty, an entry under the bound, and room left under it
    for an acting word and a probe word.  ``by_length`` is the index's
    tables under the key, and ``parity`` that of the family's degree
    ``1 + |x| + |v|``.  Every other first family is empty and brackets to
    zero, so it is never formed."""
    espace, vspace = action.E.space, action.V.space
    for (x, v), by_length in _absorbed(action).items():
        weight = len(x) + len(v)
        if v and weight <= bound - 2 and min(by_length) <= bound:
            label = f"{espace.format_word(x)} ; " if x else "ad "
            parity = (1 + espace.word_degree(x) + vspace.word_degree(v)) % 2
            yield label + vspace.format_word(v), weight, parity, by_length


def check_coherence(action: ActionFamily, bound: int) -> CheckReport:
    """Vanishing of the two commutator families, aligned by total weight.

    The adjoint condition is checked for all target words ``v``, acting
    words ``x`` and probe words ``w`` with ``|v|+|x|+|w| <= bound``; the
    mixed condition for all ``x, v, y, w`` with total length within the
    bound.  These are exactly the instances whose defects can appear in the
    anchored identity of the direct-sum brackets at the same bound.  On the
    direct sum (:func:`_sum_space`) the components are one family ``Phi``,
    ``y + w -> phi_y(w)``, so the commutators of a first family ``F`` with
    every ``phi_y`` are one bracket ``[F, Phi]`` at ``bound`` less the
    weight of ``F``, each word split at the offset into ``y`` and ``w``.
    The first families are formed only at the keys of the split index
    (:func:`_coherence_firsts`); every other one brackets to zero.  ``Phi``
    is read off the split index too, not off :func:`_semidirect`, which the
    product is built from, so :func:`theorem_crosscheck` compares two
    independent routes.  The commutators run on ``int`` constants
    (:func:`_cleared`); only the reported values are divided.
    """
    action = _cleared(action)
    firsts = list(_coherence_firsts(action, bound))
    if not firsts:
        return make_report("coherence", bound, [])
    espace, vspace = action.E.space, action.V.space
    space, off = _sum_space(action), espace.dim
    phi = {
        y + tuple(off + i for i in w): {off + o: c for o, c in value.items()}
        for (y, v), by_length in _absorbed(action).items()
        if y and not v
        for table in by_length.values()
        for w, value in table.items()
    }
    phi_index = _letter_index(space, [phi])
    items: list[Residual] = []
    for label, weight, parity, by_length in firsts:
        f = {
            tuple(off + i for i in w): {off + o: c for o, c in value.items()}
            for table in by_length.values()
            for w, value in table.items()
        }
        # p[F, Phi] = f Phi - (-1)^{|f|} Phi F, for Phi has degree 1
        limit = bound - weight
        bracket = _symmetric_composite(space, _letter_index(space, [f]), phi.items(), limit)
        sign = 1 if parity else -1
        for w, vec in _symmetric_composite(space, phi_index, f.items(), limit).items():
            merge_into(bracket.setdefault(w, {}), vec, sign)
        for w, diff in _unscaled(bracket, action._den).items():
            if diff:
                n = bisect_left(w, off)
                y, probe = espace.format_word(w[:n]), vspace.format_word([i - off for i in w[n:]])
                value = format_vector(vspace, {o - off: c for o, c in diff.items()})
                items.append(Residual(weight + len(w), f"{label} ; {y} ; {probe}", value))
    return make_report("coherence", bound, items)


# ---------------------------------------------------------------------------
# the hemisemidirect product


class HemiProduct:
    """The semidirect brackets (:func:`_semidirect`) with every acting
    letter kept in front, stored plain.

    Restricted to pure acting words the brackets are the acting structure's;
    restricted to pure target words they are the target's; the only mixed
    values occur on words with all acting letters in front, where they are
    the action components.  Every other interleaving is zero.  Each
    semidirect key splits at the offset into its acting and target blocks,
    and each ordering of a block comes with its Koszul sign from one cached
    table (:func:`linfty.multimap._signed_orderings`), so building the
    product sorts no word, and its plain brackets are filled unchecked
    (:meth:`linfty.multimap.MultiMap._unchecked`), as their keys and values
    were validated with the action.
    """

    def __init__(self, action: ActionFamily):
        space, semidirect = _semidirect(action)
        self.space = space
        self.v_offset = off = action.E.space.dim
        odd = tuple(d % 2 for d in space.degrees)
        brackets: dict[int, MultiMap] = {}
        for k, symmetric in semidirect.items():
            table: dict[Word, Vector] = {}
            for w, vec in symmetric.items():
                cut = bisect_left(w, off)
                e, v = w[:cut], w[cut:]
                values = vec, {o: -c for o, c in vec.items()}
                for ue, se in _signed_orderings(e, tuple(odd[i] for i in e)):
                    for uv, sv in _signed_orderings(v, tuple(odd[i] for i in v)):
                        table[ue + uv] = values[se != sv]
            brackets[k] = MultiMap._unchecked(space, space, k, 1, PLAIN, table)
        E, V = action.E, action.V
        max_arity = max(E.max_arity, V.max_arity, *semidirect, 1)
        self.structure = HomotopyStructure(space, PLAIN, brackets, max_arity)

    # -- index plumbing -------------------------------------------------------

    def is_pure_v(self, word: Word) -> bool:
        return min(word, default=self.v_offset) >= self.v_offset

    def to_v_word(self, word: Word) -> Word:
        return tuple(i - self.v_offset for i in word)

    def from_v_word(self, word: Word) -> Word:
        return tuple(i + self.v_offset for i in word)

    def e_part(self, vec: Vector) -> Vector:
        return {i: c for i, c in vec.items() if i < self.v_offset}

    def v_part(self, vec: Vector) -> Vector:
        return {i - self.v_offset: c for i, c in vec.items() if i >= self.v_offset}

    def codifferential(self, bound: int) -> TruncatedCoderivation:
        return lift_zinbiel_coderivation(self.space, self.structure.brackets, bound)


def hemisemidirect(action: ActionFamily) -> HemiProduct:
    return HemiProduct(action)


def theorem_crosscheck(action: ActionFamily, bound: int) -> tuple[CheckReport, CheckReport]:
    """Coherence verdict against the anchored identity of the product.

    The two must agree for every genuine action; disagreement is surfaced as
    an internal-consistency error carrying the first offending residuals.
    The action is cleared of denominators once (:func:`_cleared`): the axiom
    and coherence checks share the cleared family, and the product is built
    once, from it.  Its brackets are the action's times ``D``, so its Loday
    check (:func:`linfty.homotopy._structure_report`) runs on them with that
    ``D``, clears nothing, and divides its report by ``D**2``: the report
    equals ``check_loday_infinity`` of the action's own product.
    """
    cleared = _cleared(action)
    axiom = check_action(cleared, bound)
    if not axiom.ok:
        raise InputError(
            "theorem crosscheck needs a verified action; axiom residuals: "
            + "; ".join(f"[{r.word}]" for r in axiom.residuals[:3])
        )
    coherent = check_coherence(cleared, bound)
    product = hemisemidirect(cleared)
    loday = _structure_report(
        "loday-infinity", product.structure, bound, anchored=True, den=cleared._den
    )
    if coherent.ok != loday.ok:
        failing = coherent if loday.ok else loday
        first = failing.residuals[0]
        raise RouteDisagreement(
            f"coherence says {coherent.verdict} but the product identity says "
            f"{loday.verdict}; first {failing.check} residual at "
            f"[{first.word}] = {first.value}"
        )
    return coherent, loday


# ---------------------------------------------------------------------------
# canonical actions


def _adjoint_components(E: HomotopyStructure, v_arities) -> dict[tuple[int, int], BiMultiMap]:
    """The components ``(x, w) -> l(x + w)`` of ``E`` on itself with
    ``len(w)`` in ``v_arities``: the split index of ``E``'s bracket keys
    under ``((), x)``, ``x`` nonempty.  Its keys are sub-words of canonical
    keys and its values ``E``'s constants or their negations, so the tables
    are filled unchecked; no bracket is evaluated on a word."""
    space, tables = E.space, {}
    keyed = [((), y, value) for f in E.brackets.values() for y, value in f.constants.items()]
    for (_, x), by_length in _split_index(space, keyed).items():
        for n, table in by_length.items():
            if x and n in v_arities:
                tables.setdefault((len(x), n), {}).update(((x, w), c) for w, c in table.items())
    return {kn: BiMultiMap._unchecked(space, space, *kn, 1, t) for kn, t in tables.items()}


def adjoint_representation(E: HomotopyStructure) -> ActionFamily:
    """The action of a structure on its own underlying complex: the target
    keeps only the unary bracket, and the components feed an acting word and
    one letter into the brackets.  Always an action, always coherent."""
    m1 = E.bracket(1)
    V = HomotopyStructure(E.space, SYMMETRIC, {1: m1} if m1 is not None else {}, E.max_arity)
    return ActionFamily(E, V, _adjoint_components(E, {1}))


def adjoint_action(E: HomotopyStructure) -> ActionFamily:
    """The full self-action: every component is a bracket with split slots."""
    return ActionFamily(E, E, _adjoint_components(E, range(1, E.max_arity)))
