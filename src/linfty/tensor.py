"""Non-abelian homotopy embedding tensors and their derived machinery.

A tensor is a degree-0 comorphism from the target tensor coalgebra to the
acting one, stored through its components.  It is *verified* when the
curvature of its coderivation vanishes inside the space of target-to-acting
maps; the package evaluates that condition along two independent routes:

* the explicit componentwise equations (bracket side against the
  coderivation-expansion side), which are the morphism identity of the
  tensor from its descendent structure into the acting one and are
  evaluated by the morphism checker, and
* the projected iterated-commutator series of the product codifferential
  with the tensor's coderivation, which terminates per output weight
  because every bracket with the tensor consumes target letters.

Every tensor induces a plain (Loday-type) bracket family on the target,
its descendent, formed in one pass over the action's keys; verified
tensors are exactly the morphisms from it into the acting structure, and
carry a deformation complex whose differential runs on plain word tables,
as the series route does.  Each check builds the comorphism rows it reads;
nothing is memoized on a tensor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .action import (
    ActionFamily,
    HemiProduct,
    _semidirect,
    adjoint_representation,
    check_action,
    hemisemidirect,
)
from .graded import GradedSpace, Word
from .homotopy import HomotopyStructure, _morphism_residuals, _residual_items, lie_to_loday
from .linalg import rank
from .memo import memo
from .multimap import (
    PLAIN,
    SYMMETRIC,
    ZINBIEL,
    MultiMap,
    Scalar,
    Vector,
    _comorphism_rows,
    _composite,
    _letter_index,
    _prefix_rows,
    _signed_orderings,
    _slot_index,
    _symmetric_composite,
    _words_of_length,
    balavoine_bracket,
    exact,
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
    "DeformationComplex",
    "EmbeddingTensor",
    "adjoint_strict_check",
    "centroid_check",
    "check_descendent_morphism",
    "check_embedding",
    "check_embedding_explicit",
    "check_embedding_mc",
    "cohomology_rank",
    "deformation_complex",
    "descendent",
    "identity_tensor",
]

_SERIES_SLACK = 2


class EmbeddingTensor:
    """Degree-0 component family from target words to the acting space."""

    def __init__(self, v_space: GradedSpace, e_space: GradedSpace, components):
        comps: dict[int, MultiMap] = {}
        for k, f in components.items():
            if f.is_zero():
                continue
            if f.arity != k:
                raise InputError("tensor component arity mismatch")
            if f.degree != 0:
                raise InputError(f"tensor component of arity {k} has degree {f.degree}")
            if f.source is not v_space or f.target is not e_space:
                raise InputError("tensor component spaces do not match")
            comps[k] = f
        self.v_space = v_space
        self.e_space = e_space
        self.components = dict(sorted(comps.items()))

    def __repr__(self) -> str:
        ks = ",".join(str(k) for k in self.components)
        return f"EmbeddingTensor({self.v_space.name}->{self.e_space.name}, arities [{ks}])"


def identity_tensor(space: GradedSpace) -> EmbeddingTensor:
    ident = MultiMap(
        space, space, 1, 0, PLAIN, {(i,): {i: 1} for i in range(space.dim)}
    )
    return EmbeddingTensor(space, space, {1: ident})


# ---------------------------------------------------------------------------
# preconditions and shared plumbing


def _ensure_coherent(action: ActionFamily, bound: int) -> None:
    """Refuse a family that is not a coherent action at ``bound``, naming
    the check that fails; only a refusal runs a check again."""
    if not action.is_coherent(bound):
        if not check_action(action, bound).ok:
            raise InputError("the tensor layer needs a verified action")
        raise InputError("the action is not coherent at this bound")


def _check_tensor_spaces(tensor: EmbeddingTensor, action: ActionFamily) -> None:
    if tensor.v_space is not action.V.space or tensor.e_space is not action.E.space:
        raise InputError("tensor spaces do not match the action")


def _on_product(hemi: HemiProduct, rows: Iterable) -> dict[Word, Vector]:
    """Pairs ``(target word, vector or its items)`` as a table on the product."""
    return {hemi.from_v_word(w): dict(vec) for w, vec in rows}


# ---------------------------------------------------------------------------
# the explicit component equations


def check_embedding_explicit(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> CheckReport:
    """The displayed bracket-versus-expansion equations on all target words.

    For every ordered target word, the acting brackets applied to the full
    comorphism image must match the tensor applied to the coderivation
    expansion of the induced restriction maps.  The expansion is the tensor
    after the brackets of the :func:`descendent` structure, so the equations
    are the anchored morphism identity of the tensor from that structure
    into the acting one, read as a plain structure: the paper's theorem that
    a tensor is verified exactly when it is such a morphism.  They are
    evaluated by the morphism checker (:func:`_descendent_identity`), and
    each residual is its value negated, the bracket side less the expansion
    side.
    """
    residuals = _descendent_identity(tensor, action, bound)
    negated = {w: {b: -c for b, c in v.items()} for w, v in residuals.items()}
    items = _residual_items(action.V.space, action.E.space, negated)
    return make_report("embedding-explicit", bound, items)


def _descendent_identity(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> dict[Word, Vector]:
    """The residual map of the anchored morphism identity of the tensor from
    its :func:`descendent` structure into ``lie_to_loday(E)``, from the
    morphism checker's two routes, which build the comorphism rows they
    read."""
    source = descendent(tensor, action, bound)
    target = lie_to_loday(action.E)
    return _morphism_residuals(tensor.components, source, target, bound, True)


# ---------------------------------------------------------------------------
# the projected commutator-series route


def _ad_series(
    space: GradedSpace, start: Mapping[Word, Vector], t: Mapping[Word, Vector], bound: int
) -> dict[Word, Vector]:
    """The restriction ``p sum_{m >= 0} [..[S, T].., T] / m!`` of the series
    of the Zinbiel lifts ``S`` and ``T`` of the plain tables ``start``
    (degree 1) and ``t`` (degree 0) on the words up to ``bound``,
    stabilization asserted.

    A coderivation is fixed by its restriction, so each term is the
    :func:`balavoine_bracket` of the previous term's table, of degree 1,
    with ``t``, ``a T - t A``; no term is lifted.  The summed values are
    returned in the normal form of :func:`linfty.multimap.exact`.
    """
    acc: dict[Word, Vector] = {}
    for w, vec in start.items():
        if len(w) <= bound:
            merge_into(acc.setdefault(w, {}), vec)
    term = start
    factorial = 1
    step = 0
    while term:
        step += 1
        factorial *= step
        term = balavoine_bracket(space, term, 1, t, 0, bound)
        for w, vec in term.items():
            merge_into(acc.setdefault(w, {}), vec, Fraction(1, factorial))
        if step > 2 * bound + _SERIES_SLACK:
            raise RouteDisagreement("commutator series did not stabilize")
    return {w: {o: exact(c, (w, o)) for o, c in vec.items()} for w, vec in acc.items() if vec}


def _twisted(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> tuple[HemiProduct, dict[Word, Vector]]:
    """The product of a coherent action and the table of its codifferential
    ``Q`` twisted by the tensor: :func:`_ad_series` of the product's brackets
    and the tensor's components up to ``bound``, as tables on the product.
    The series route projects it, and the deformation complex keeps it whole
    once the projection is empty; ``Q`` projects to nothing, as on
    pure-target words the product's brackets take target values only."""
    _check_tensor_spaces(tensor, action)
    _ensure_coherent(action, bound)
    hemi = hemisemidirect(action)
    q = {w: vec for f in hemi.structure.brackets.values() for w, vec in f.constants.items()}
    comps = tensor.components.items()
    t = _on_product(hemi, (p for k, f in comps if k <= bound for p in f.constants.items()))
    return hemi, _ad_series(hemi.space, q, t, bound)


def _project_h(table: Mapping[Word, Vector], hemi: HemiProduct) -> dict[Word, Vector]:
    """Keep exactly the components sending pure-target words to acting letters."""
    out: dict[Word, Vector] = {}
    for w, vec in table.items():
        if not hemi.is_pure_v(w):
            continue
        evec = hemi.e_part(vec)
        if evec:
            out[hemi.to_v_word(w)] = evec
    return out


def check_embedding_mc(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> CheckReport:
    """Flatness of the tensor's coderivation inside the derived-bracket frame.

    Projects the twisted codifferential's table (:func:`_twisted`), the
    iterated-commutator series of the product codifferential with the
    tensor's coderivation on their restriction tables, onto target-to-acting
    components; nothing is lifted.  The series is finite per output weight;
    stabilization is asserted at run time rather than assumed.
    """
    hemi, series = _twisted(tensor, action, bound)
    items = _residual_items(action.V.space, action.E.space, _project_h(series, hemi))
    return make_report("embedding-mc", bound, items)


def check_embedding(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> tuple[CheckReport, CheckReport]:
    """Both routes; they must agree residual by residual."""
    explicit = check_embedding_explicit(tensor, action, bound)
    flat = check_embedding_mc(tensor, action, bound)
    a = {(r.arity, r.word): r.value for r in explicit.residuals}
    b = {(r.arity, r.word): r.value for r in flat.residuals}
    if a != b:
        arity, word = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        raise RouteDisagreement(
            "explicit equations and projected commutator series disagree: "
            f"first at arity {arity} [{word}]: explicit equations "
            f"{a.get((arity, word), '0')}, commutator series {b.get((arity, word), '0')}"
        )
    return explicit, flat


# ---------------------------------------------------------------------------
# descendent structure


def descendent(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> HomotopyStructure:
    """The plain bracket family induced on the target by a tensor.

    Unary bracket is the target's own; on a word of length 2 to ``bound``
    the bracket is the target bracket plus, for each proper prefix ``p``,
    the action of the comorphism image of ``p`` on the rest.  One pass over
    the keys forms it, with no word evaluated: a target bracket key ``y`` is
    an action key ``((), y)`` fed by the empty prefix ``() -> {(): 1}``, and
    each image word ``ue`` of a row ``p`` that sorts to the acting word ``e``
    of a key ``(e, r)`` adds the key's value, with the row's coefficient and
    the signs of both sorts, at ``p + o`` for each distinct ordering ``o`` of
    ``r`` under the bound, signed from one cached table
    (:func:`linfty.multimap._signed_orderings`).  The rows
    (:func:`_comorphism_rows`) are the Zinbiel ones of at most ``bound - 1``
    letters in as many blocks as an acting arity.
    """
    _check_tensor_spaces(tensor, action)
    _ensure_coherent(action, bound)
    V, vspace, espace = action.V, action.V.space, action.E.space
    keys: dict[Word, list[tuple[Word, Vector]]] = {
        (): [(y, v) for k, f in V.brackets.items() if k >= 2 for y, v in f.constants.items()]
    }
    for f in action.components.values():
        for (e, r), value in f.constants.items():
            keys.setdefault(e, []).append((r, value))
    parts = {k for k, _ in action.components}
    rows = _comorphism_rows(vspace, espace, tensor.components, bound - 1, ZINBIEL, parts)
    rows[()] = {(): 1}
    tables: dict[int, dict[Word, Vector]] = {}
    for p, row in rows.items():
        for ue, c in row.items():
            # an image that vanishes sorts to a word that is no key
            e, se = espace.normalize(ue)
            for r, value in keys.get(e, ()):
                if len(p) + len(r) <= bound:
                    table = tables.setdefault(len(p) + len(r), {})
                    for o, so in _signed_orderings(r, tuple(vspace.degrees[i] % 2 for i in r)):
                        merge_into(table.setdefault(p + o, {}), value, se * so * c)
    brackets = {n: MultiMap(vspace, vspace, n, 1, PLAIN, t) for n, t in tables.items()}
    if V.bracket(1) is not None:
        brackets[1] = V.bracket(1)
    return HomotopyStructure(vspace, PLAIN, brackets, max(bound, V.max_arity))


def check_descendent_morphism(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> CheckReport:
    """The tensor as a morphism from its descendent structure to the acting
    one.  The morphism identity is the explicit equations
    (:func:`check_embedding_explicit`), so it is evaluated once: a tensor
    that fails it is refused, and a verified one is a morphism."""
    if _descendent_identity(tensor, action, bound):
        raise InputError("descendent morphism check needs a verified tensor")
    return make_report("loday-morphism", bound, [])


# ---------------------------------------------------------------------------
# strict tensors for the self-action and the centroid


def adjoint_strict_check(E: HomotopyStructure, t1: MultiMap) -> CheckReport:
    """The tensor identity (:func:`check_embedding_explicit`) of ``{1: t1}``
    in the adjoint representation of a Lie-infinity algebra, on the words up
    to its top arity: ``l_1 t1 - t1 l_1`` on each letter, and
    ``l_n(t1 w_1, .., t1 w_n) - t1 l_n(t1 w_1, .., t1 w_{n-1}, w_n)`` on each
    ordered word, from the morphism checker's two routes."""
    if E.flavor != SYMMETRIC:
        raise InputError("adjoint-strict needs a symmetric (Lie-infinity) structure")
    if t1.arity != 1 or t1.degree != 0:
        raise InputError("a strict tensor is a single degree-0 unary component")
    if t1.source is not E.space or t1.target is not E.space:
        raise InputError("strict adjoint tensors are endomorphisms")
    tensor = EmbeddingTensor(E.space, E.space, {1: t1})
    report = check_embedding_explicit(tensor, adjoint_representation(E), E.max_arity)
    return make_report("adjoint-strict", E.max_arity, report.residuals)


def centroid_check(E: HomotopyStructure, f1: MultiMap) -> CheckReport:
    """The commutator of ``f1`` with the adjoint representation of a
    Lie-infinity algebra, as :func:`linfty.action.check_coherence` forms one.

    On the direct sum (:func:`linfty.action._semidirect`) the brackets whose
    last letter is a target letter are one family ``Phi``, and ``f1`` on the
    target letters is a degree-0 family ``D``; ``p[Phi, D] = phi D - d Phi``
    is two composites.  Up to the top arity, a word ``x ; e`` reports
    ``l_{k+1}(x, f1 e) - f1 l_{k+1}(x, e)``, and a lone target letter the
    chain-map residual ``l_1 f1 e - f1 l_1 e``.
    """
    if E.flavor != SYMMETRIC:
        raise InputError("centroid needs a symmetric (Lie-infinity) structure")
    if f1.arity != 1 or f1.degree != 0:
        raise InputError("centroid members are degree-0 unary maps")
    if f1.source is not E.space or f1.target is not E.space:
        raise InputError("centroid members are endomorphisms")
    espace, bound, off = E.space, E.max_arity, E.space.dim
    space, brackets = _semidirect(adjoint_representation(E))
    phi = {y: v for table in brackets.values() for y, v in table.items() if y[-1] >= off}
    d = {(off + i,): {off + o: c for o, c in v.items()} for (i,), v in f1.constants.items()}
    commutator = _symmetric_composite(space, _letter_index(space, [phi]), d.items(), bound)
    d_phi = _symmetric_composite(space, _letter_index(space, [d]), phi.items(), bound)
    for w, vec in d_phi.items():
        merge_into(commutator.setdefault(w, {}), vec, -1)
    items: list[Residual] = []
    for w, diff in commutator.items():
        if diff:
            # each word holds one target letter, the last
            x = f"{espace.format_word(w[:-1])} ; " if len(w) > 1 else ""
            value = format_vector(espace, {o - off: c for o, c in diff.items()})
            items.append(Residual(len(w), x + espace.format_word((w[-1] - off,)), value))
    return make_report("centroid", bound, items)


# ---------------------------------------------------------------------------
# the deformation complex


class DeformationComplex:
    """The deformation Lie-infinity algebra of a verified tensor, truncated.

    Its brackets are the paper's derived brackets ``P([..[T, a_1].., a_k])``
    on target-to-acting maps, from the codifferential ``T`` of the product
    twisted by the tensor.  The package forms the unary one, ``d1``; the
    higher brackets and the Maurer-Cartan curvature of a deformation, which
    no command prints, are test helpers in ``tests/paper.py`` that read the
    same twisted table.

    The basis of the truncation consists of the elementary maps sending one
    target word (length up to the bound) to one acting letter; the bigrading
    of a basis element is (map degree, input word length).  One walk over the
    target words fills the word table of each word's position and degree,
    the degree summed from its prefix's, and ``w -> b`` has basis index
    ``position(w) * dim E + b``; the element degrees, the bigrading and the
    matrix read it.  The unary twisted bracket is stored as an exact matrix.

    A build keeps the twisted codifferential's table (:func:`_twisted`) and
    refuses a tensor where it projects to anything: that projection is the
    Maurer-Cartan equation of the tensor, the series route's residual map.
    :meth:`d1_columns` reads from it the words with one acting letter and
    the prefix rows of the lift of its pure-target part; nothing is lifted
    in full.  The matrix is built on the first :meth:`d1_columns` call and
    memoized under ``("d1", bound)`` (:func:`linfty.memo.memo`) with the
    weight shifts that every nonempty :func:`cohomology_rank` piece reads;
    the basis runs by weight, and ``_ends[w]`` is its first index above ``w``.
    """

    def __init__(self, tensor: EmbeddingTensor, action: ActionFamily, bound: int):
        self.hemi, self._series = _twisted(tensor, action, bound)
        if _project_h(self._series, self.hemi):
            raise InputError("the deformation complex sits at a verified tensor")
        self.tensor = tensor
        self.action = action
        self.bound = bound
        vspace, espace = action.V.space, action.E.space
        # the word table: each target word up to the bound -> (position, degree)
        self._words: dict[Word, tuple[int, int]] = {}
        self.basis: list[tuple[Word, int]] = []
        # (degree, weight) -> basis indices of that bigraded piece
        self.bigrading: dict[tuple[int, int], list[int]] = {}
        dim_e = espace.dim
        for n, w in enumerate(vspace.words_up_to(bound)):
            d = self._words.get(w[:-1], (0, 0))[1] + vspace.degrees[w[-1]]
            self._words[w] = n, d
            for b, eb in enumerate(espace.degrees):
                self.basis.append((w, b))
                self.bigrading.setdefault((eb - d, len(w)), []).append(n * dim_e + b)
        self._ends = [dim_e * sum(vspace.dim**k for k in range(1, w + 1)) for w in range(bound + 2)]
        self._memo: dict = {}

    def element_degree(self, w: Word, b: int) -> int:
        return self.action.E.space.degrees[b] - self._words[w][1]

    # -- the unary differential as a matrix ------------------------------------

    def d1_columns(self) -> list[Vector]:
        """Columns of ``d1(a) = p[T, a]`` on the basis, as ``{row: value}``.

        ``T`` is the twisted codifferential, of degree 1, so
        ``[T, A] = TA - (-1)^{|a|} AT`` for the lift ``A`` of ``a = (w -> b)``,
        and only the projection ``p`` onto pure-target rows and acting
        letters is formed; neither ``T`` nor any column is lifted in full:

        * ``p(TA) = r1 A`` is the composite of ``r1`` with the single entry
          ``w -> b``, whose degree sets the placement signs.  ``r1`` is the
          acting part of the summed series table on the words with exactly
          one acting letter: ``A`` sends a pure-target row only to such
          words, and every word ``r1`` reads back is a pure-target row.  Its
          slot index is built once, in target coordinates.  A slot of ``b``
          at position ``i`` with tail ``t`` takes words up to length
          ``bound - i - |t|``, so only the columns some slot reaches are
          composed, and every other column starts empty;
        * ``A`` restricts to the single entry ``w -> b``, so
          ``p(AT)(u) = T(u)[w] e_b``: the rows, over the target space, of the
          lift of the table's target part on pure-target words, the only
          part that reaches them.  Those are its prefix rows
          (:func:`linfty.multimap._prefix_rows`), each extended by every tail
          that fits, and each ``(prefix, tail, entry)`` is summed straight
          into its column, each index and parity from the word table; no
          lift and no transposed copy is formed.
        """
        return self._d1()[0]

    def _d1(self) -> tuple[list[Vector], bool, bool]:
        """The columns; whether an entry keeps or lowers a weight; whether one skips a weight."""
        return memo(self._memo, ("d1", self.bound), self._d1_matrix)

    def _d1_matrix(self) -> tuple[list[Vector], bool, bool]:
        hemi, bound, words = self.hemi, self.bound, self._words
        vspace, espace = self.action.V.space, self.action.E.space
        dim_e, off, to_v = espace.dim, hemi.v_offset, hemi.to_v_word
        r1: dict[Word, Vector] = {}
        pure: list[tuple[Word, Vector]] = []
        for x, vec in self._series.items():
            acting = sum(i < off for i in x)
            if acting == 1:
                r1[x] = hemi.e_part(vec)
            elif acting == 0 and (v := hemi.v_part(vec)):
                pure.append((to_v(x), v))
        # the slots of r1's acting letters, in target coordinates; a slot at
        # position i with tail t takes words of length up to bound - i - |t|
        slots: dict[tuple[int, int], list] = {}
        reach = [0] * dim_e
        indexed = _slot_index(hemi.space, ((x, v) for x, v in r1.items() if v))
        for (b, i), entries in indexed.items():
            if b < off:
                slots[b, i] = [(to_v(f), mask, to_v(t), v) for f, mask, t, v in entries]
                reach[b] = max(reach[b], *(bound - i - len(t) for _, _, t, _ in entries))
        cols: list[Vector] = [{} for _ in self.basis]
        for w, (n, d) in words.items():
            for b, eb in enumerate(espace.degrees):
                if len(w) <= reach[b]:
                    composite = _composite(vspace, slots, [(w, {b: 1})], (eb - d) % 2, bound)
                    cols[n * dim_e + b] = {
                        words[u][0] * dim_e + e: c
                        for u, vec in composite.items()
                        for e, c in vec.items()
                    }
        # the entry y = x + tail of row u = prefix + tail lands in the column
        # (y -> b) at row (u -> b), negated unless |b| and |y| differ in parity
        e_odd = [d % 2 for d in espace.degrees]
        tails = [_words_of_length(vspace.dim, k) for k in range(bound)]
        for prefix, row in _prefix_rows(vspace, pure, 1, bound).items():
            for k in range(bound - len(prefix) + 1):
                for tail in tails[k]:
                    at_u = words[prefix + tail][0] * dim_e
                    for x, c in row.items():
                        n, d = words[x + tail]
                        signed = (c, -c) if d % 2 else (-c, c)
                        for b, odd in enumerate(e_odd):
                            col, i = cols[n * dim_e + b], at_u + b
                            if total := col.get(i, 0) + signed[odd]:
                                col[i] = total
                            else:
                                del col[i]
        ends, keeps, skips = self._ends, False, False
        for (w, _), col in zip(self.basis, cols):
            if col:
                keeps = keeps or min(col) < ends[len(w)]
                skips = skips or max(col) >= ends[len(w) + 1]
        return cols, keeps, skips

    def d1_square_defect(self) -> list[tuple[int, int, Scalar]]:
        cols = self.d1_columns()
        defects = []
        for j, col in enumerate(cols):
            if not col:
                continue
            acc: Vector = {}
            for i, c in col.items():
                for i2, c2 in cols[i].items():
                    if total := acc.get(i2, 0) + c * c2:
                        acc[i2] = total
                    else:
                        del acc[i2]
            if acc:
                defects.extend((i, j, c) for i, c in acc.items())
        return defects

    def check_d1_squares_to_zero(self) -> CheckReport:
        items = [
            Residual(
                len(self.basis[j][0]),
                f"{self.action.V.space.format_word(self.basis[j][0])}"
                f"->{self.action.E.space.symbols[self.basis[j][1]]}",
                f"row {i}: {c}",
            )
            for i, j, c in self.d1_square_defect()
        ]
        return make_report("deformation-d1-square", self.bound, items)


def deformation_complex(
    tensor: EmbeddingTensor, action: ActionFamily, bound: int
) -> DeformationComplex:
    return DeformationComplex(tensor, action, bound)


@dataclass(frozen=True)
class CohomologyRanks:
    degree: int
    weight: int
    piece_dim: int
    rank_out: int
    kernel_dim: int
    rank_in: int
    page_e1: bool = False


def check_cohomology_weight(weight: int, bound: int) -> None:
    """Refuse a weight outside ``1..bound``, which the truncation says nothing of."""
    if not 1 <= weight <= bound:
        raise InputError(f"cohomology weight must lie in 1..{bound}, the truncated range")


def cohomology_rank(
    complex_: DeformationComplex, degree: int, weight: int
) -> CohomologyRanks:
    """Exact ranks of the E1 page of the weight filtration at one piece.

    Where every nonzero of ``d1`` raises the weight, it splits by weight
    shift as ``d(1) + d(2) + ...``, ``d1² = 0`` gives ``d(1)² = 0``, and the
    page is the cohomology of ``d(1)``: ``rank_out`` is the rank of the piece's
    columns cut to rows of weight ``weight + 1``, ``rank_in`` that of the
    columns of ``(degree - 1, weight - 1)`` cut to rows of weight
    ``weight``, and the kernel follows by rank-nullity.  The cut runs only
    where an entry raises the weight by two or more (``page_e1``).  A
    nonzero that keeps or lowers the weight is a part ``d(0)``, whose
    cohomology the page would need first, so a nonempty piece is then
    refused.  A weight outside ``1..bound`` is refused
    (:func:`check_cohomology_weight`); an empty piece reads no column.
    """
    check_cohomology_weight(weight, complex_.bound)
    piece = complex_.bigrading.get((degree, weight), [])
    if not piece:
        return CohomologyRanks(degree, weight, 0, 0, 0, 0)
    cols, keeps, skips = complex_._d1()
    if keeps:
        raise InputError("the E1 page needs a d1 that raises every weight")

    def cut(columns: list[int], end: int) -> list[Vector]:
        return [
            {i: c for i, c in col.items() if i < end} if skips and col and max(col) >= end else col
            for col in map(cols.__getitem__, columns)
        ]

    ends = complex_._ends
    rank_out = rank(cut(piece, ends[weight + 1]))
    rank_in = rank(cut(complex_.bigrading.get((degree - 1, weight - 1), []), ends[weight]))
    kernel_dim = len(piece) - rank_out
    return CohomologyRanks(degree, weight, len(piece), rank_out, kernel_dim, rank_in, skips)
