"""Background constructions of the paper that no command reads.

Maurer-Cartan elements and twisting by a flat element, the DGLA ``End(V)``
of endomorphisms of a complex, which a representation maps into (a
representation is a Lie-morphism into it, checked by
:func:`linfty.homotopy.check_lie_morphism`), and one bracket of a
structure on any word, which the every-word oracles read word by word.
The coalgebra background: graded symmetrization, the coshuffle and
Zinbiel coproducts, both read off the slot-by-slot splits of
:func:`dense_splits.dense_symmetric_splits`, the suspension of a space and
the arity-shift (decalage) isomorphism.  The composite of two strict
tensors and the closure of the strict condition under it.  The derived
brackets of a deformation complex and the Maurer-Cartan curvature of a
deformation, on the complex's plain tables.  The paper's theorem as one
structure file, which ``check-loday`` and ``check-morphism`` read.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from dense_splits import dense_symmetric_splits
from linfty.fileformat import Settings, StructureFile, serialize
from linfty.graded import GradedSpace, Word, koszul_sign, permute
from linfty.homotopy import HomotopyStructure
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    Scalar,
    Vector,
    add_into,
    balavoine_bracket,
    exact,
    expand,
    merge_into,
)
from linfty.report import CheckReport, InputError
from linfty.tensor import (
    DeformationComplex,
    _ad_series,
    _on_product,
    _project_h,
    adjoint_strict_check,
    descendent,
)

PairSum = dict[tuple[Word, Word], Scalar]


def eval_bracket(structure: HomotopyStructure, k: int, word: Word) -> Vector:
    """The arity-``k`` bracket of ``structure`` on ``word``, ``{}`` where
    the structure has none."""
    f = structure.brackets.get(k)
    return f.eval(word) if f is not None else {}


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and twisting


@dataclass(frozen=True)
class McElement:
    """A degree-0 element with the partial sums of its curvature series."""

    element: tuple[tuple[int, Scalar], ...]
    partial_sums: tuple[tuple[tuple[int, Scalar], ...], ...]

    @property
    def residual(self) -> Vector:
        return dict(self.partial_sums[-1]) if self.partial_sums else {}

    @property
    def is_flat(self) -> bool:
        return not self.residual


def _check_degree_zero(structure, element: Vector) -> None:
    for i, c in element.items():
        if c and structure.space.degrees[i] != 0:
            raise InputError(
                f"element has a component on {structure.space.symbols[i]} of "
                f"degree {structure.space.degrees[i]}; flat elements are degree 0"
            )


def _power_eval(bracket: MultiMap, element: Vector, prefix: Word, count: int) -> Vector:
    """Multilinear expansion of ``bracket(e, ..., e, prefix)`` with ``count`` e's."""
    acc: Vector = {}
    for w, c in expand([element] * count, 1):
        merge_into(acc, bracket.eval(w + prefix), c)
    return acc


def mc_residual(structure: HomotopyStructure, element: Vector) -> Vector:
    """The finite curvature sum ``sum_k l_k(e, ..., e) / k!``."""
    return maurer_cartan(structure, element).residual


def maurer_cartan(structure: HomotopyStructure, element: Vector) -> McElement:
    """The element and the partial sums of its curvature series, every value
    in the normal form of :func:`linfty.multimap.exact`."""
    if structure.flavor != SYMMETRIC:
        raise InputError("Maurer-Cartan elements live in symmetric structures")
    _check_degree_zero(structure, element)
    element = {i: exact(c, i) for i, c in element.items()}
    factorial = Fraction(1)
    acc: Vector = {}
    partials = []
    for k in range(1, structure.max_arity + 1):
        factorial *= k
        f = structure.bracket(k)
        if f is not None:
            term = _power_eval(f, element, (), k)
            merge_into(acc, term, Fraction(1) / factorial)
        partials.append(tuple(sorted((i, exact(c, i)) for i, c in acc.items())))
    return McElement(tuple(sorted(element.items())), tuple(partials))


def twist(structure: HomotopyStructure, element: Vector) -> HomotopyStructure:
    """Twist the brackets by a flat degree-0 element.

    ``l_k^e(x...) = sum_i l_{k+i}(e, ..., e, x...) / i!`` with the sum cut
    exactly at the declared maximal arity.  Rejects non-flat elements.
    """
    mc = maurer_cartan(structure, element)
    if not mc.is_flat:
        raise InputError("cannot twist by a non-flat element")
    space = structure.space
    new_brackets: dict[int, MultiMap] = {}
    for k in range(1, structure.max_arity + 1):
        table: dict[Word, Vector] = {}
        for w in space.canonical_words(k):
            acc: Vector = {}
            factorial = Fraction(1)
            for i in range(0, structure.max_arity - k + 1):
                if i:
                    factorial *= i
                f = structure.bracket(k + i)
                if f is None:
                    continue
                merge_into(acc, _power_eval(f, element, w, i), Fraction(1) / factorial)
            if acc:
                table[w] = acc
        if table:
            new_brackets[k] = MultiMap(space, space, k, 1, SYMMETRIC, table)
    return HomotopyStructure(space, SYMMETRIC, new_brackets, structure.max_arity)



# ---------------------------------------------------------------------------
# the DGLA of endomorphisms of a complex


class EndSpace:
    """Endomorphisms of a finite complex, graded by the shifted degree.

    Basis symbols ``a>b`` send basis letter ``a`` to ``b`` and carry degree
    ``deg b - deg a - 1`` (one less than the map degree, matching the shift
    on which the bracket family is symmetric).
    """

    def __init__(self, base: GradedSpace, d: MultiMap):
        if d.arity != 1 or d.degree != 1:
            raise InputError("a complex differential has arity 1 and degree +1")
        if d.source is not base or d.target is not base:
            raise InputError("differential must be an endomorphism")
        for i in range(base.dim):
            sq: Vector = {}
            for j, c in d.eval((i,)).items():
                merge_into(sq, d.eval((j,)), c)
            if sq:
                raise InputError("differential does not square to zero")
        self.base = base
        self.d = d
        pairs = [(a, b) for a in range(base.dim) for b in range(base.dim)]
        self.pairs = pairs
        self.space = GradedSpace(
            f"End({base.name})[1]",
            (
                (f"{base.symbols[a]}>{base.symbols[b]}", base.degrees[b] - base.degrees[a] - 1)
                for a, b in pairs
            ),
        )
        self._pair_index = {p: i for i, p in enumerate(pairs)}
        self._d_vec: Vector = {}
        for a in range(base.dim):
            for b, c in d.eval((a,)).items():
                self._d_vec[self._pair_index[(a, b)]] = c

    def index(self, a: int, b: int) -> int:
        return self._pair_index[(a, b)]

    def map_degree(self, idx: int) -> int:
        a, b = self.pairs[idx]
        return self.base.degrees[b] - self.base.degrees[a]

    def compose(self, f: Vector, g: Vector) -> Vector:
        """Composite ``f . g`` of endomorphisms given as basis vectors."""
        acc: Vector = {}
        for gi, cg in g.items():
            c, d_ = self.pairs[gi]
            for fi, cf in f.items():
                a, b = self.pairs[fi]
                if d_ == a:
                    add_into(acc, self._pair_index[(c, b)], cg * cf)
        return acc

    def differential(self, f: Vector, map_degree: int) -> Vector:
        """``-d f + (-1)^{map degree of f} f d`` on a homogeneous vector."""
        acc = {k: -v for k, v in self.compose(self._d_vec, f).items()}
        sign = -1 if map_degree % 2 else 1
        merge_into(acc, self.compose(f, self._d_vec), sign)
        return acc

    def bracket(self, f: Vector, fdeg: int, g: Vector, gdeg: int) -> Vector:
        """Shifted commutator ``(-1)^{fdeg} (f g - (-1)^{fdeg gdeg} g f)``.

        Degrees are map degrees; the result is graded symmetric in the
        shifted grading.
        """
        outer = -1 if fdeg % 2 else 1
        inner = -1 if (fdeg % 2 and gdeg % 2) else 1
        acc = self.compose(f, g)
        merge_into(acc, self.compose(g, f), -inner)
        return {k: outer * v for k, v in acc.items()}


def end_dgla(base: GradedSpace, d: MultiMap) -> tuple[HomotopyStructure, EndSpace]:
    """The two-bracket symmetric structure on shifted endomorphisms.

    The unary bracket is the differential induced by ``d``; the binary one is
    the shifted commutator.  The result always passes the symmetric identity
    check (the binary bracket has the right graded symmetry by construction,
    which the constructor enforces via canonical keys).
    """
    end = EndSpace(base, d)
    return _end_structure(end), end


def _end_structure(end: EndSpace) -> HomotopyStructure:
    """:func:`end_dgla`'s structure on the space of ``end``."""
    space = end.space
    l1_table: dict[Word, Vector] = {}
    for i in range(space.dim):
        val = end.differential({i: 1}, end.map_degree(i))
        if val:
            l1_table[(i,)] = val
    l2_table: dict[Word, Vector] = {}
    for w in space.canonical_words(2):
        i, j = w
        val = end.bracket(
            {i: 1}, end.map_degree(i), {j: 1}, end.map_degree(j)
        )
        if val:
            l2_table[w] = val
    brackets = {}
    if l1_table:
        brackets[1] = MultiMap(space, space, 1, 1, SYMMETRIC, l1_table)
    if l2_table:
        brackets[2] = MultiMap(space, space, 2, 1, SYMMETRIC, l2_table)
    return HomotopyStructure(space, SYMMETRIC, brackets, max_arity=2)


# ---------------------------------------------------------------------------
# the coalgebra background


def symmetrize(f: MultiMap) -> MultiMap:
    """Average of ``f`` over all slot permutations with Koszul signs.

    Idempotent; applied to a symmetric map it returns an equal map.
    """
    if f.flavor == SYMMETRIC:
        return MultiMap(f.source, f.target, f.arity, f.degree, SYMMETRIC, f.constants)
    space, k = f.source, f.arity
    table: dict[Word, Vector] = {}
    for w in {norm for norm, sign in map(space.normalize, f.constants) if sign}:
        acc = table[w] = {}
        for sigma in itertools.permutations(range(k)):
            eps = Fraction(koszul_sign(sigma, space.word_degrees(w)), math.factorial(k))
            merge_into(acc, f.eval(permute(sigma, w)), eps)
    return MultiMap(f.source, f.target, k, f.degree, SYMMETRIC, table)


def coshuffle_coproduct(space: GradedSpace, word: Word) -> PairSum:
    """Sum over (p, k-p)-unshuffles of the two-sided splittings of ``word``.

    Single letters are primitive: the value is empty.
    """
    out: PairSum = {}
    for sign, block, rest in dense_symmetric_splits(space, word, range(1, len(word))):
        add_into(out, (block, rest), sign)
    return out


def zinbiel_coproduct(space: GradedSpace, word: Word) -> PairSum:
    """Half-shuffle coproduct: the last letter stays anchored on the right.

    Satisfies the co-Leibniz variant
    ``(Id x D) D = (D x Id) D + (tau D x Id) D`` and symmetrises to the
    coshuffle coproduct: ``coshuffle == zinbiel + tau . zinbiel``.
    """
    out: PairSum = {}
    for sign, block, rest in dense_symmetric_splits(space, word[:-1], range(1, len(word))):
        add_into(out, (block, rest + word[-1:]), sign)
    return out


def shifted(space: GradedSpace, delta: int) -> GradedSpace:
    """Same symbols with all degrees moved by ``delta``."""
    degrees = (d + delta for d in space.degrees)
    return GradedSpace(f"{space.name}[{-delta}]", zip(space.symbols, degrees))


def decalage(f: MultiMap, shifted_source: GradedSpace, shifted_target: GradedSpace) -> MultiMap:
    """Transport an arity-``k`` map to the suspension of its spaces.

    The result has degree ``f.degree + 1 - k`` and satisfies, on letters of
    unshifted degrees ``d_1..d_k``,

        g(s x_1, ..., s x_k) = (-1)^{sum (k-j) d_j, j<k} s f(x_1, ..., x_k).

    ``shifted_source``/``shifted_target`` must carry the same symbols with all
    degrees raised by one.  Symmetric inputs are expanded first, since the
    transported map is no longer graded symmetric.  Inverse of
    :func:`decalage_inverse`.
    """
    return _shift_map(f.expand_plain(), shifted_source, shifted_target, 1)


def decalage_inverse(
    g: MultiMap, desuspended_source: GradedSpace, desuspended_target: GradedSpace
) -> MultiMap:
    """Inverse transport: round-trips with :func:`decalage` to the identity."""
    return _shift_map(g, desuspended_source, desuspended_target, -1)


def _shift_map(f: MultiMap, source: GradedSpace, target: GradedSpace, delta: int) -> MultiMap:
    """``f`` on the spaces ``delta`` degrees from its own, each value times
    ``(-1)^{sum (k - 1 - j) d_j}`` over the unshifted degrees of its key."""
    for old, new in ((f.source, source), (f.target, target)):
        if old.symbols != new.symbols:
            raise ValueError("shifted spaces must share basis symbols")
        if any(dn != do + delta for do, dn in zip(old.degrees, new.degrees)):
            raise ValueError(f"spaces are not related by a degree shift of {delta}")
    low, k = (f.source if delta > 0 else source), f.arity
    table: dict[Word, Vector] = {}
    for word, vec in f.constants.items():
        odd = sum((k - 1 - j) * d for j, d in enumerate(low.word_degrees(word))) % 2
        table[word] = {out: -c if odd else c for out, c in vec.items()}
    return MultiMap(source, target, k, f.degree + delta * (1 - k), PLAIN, table)


# ---------------------------------------------------------------------------
# strict tensors of the self-representation under composition


def compose_unary(f: MultiMap, g: MultiMap) -> MultiMap:
    """``f`` after ``g`` for unary maps on the same space."""
    table: dict[Word, Vector] = {(i,): {} for i in range(g.source.dim)}
    for word, acc in table.items():
        for j, c in g.eval(word).items():
            merge_into(acc, f.eval((j,)), c)
    return MultiMap(g.source, f.target, 1, f.degree + g.degree, PLAIN, table)


def strict_algebra_compose(
    E: HomotopyStructure, t1: MultiMap, t1_other: MultiMap
) -> CheckReport:
    """Closure of the strict condition under composition of two verified tensors."""
    if not (adjoint_strict_check(E, t1).ok and adjoint_strict_check(E, t1_other).ok):
        raise InputError("composition closure needs two verified strict tensors")
    return adjoint_strict_check(E, compose_unary(t1, t1_other))


# ---------------------------------------------------------------------------
# the brackets of the deformation complex


@dataclass(frozen=True)
class HomElement:
    """A homogeneous family of target-word-to-acting maps up to a bound,
    its values in the normal form of :func:`linfty.multimap.exact`."""

    degree: int
    rows: tuple[tuple[Word, tuple[tuple[int, Scalar], ...]], ...]

    @classmethod
    def from_rows(cls, degree: int, rows: Mapping[Word, Vector]) -> "HomElement":
        packed = tuple(
            (w, tuple(sorted((o, exact(c, (w, o))) for o, c in rows[w].items())))
            for w in sorted(rows)
            if rows[w]
        )
        return cls(degree, packed)

    @property
    def is_zero(self) -> bool:
        return not self.rows


def basis_element(complex_: DeformationComplex, w: Word, b: int) -> HomElement:
    """The basis element ``w -> b`` of the complex, in its degree."""
    return HomElement.from_rows(complex_.element_degree(w, b), {w: {b: 1}})


def derived_bracket(complex_: DeformationComplex, elements: list[HomElement]) -> HomElement:
    """``P([..[[Q, a_1], a_2].., a_k])`` for elements of the truncation, from
    the product codifferential ``Q``."""
    brackets = complex_.hemi.structure.brackets.values()
    q = {w: vec for f in brackets for w, vec in f.constants.items()}
    return _chain(complex_, q, elements)


def twisted_bracket(complex_: DeformationComplex, elements: list[HomElement]) -> HomElement:
    """Same chain started from the series-twisted codifferential."""
    return _chain(complex_, complex_._series, elements)


def _chain(
    complex_: DeformationComplex, start: Mapping[Word, Vector], elements: list[HomElement]
) -> HomElement:
    """The projected chain of brackets of the lift of the degree-1 table
    ``start`` with the elements' lifts, one :func:`balavoine_bracket` each."""
    hemi, bound = complex_.hemi, complex_.bound
    chain, degree = start, 1
    for a in elements:
        table = _on_product(hemi, a.rows)
        chain = balavoine_bracket(hemi.space, chain, degree, table, a.degree, bound)
        degree += a.degree
    short = {w: vec for w, vec in chain.items() if len(w) <= bound}
    return HomElement.from_rows(degree, _project_h(short, hemi))


def mc_residual_of(complex_: DeformationComplex, element: HomElement) -> HomElement:
    """Curvature ``P sum_m [..[T, A].., A] / m!`` of a degree-0 candidate
    inside the twisted structure ``T``.  The series sums its start term
    ``P(T)``, which is zero: a complex sits at a verified tensor."""
    if element.degree != 0:
        raise InputError("deformation candidates are degree-0 elements")
    hemi = complex_.hemi
    table = _on_product(hemi, element.rows)
    series = _ad_series(hemi.space, complex_._series, table, complex_.bound)
    return HomElement.from_rows(1, _project_h(series, hemi))


# ---------------------------------------------------------------------------
# the theorem as a file


def theorem_file(tensor, action, bound: int) -> str:
    """The structure file of the paper's theorem for ``tensor``: the
    descendent structure on the target at ``bound``
    (:func:`linfty.tensor.descendent`), the acting brackets as a plain
    section, and the tensor's components as ``morphism V E``.  The spaces
    are written as ``E`` and ``V`` whatever their names, so a self-action,
    whose two spaces are one, still gives two sections.

    For a verified tensor ``check-loday`` on the target and
    ``check-morphism`` pass on it.  For any tensor ``check-morphism`` lists
    ``check-tensor``'s residuals with every value negated: the morphism
    check reports ``F(l(w)) - l'(F(w))``, the tensor check the opposite
    difference.
    """
    desc, E = descendent(tensor, action, bound), action.E
    sf = StructureFile()
    for name, structure in (("E", E), ("V", desc)):
        sf.spaces[name] = structure.space
        sf.bracket_sections[name] = (PLAIN, structure.brackets)
    sf.settings = Settings(bound, max(desc.max_arity, E.max_arity), 0)
    sf.morphism_section = ("V", "E", tensor.components)
    return serialize(sf)
