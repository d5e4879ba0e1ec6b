"""Background Lie-infinity constructions that no command reads.

Maurer-Cartan elements and twisting by a flat element, the DGLA ``End(V)``
of endomorphisms of a complex, which a representation maps into (a
representation is a Lie-morphism into it, checked by
:func:`linfty.homotopy.check_lie_morphism`), and one bracket of a
structure on any word, which the every-word oracles read word by word.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linfty.graded import GradedSpace, Word
from linfty.homotopy import HomotopyStructure
from linfty.multimap import (
    SYMMETRIC,
    MultiMap,
    Scalar,
    Vector,
    add_into,
    exact,
    expand,
    merge_into,
)
from linfty.report import InputError


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
