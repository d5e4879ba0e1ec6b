"""Seeded generators and a small catalog of verified instances.

Everything here is deterministic given the seed.  The catalog entries are
honest algebraic structures (identities hold at every weight), so they can
back property tests and the randomized acceptance corpora; variety comes
from exact degree-preserving basis changes and rational parameters.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .action import ActionFamily, BiMultiMap, adjoint_action, adjoint_representation
from .graded import GradedSpace, Word
from .homotopy import HomotopyStructure
from .linalg import invert
from .multimap import PLAIN, SYMMETRIC, MultiMap, Vector, add_into, expand, merge_into
from .tensor import EmbeddingTensor, identity_tensor

SMALL_FRACTIONS = tuple(
    Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2)
)


# ---------------------------------------------------------------------------
# random raw material


def random_multimap(
    source: GradedSpace,
    target: GradedSpace,
    arity: int,
    degree: int,
    rng: random.Random,
    flavor: str = PLAIN,
    density: float = 0.4,
) -> MultiMap:
    """A sparse degree-homogeneous map with small rational constants."""
    words = (
        source.canonical_words(arity) if flavor == SYMMETRIC else source.words(arity)
    )
    table: dict[Word, Vector] = {}
    for w in words:
        deg_out = degree + source.word_degree(w)
        outs = [i for i in range(target.dim) if target.degrees[i] == deg_out]
        vec: Vector = {}
        for i in outs:
            if rng.random() < density:
                vec[i] = rng.choice(SMALL_FRACTIONS)
        if vec:
            table[w] = vec
    return MultiMap(source, target, arity, degree, flavor, table)


def random_restriction_family(
    space: GradedSpace,
    arities: Iterable[int],
    degree: int,
    rng: random.Random,
    flavor: str = PLAIN,
    density: float = 0.4,
) -> dict[int, MultiMap]:
    return {
        k: random_multimap(space, space, k, degree, rng, flavor, density)
        for k in arities
    }


# ---------------------------------------------------------------------------
# exact degree-preserving basis changes


def random_basis_change(
    space: GradedSpace, rng: random.Random
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """An invertible degree-preserving matrix (columns = new basis) + inverse."""
    n = space.dim
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(space.degrees):
        by_degree.setdefault(d, []).append(i)
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for idxs in by_degree.values():
        m = len(idxs)
        while True:
            block = [
                [Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)
            ]
            try:
                invert(block)
                break
            except ValueError:
                continue
        for r, i in enumerate(idxs):
            for c, j in enumerate(idxs):
                mat[i][j] = block[r][c]
    return mat, invert(mat)


def _apply_matrix(mat: list[list[Fraction]], vec: Vector) -> Vector:
    out: Vector = {}
    for j, c in vec.items():
        for i in range(len(mat)):
            if mat[i][j]:
                add_into(out, i, mat[i][j] * c)
    return out


def _columns(mat: list[list[Fraction]]) -> list[Vector]:
    """Each column of a square matrix as a sparse vector: the images of the
    basis letters."""
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat))]


def conjugate_multimap(
    f: MultiMap, p_src: list[list[Fraction]], pinv_tgt: list[list[Fraction]]
) -> MultiMap:
    """The same map written in new bases: ``P^-1 . f . (P x ... x P)``."""
    space = f.source
    words = (
        space.canonical_words(f.arity)
        if f.flavor == SYMMETRIC
        else space.words(f.arity)
    )
    table: dict[Word, Vector] = {}
    cols = _columns(p_src)
    for w in words:
        acc: Vector = {}
        for u, c in expand([cols[x] for x in w], Fraction(1)):
            merge_into(acc, f.eval(u), c)
        acc = _apply_matrix(pinv_tgt, acc)
        if acc:
            table[w] = acc
    return MultiMap(f.source, f.target, f.arity, f.degree, f.flavor, table)


def conjugate_structure(
    structure: HomotopyStructure, p: list[list[Fraction]], pinv: list[list[Fraction]]
) -> HomotopyStructure:
    brackets = {
        k: conjugate_multimap(f, p, pinv) for k, f in structure.brackets.items()
    }
    return HomotopyStructure(
        structure.space, structure.flavor, brackets, structure.max_arity
    )


def conjugate_bimultimap(
    f: BiMultiMap,
    p_e: list[list[Fraction]],
    p_v: list[list[Fraction]],
    pinv_v: list[list[Fraction]],
) -> BiMultiMap:
    e_space, v_space = f.e_space, f.v_space
    table: dict[tuple[Word, Word], Vector] = {}
    e_cols, v_cols = _columns(p_e), _columns(p_v)
    for ew in e_space.canonical_words(f.e_arity):
        for vw in v_space.canonical_words(f.v_arity):
            acc: Vector = {}
            images = [e_cols[x] for x in ew] + [v_cols[x] for x in vw]
            for u, c in expand(images, Fraction(1)):
                merge_into(acc, f.eval(u[: f.e_arity], u[f.e_arity :]), c)
            acc = _apply_matrix(pinv_v, acc)
            if acc:
                table[(ew, vw)] = acc
    return BiMultiMap(e_space, v_space, f.e_arity, f.v_arity, f.degree, table)


def conjugate_action(
    action: ActionFamily,
    p_e: list[list[Fraction]],
    pinv_e: list[list[Fraction]],
    p_v: list[list[Fraction]],
    pinv_v: list[list[Fraction]],
) -> ActionFamily:
    return ActionFamily(
        conjugate_structure(action.E, p_e, pinv_e),
        conjugate_structure(action.V, p_v, pinv_v),
        {
            kn: conjugate_bimultimap(f, p_e, p_v, pinv_v)
            for kn, f in action.components.items()
        },
    )


# ---------------------------------------------------------------------------
# catalog: verified structures


def lie1_from_bracket(
    name: str, symbols: list[str], entries: list[tuple[str, str, str, Fraction]]
) -> HomotopyStructure:
    """A binary symmetric structure concentrated in degree -1.

    ``entries`` lists ``(a, b, out, coefficient)`` on canonical pairs; this is
    the shift of an ordinary Lie algebra given by its structure constants.
    """
    space = GradedSpace(name, [(s, -1) for s in symbols])
    table: dict[Word, Vector] = {}
    for a, b, out, c in entries:
        ia, ib = space.index(a), space.index(b)
        if ia > ib:
            raise ValueError("bracket entries must use canonical pair order")
        add_into(table.setdefault((ia, ib), {}), space.index(out), Fraction(c))
    table = {w: v for w, v in table.items() if v}
    brackets = {2: MultiMap(space, space, 2, 1, SYMMETRIC, table)} if table else {}
    return HomotopyStructure(space, SYMMETRIC, brackets, max_arity=3)


def abelian_structure(name: str, degrees: list[int], max_arity: int = 3):
    space = GradedSpace(name, [(f"{name.lower()}{i}", d) for i, d in enumerate(degrees)])
    return HomotopyStructure(space, SYMMETRIC, {}, max_arity=max_arity)


def heisenberg() -> HomotopyStructure:
    return lie1_from_bracket("H", ["p", "q", "z"], [("p", "q", "z", Fraction(1))])


def solvable2() -> HomotopyStructure:
    return lie1_from_bracket("B", ["a", "b"], [("a", "b", "b", Fraction(1))])


def sl2() -> HomotopyStructure:
    return lie1_from_bracket(
        "S",
        ["e", "f", "h"],
        [
            ("e", "f", "h", Fraction(1)),
            ("e", "h", "e", Fraction(-2)),
            ("f", "h", "f", Fraction(2)),
        ],
    )


def two_term_complex(name: str = "C", low: int = -1) -> HomotopyStructure:
    """u -> w with the differential as the only bracket."""
    space = GradedSpace(name, [("u", low), ("w", low + 1)])
    d = MultiMap(space, space, 1, 1, SYMMETRIC, {(0,): {1: Fraction(1)}})
    return HomotopyStructure(space, SYMMETRIC, {1: d}, max_arity=3)


def triple_bracket_example() -> HomotopyStructure:
    """Arity-3 bracket only: t (degree 0) cubes to c (degree 1)."""
    space = GradedSpace("T3", [("t", 0), ("c", 1)])
    l3 = MultiMap(space, space, 3, 1, SYMMETRIC, {(0, 0, 0): {1: Fraction(1)}})
    return HomotopyStructure(space, SYMMETRIC, {3: l3}, max_arity=3)


# ---------------------------------------------------------------------------
# catalog: actions


def classical_action(
    E: HomotopyStructure, V: HomotopyStructure, rho: dict[str, dict[str, Fraction]]
) -> ActionFamily:
    """The action of a shifted Lie algebra pair given by a representation.

    ``rho[x][v]`` holds the coefficient vector of the derivation of the image
    of ``x`` on ``v`` as ``{out_symbol: coeff}``; only the (1,1) component is
    nonzero.
    """
    table: dict[tuple[Word, Word], Vector] = {}
    for xsym, row in rho.items():
        xi = E.space.index(xsym)
        for vsym, vec in row.items():
            vi = V.space.index(vsym)
            out: Vector = {}
            for osym, c in vec.items():
                if Fraction(c):
                    out[V.space.index(osym)] = Fraction(c)
            if out:
                table[((xi,), (vi,))] = out
    comp = BiMultiMap(E.space, V.space, 1, 1, 1, table)
    return ActionFamily(E, V, {(1, 1): comp} if table else {})


def heisenberg_central_action(
    alpha: Fraction = Fraction(1), beta: Fraction = Fraction(0)
) -> ActionFamily:
    """Rank-one space acting on the Heisenberg algebra by central derivations."""
    E = abelian_structure("A", [-1])
    E_space = E.space
    V = heisenberg()
    rho = {"a0": {"p": {"z": alpha}, "q": {"z": beta}}}
    action = classical_action(E, V, rho)
    return action


def heisenberg_noncentral_action() -> ActionFamily:
    """A derivation with image off the center: coherence fails."""
    E = abelian_structure("A", [-1])
    V = heisenberg()
    rho = {"a0": {"p": {"p": Fraction(1)}, "q": {"q": Fraction(-1)}}}
    return classical_action(E, V, rho)


def solvable_on_plane_action() -> ActionFamily:
    E = solvable2()
    V = abelian_structure("P", [-1, -1])
    rho = {
        "a": {"p0": {"p0": Fraction(1)}},
        "b": {"p1": {"p0": Fraction(1)}},
    }
    return classical_action(E, V, rho)


def solvable_self_action() -> ActionFamily:
    """Nonabelian target with every nonzero derivation non-central."""
    E = abelian_structure("A", [-1])
    V = solvable2()
    rho = {"a0": {"a": {"b": Fraction(1)}, "b": {"b": Fraction(1)}}}
    return classical_action(E, V, rho)


def heisenberg_skew_action() -> ActionFamily:
    """Derivation with image inside the derived-but-not-central part."""
    E = abelian_structure("A", [-1])
    V = heisenberg()
    rho = {"a0": {"p": {"q": Fraction(1)}}}
    return classical_action(E, V, rho)


def sl2_inner_action() -> ActionFamily:
    """Rank-one space acting on the centerless algebra by an inner derivation."""
    E = abelian_structure("A", [-1])
    V = sl2()
    rho = {
        "a0": {"e": {"e": Fraction(-2)}, "f": {"f": Fraction(2)}}
    }
    return classical_action(E, V, rho)


def complex_representation_action(
    coeffs: dict[int, Fraction] | None = None,
) -> ActionFamily:
    """Rank-one degree-0 space acting on a two-term complex through
    strictly triangular operators at several arities; always coherent."""
    E = abelian_structure("A", [0], max_arity=3)
    V = two_term_complex("C")
    if coeffs is None:
        coeffs = {1: Fraction(1), 2: Fraction(1, 2)}
    comps: dict[tuple[int, int], BiMultiMap] = {}
    u, w = V.space.index("u"), V.space.index("w")
    for k, c in coeffs.items():
        if not c:
            continue
        key = (tuple([0] * k), (u,))
        comps[(k, 1)] = BiMultiMap(
            E.space, V.space, k, 1, 1, {key: {w: Fraction(c)}}
        )
    return ActionFamily(E, V, comps)


@dataclass(frozen=True)
class ActionInstance:
    label: str
    action: ActionFamily
    expect_coherent: bool | None


def _base_instances() -> list[ActionInstance]:
    out = [
        ActionInstance("heis-central", heisenberg_central_action(), True),
        ActionInstance(
            "heis-central-2",
            heisenberg_central_action(Fraction(-1, 2), Fraction(2)),
            True,
        ),
        ActionInstance("heis-noncentral", heisenberg_noncentral_action(), False),
        ActionInstance("heis-skew", heisenberg_skew_action(), False),
        ActionInstance("sl2-inner", sl2_inner_action(), False),
        ActionInstance("solvable-plane", solvable_on_plane_action(), True),
        ActionInstance("solvable-self", solvable_self_action(), False),
        ActionInstance("rep-complex", complex_representation_action(), True),
        ActionInstance(
            "rep-complex-3",
            complex_representation_action({1: Fraction(1), 3: Fraction(-1)}),
            True,
        ),
        ActionInstance("adjoint-rep-heis", adjoint_representation(heisenberg()), True),
        ActionInstance("adjoint-rep-solv", adjoint_representation(solvable2()), True),
        ActionInstance("adjoint-rep-sl2", adjoint_representation(sl2()), True),
        ActionInstance("adjoint-rep-l3", adjoint_representation(triple_bracket_example()), True),
        ActionInstance("adjoint-act-heis", adjoint_action(heisenberg()), None),
        ActionInstance("adjoint-act-solv", adjoint_action(solvable2()), None),
        ActionInstance("adjoint-act-sl2", adjoint_action(sl2()), None),
        ActionInstance(
            "adjoint-act-abelian", adjoint_action(abelian_structure("A2", [-1, 0])), True
        ),
        ActionInstance("adjoint-act-l3", adjoint_action(triple_bracket_example()), None),
        ActionInstance(
            "adjoint-act-complex", adjoint_action(two_term_complex("C2", -2)), None
        ),
    ]
    return out


# ---------------------------------------------------------------------------
# tensors


@dataclass(frozen=True)
class TensorInstance:
    label: str
    action: ActionFamily
    tensor: EmbeddingTensor
    expect_tensor: bool | None


def heisenberg_tensor() -> tuple[ActionFamily, EmbeddingTensor]:
    """The rank-one tensor sending the first Heisenberg generator upstairs."""
    act = heisenberg_central_action(Fraction(1), Fraction(0))
    V, E = act.V.space, act.E.space
    t1 = MultiMap(V, E, 1, 0, PLAIN, {(V.index("p"),): {0: Fraction(1)}})
    return act, EmbeddingTensor(V, E, {1: t1})


def adjoint_identity_tensor(E: HomotopyStructure):
    return adjoint_representation(E), identity_tensor(E.space)


def random_tensor(
    action: ActionFamily, rng: random.Random, max_arity: int = 3, density: float = 0.35
):
    V, E = action.V.space, action.E.space
    comps = {}
    for k in range(1, max_arity + 1):
        f = random_multimap(V, E, k, 0, rng, density=density)
        if not f.is_zero():
            comps[k] = f
    return EmbeddingTensor(V, E, comps)


def tensor_corpus(count: int, seed: int) -> list[TensorInstance]:
    """Fixtures plus seeded random comorphisms over small coherent actions."""
    heis_act, heis_t = heisenberg_tensor()
    adj_act, adj_t = adjoint_identity_tensor(solvable2())
    rep_act = complex_representation_action()
    out = [
        TensorInstance("heisenberg", heis_act, heis_t, True),
        TensorInstance("adjoint-identity", adj_act, adj_t, True),
        TensorInstance(
            "zero",
            heis_act,
            EmbeddingTensor(heis_act.V.space, heis_act.E.space, {}),
            True,
        ),
    ]
    hosts = [heis_act, adj_act, rep_act, adjoint_representation(sl2())]
    rng = random.Random(seed)
    i = 0
    while len(out) < count:
        host = hosts[i % len(hosts)]
        i += 1
        out.append(
            TensorInstance(
                f"random#{i}", host, random_tensor(host, rng), None
            )
        )
    return out[:count]


def action_corpus(count: int, seed: int) -> list[ActionInstance]:
    """Deterministic stream of genuine actions with varied bases.

    The first entries are the raw catalog; the remainder are exact random
    basis changes of catalog entries, which preserve both actionhood and the
    coherence verdict.
    """
    base = _base_instances()
    out = list(base)
    rng = random.Random(seed)
    i = 0
    while len(out) < count:
        inst = base[i % len(base)]
        i += 1
        p_e, pinv_e = random_basis_change(inst.action.E.space, rng)
        p_v, pinv_v = random_basis_change(inst.action.V.space, rng)
        out.append(
            ActionInstance(
                f"{inst.label}#cc{i}",
                conjugate_action(inst.action, p_e, pinv_e, p_v, pinv_v),
                inst.expect_coherent,
            )
        )
    return out[:count]
