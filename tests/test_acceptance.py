"""Acceptance gate: one test per criterion, each printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; there are no tolerances anywhere.
"""
import itertools
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from linfty.action import theorem_crosscheck
from linfty.graded import GradedSpace, koszul_sign, permute
from linfty.homotopy import check_loday_infinity
from linfty.multimap import (
    SYMMETRIC,
    add_into,
    lift_comorphism,
    lift_symmetric_coderivation,
    lift_zinbiel_coderivation,
)
from laws import (
    check_coleibniz,
    check_intertwines_coproduct,
    compose,
    tensor_sum,
    twist_pairsum,
    unshuffles,
)
from paper import (
    HomElement,
    compose_unary,
    coshuffle_coproduct,
    decalage,
    decalage_inverse,
    eval_bracket,
    mc_residual_of,
    shifted,
    strict_algebra_compose,
    zinbiel_coproduct,
)
from linfty.corpus import (
    action_corpus,
    random_multimap,
    random_restriction_family,
    tensor_corpus,
)
from linfty.tensor import (
    EmbeddingTensor,
    adjoint_strict_check,
    centroid_check,
    check_descendent_morphism,
    check_embedding,
    check_embedding_explicit,
    deformation_complex,
    descendent,
    identity_tensor,
)
from linfty.multimap import MultiMap, PLAIN
from linfty.corpus import heisenberg, sl2, solvable2
from linfty.fileformat import parse, parse_path, serialize
from linfty.cli import main as cli_main

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"
BOUND = 4


def _verdict(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tensor_instances():
    return tensor_corpus(103, seed=20260809)


@pytest.fixture(scope="module")
def tensor_verdicts(tensor_instances):
    started = time.monotonic()
    verdicts = []
    for inst in tensor_instances:
        explicit, flat = check_embedding(inst.tensor, inst.action, BOUND)
        verdicts.append((inst, explicit, flat))
    return verdicts, time.monotonic() - started


def test_criterion_1_main_theorem_equivalence():
    started = time.monotonic()
    corpus = action_corpus(200, seed=20260809)
    coherent_built = violating_built = 0
    for inst in corpus:
        E, V = inst.action.E, inst.action.V
        assert E.space.dim <= 3 and V.space.dim <= 3
        assert all(-2 <= d <= 1 for d in E.space.degrees + V.space.degrees)
        assert E.max_arity <= 3 and V.max_arity <= 3
        coherent, loday = theorem_crosscheck(inst.action, BOUND)
        assert coherent.ok == loday.ok, inst.label
        if inst.expect_coherent is True:
            assert coherent.ok, inst.label
            coherent_built += 1
        elif inst.expect_coherent is False:
            assert not coherent.ok, inst.label
            violating_built += 1
    elapsed = time.monotonic() - started
    _verdict(
        "1 main-theorem equivalence",
        coherent_built >= 20 and violating_built >= 20 and elapsed < 60,
        f"200 actions, {coherent_built} built coherent, "
        f"{violating_built} built violating, {elapsed:.1f}s",
    )


def test_criterion_2_embedding_route_equivalence(tensor_verdicts):
    verdicts, elapsed = tensor_verdicts
    fixtures = flats = 0
    for inst, explicit, flat in verdicts:
        assert explicit.ok == flat.ok, inst.label
        support_a = {(r.arity, r.word) for r in explicit.residuals}
        support_b = {(r.arity, r.word) for r in flat.residuals}
        assert support_a == support_b, inst.label
        if inst.expect_tensor is True:
            assert explicit.ok, inst.label
            fixtures += 1
        if explicit.ok:
            flats += 1
    _verdict(
        "2 embedding-tensor route equivalence",
        fixtures >= 3 and len(verdicts) >= 103 and elapsed < 60,
        f"{len(verdicts)} tensors ({fixtures} fixtures, {flats} verified), "
        f"routes agree on verdicts and supports, {elapsed:.1f}s",
    )


def test_criterion_3_descendent_chain(tensor_verdicts):
    checked = 0
    for inst, explicit, _flat in tensor_verdicts[0]:
        if not explicit.ok:
            continue
        desc = descendent(inst.tensor, inst.action, BOUND)
        assert check_loday_infinity(desc, BOUND).ok, inst.label
        assert check_descendent_morphism(inst.tensor, inst.action, BOUND).ok, inst.label
        checked += 1
    # identity on the self-representation reproduces the brackets exactly
    ident_cases = 0
    for E in (solvable2(), heisenberg(), sl2()):
        from linfty.corpus import adjoint_identity_tensor

        act, tensor = adjoint_identity_tensor(E)
        desc = descendent(tensor, act, BOUND)
        for n in range(1, BOUND + 1):
            f = E.bracket(n)
            for w in E.space.words(n):
                assert eval_bracket(desc, n, w) == (f.eval(w) if f else {})
        ident_cases += 1
    _verdict(
        "3 descendent-structure chain",
        checked >= 3 and ident_cases == 3,
        f"{checked} verified tensors descend and map; "
        f"{ident_cases} identity tensors reproduce their brackets",
    )


def test_criterion_4_combinatorial_oracles():
    # multiplicativity of the sign, exhaustively
    checked_signs = 0
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        for degrees in itertools.product((0, 1), repeat=n):
            for tau in perms:
                d_tau = permute(tau, degrees)
                s_tau = koszul_sign(tau, degrees)
                for sigma in perms:
                    assert koszul_sign(compose(tau, sigma), degrees) == (
                        koszul_sign(sigma, d_tau) * s_tau
                    )
                    checked_signs += 1
    # unshuffle counts against brute-force filtering
    for total in range(2, 7):
        for p in range(1, total):
            blocks = (p, total - p)
            brute = [
                sigma
                for sigma in itertools.permutations(range(total))
                if all(sigma[i] < sigma[i + 1] for i in range(p - 1))
                and all(sigma[i] < sigma[i + 1] for i in range(p, total - 1))
            ]
            got = unshuffles(*blocks)
            assert len(got) == comb(total, p)
            assert sorted(got) == sorted(brute)
    # the coshuffle coproduct is the symmetrised half-shuffle one
    space = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])
    words = 0
    for n in range(1, 6):
        for word in space.words(n):
            zin = zinbiel_coproduct(space, word)
            expected = dict(zin)
            for key, value in twist_pairsum(space, zin).items():
                add_into(expected, key, value)
            assert coshuffle_coproduct(space, word) == expected
            words += 1
    _verdict(
        "4 combinatorial oracles",
        True,
        f"{checked_signs} sign products, unshuffle counts to weight 6, "
        f"{words} coproduct words",
    )


def test_criterion_5_coderivation_comorphism_laws():
    space = GradedSpace("M", [("x", 0), ("y", 1), ("z", -1)])
    rng = random.Random(20260809)
    families = 0
    for _ in range(50):
        degree = rng.choice([0, 1])
        sym_family = random_restriction_family(
            space, [1, 2, 3], degree, rng, flavor=SYMMETRIC
        )
        assert check_coleibniz(lift_symmetric_coderivation(space, sym_family, 4)) == {}
        zin_family = random_restriction_family(space, [1, 2, 3], degree, rng)
        assert check_coleibniz(lift_zinbiel_coderivation(space, zin_family, 4)) == {}
        comps = {
            k: random_multimap(space, space, k, 0, rng) for k in (1, 2, 3)
        }
        com = lift_comorphism(space, space, comps, 4)
        assert check_intertwines_coproduct(com) == {}
        families += 1
    up = shifted(space, 1)
    roundtrips = 0
    for _ in range(50):
        arity = rng.randint(1, 3)
        degree = rng.randint(-1, 2)
        f = random_multimap(space, space, arity, degree, rng, density=0.6)
        g = decalage(f, up, up)
        back = decalage_inverse(g, space, space)
        assert back.constants == f.constants and back.degree == f.degree
        roundtrips += 1
    _verdict(
        "5 coderivation and comorphism laws",
        families == 50 and roundtrips == 50,
        f"{families} lifted families obey their coalgebra laws at weight 4; "
        f"{roundtrips} arity-shift round-trips are exact",
    )


def test_criterion_6_deformation_complex(tensor_verdicts):
    started = time.monotonic()
    complexes = sweeps = 0
    scalars = (F(0), F(1), F(-1), F(1, 2), F(-1, 2))
    for inst, explicit, _flat in tensor_verdicts[0]:
        if not explicit.ok:
            continue
        dc = deformation_complex(inst.tensor, inst.action, 3)
        assert dc.check_d1_squares_to_zero().ok, inst.label
        complexes += 1
        V, E = inst.action.V.space, inst.action.E.space
        candidates = [
            (w, b) for (w, b) in dc.basis if dc.element_degree(w, b) == 0
        ][:4]
        for (w, b) in candidates:
            for lam in scalars:
                if lam:
                    t1 = MultiMap(V, E, len(w), 0, PLAIN, {w: {b: lam}})
                    prime = EmbeddingTensor(V, E, {len(w): t1})
                    summed = tensor_sum(inst.tensor, prime)
                    element = HomElement.from_rows(0, {w: {b: lam}})
                else:
                    summed = inst.tensor
                    element = HomElement.from_rows(0, {})
                residual = mc_residual_of(dc, element)
                direct = check_embedding_explicit(summed, inst.action, 3)
                assert residual.is_zero == direct.ok, (inst.label, w, b, lam)
                sweeps += 1
    elapsed = time.monotonic() - started
    _verdict(
        "6 deformation complex",
        complexes >= 3 and sweeps >= 20 and elapsed < 120,
        f"{complexes} complexes with square-zero twisted differential, "
        f"{sweeps} deformation candidates matched the direct checks, {elapsed:.1f}s",
    )


def test_criterion_7_strict_embedding_algebra():
    pools = []
    heis = heisenberg()
    z = heis.space.index("z")
    heis_pool = [
        identity_tensor(heis.space).components[1],
        MultiMap(heis.space, heis.space, 1, 0, PLAIN, {(i,): {i: F(2)} for i in range(3)}),
        MultiMap(heis.space, heis.space, 1, 0, PLAIN, {(i,): {i: F(-1, 2)} for i in range(3)}),
        MultiMap(heis.space, heis.space, 1, 0, PLAIN, {(0,): {z: F(1)}}),
        MultiMap(heis.space, heis.space, 1, 0, PLAIN, {(1,): {z: F(-3)}}),
        MultiMap(heis.space, heis.space, 1, 0, PLAIN, {(0,): {z: F(1, 2)}, (1,): {z: F(1)}, (2,): {z: F(2)}}),
    ]
    pools.append((heis, heis_pool))
    solv = solvable2()
    solv_pool = [
        identity_tensor(solv.space).components[1],
        MultiMap(solv.space, solv.space, 1, 0, PLAIN, {(i,): {i: F(3)} for i in range(2)}),
        MultiMap(solv.space, solv.space, 1, 0, PLAIN, {(0,): {0: F(1)}}),
        MultiMap(solv.space, solv.space, 1, 0, PLAIN, {(0,): {0: F(-1, 2)}}),
    ]
    pools.append((solv, solv_pool))
    s2 = sl2()
    sl2_pool = [
        identity_tensor(s2.space).components[1],
        MultiMap(s2.space, s2.space, 1, 0, PLAIN, {(i,): {i: F(1, 2)} for i in range(3)}),
    ]
    pools.append((s2, sl2_pool))
    tensors = compositions = 0
    for E, pool in pools:
        ident = identity_tensor(E.space).components[1]
        for t in pool:
            assert adjoint_strict_check(E, t).ok
            tensors += 1
            # the identity is a two-sided unit
            for composed in (compose_unary(t, ident), compose_unary(ident, t)):
                for i in range(E.space.dim):
                    assert composed.eval((i,)) == t.eval((i,))
        for a, b in itertools.product(pool, repeat=2):
            assert strict_algebra_compose(E, a, b).ok
            compositions += 1
    # every centroid member is strict
    centroid_members = 0
    for E in (heis, solv, s2):
        ident = identity_tensor(E.space).components[1]
        candidates = [ident]
        if E is heis:
            candidates.append(
                MultiMap(
                    E.space, E.space, 1, 0, PLAIN,
                    {(0,): {0: F(1), z: F(1)}, (1,): {1: F(1)}, (2,): {2: F(1)}},
                )
            )
        for f1 in candidates:
            assert centroid_check(E, f1).ok
            assert adjoint_strict_check(E, f1).ok
            centroid_members += 1
    _verdict(
        "7 strict embedding algebra",
        tensors >= 10 and compositions >= 40,
        f"{tensors} strict tensors closed under {compositions} compositions; "
        f"{centroid_members} centroid members are strict",
    )


CLI_CASES = [
    ("check-lie", "heisenberg.lif", []),
    ("check-lie", "twoterm.lif", []),
    ("check-loday", "loday_plain.lif", []),
    ("check-morphism", "morphism_quotient.lif", []),
    ("check-action", "heisenberg.lif", []),
    ("check-action", "adjoint_identity.lif", []),
    ("check-coherence", "heisenberg.lif", []),
    ("build-product", "heisenberg.lif", []),
    ("check-tensor", "heisenberg.lif", []),
    ("check-tensor", "adjoint_identity.lif", []),
    ("descend", "heisenberg.lif", []),
    ("check-descendent-morphism", "heisenberg.lif", []),
    ("adjoint-strict", "strict_centroid.lif", []),
    ("centroid", "strict_centroid.lif", []),
    ("deform", "heisenberg.lif", ["--bound", "3"]),
    ("cohomology", "heisenberg.lif", ["--bound", "2", "--degree", "0", "--weight", "2"]),
]


def test_criterion_8_cli_determinism(capsys):
    runs = 0
    for fmt in ("text", "machine"):
        for command, fixture, options in CLI_CASES:
            args = [command, str(FIXTURES / fixture), *options, "--format", fmt]
            code1 = cli_main(args)
            first = capsys.readouterr().out
            code2 = cli_main(args)
            second = capsys.readouterr().out
            assert code1 == code2 == 0, (command, fixture, first)
            assert first == second, (command, fixture)
            runs += 1
    roundtrips = 0
    for path in sorted(FIXTURES.glob("*.lif")):
        text1 = serialize(parse_path(path))
        assert serialize(parse(text1)) == text1, path.name
        roundtrips += 1
    _verdict(
        "8 CLI determinism",
        runs == 2 * len(CLI_CASES) and roundtrips >= 6,
        f"{runs} byte-identical report pairs; {roundtrips} fixtures round-trip",
    )
