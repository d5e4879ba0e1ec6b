import gc
import itertools
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import linfty.action as action_module
import linfty.homotopy as homotopy_module
import linfty.multimap as multimap_module
import linfty.tensor as tensor_module
from linfty.action import (
    ActionFamily,
    BiMultiMap,
    HemiProduct,
    adjoint_representation,
    hemisemidirect,
)
from linfty.fileformat import parse_path
from linfty.homotopy import check_lie_morphism, check_loday_infinity
from linfty.multimap import (
    PLAIN,
    MultiMap,
    TruncatedCoderivation,
    lift_zinbiel_coderivation,
    merge_into,
)
from linfty.report import InputError, RouteDisagreement
from linfty.tensor import (
    EmbeddingTensor,
    adjoint_strict_check,
    centroid_check,
    check_descendent_morphism,
    check_embedding,
    check_embedding_explicit,
    check_embedding_mc,
    cohomology_rank,
    deformation_complex,
    descendent,
    identity_tensor,
)
from linfty.corpus import (
    abelian_structure,
    action_corpus,
    adjoint_identity_tensor,
    complex_representation_action,
    heisenberg,
    heisenberg_central_action,
    heisenberg_tensor,
    random_tensor,
    sl2,
    solvable2,
    tensor_corpus,
    triple_bracket_example,
)
from laws import (
    action_value,
    as_dict,
    coderivation_exponential,
    extend_tensor,
    is_strict,
    is_symmetric,
    maps_by_arity,
    restriction_lemma_check,
    tensor_sum,
    tensor_value,
    unshuffles,
)
from paper import (
    HomElement,
    basis_element,
    compose_unary,
    derived_bracket,
    eval_bracket,
    mc_residual_of,
    strict_algebra_compose,
    twisted_bracket,
)

F = Fraction
BOUND = 4
FIXTURES = Path(__file__).parent / "fixtures"


def zero_tensor(action):
    return EmbeddingTensor(action.V.space, action.E.space, {})


# ---------------------------------------------------------------------------
# the extension comorphism and its exponential description


def test_extend_zero_tensor_is_identity():
    act = heisenberg_central_action()
    ext = extend_tensor(zero_tensor(act), act, 3)
    for w in hemisemidirect(act).space.words_up_to(3):
        assert ext.rows.get(w, {}) == {w: F(1)}


def test_extend_restriction_on_pure_target_words():
    act, tensor = heisenberg_tensor()
    hemi = hemisemidirect(act)
    ext = extend_tensor(tensor, act, 3)
    for n in range(2, 4):
        for w in act.V.space.words(n):
            row = ext.rows.get(hemi.from_v_word(w), {})
            single = {u[0]: c for u, c in row.items() if len(u) == 1}
            assert single == tensor_value(tensor, w)


def test_extension_equals_coderivation_exponential():
    rng = random.Random(31)
    act = heisenberg_central_action()
    for _ in range(4):
        tensor = random_tensor(act, rng)
        hemi = hemisemidirect(act)
        table = tensor_module._on_product(
            hemi, (p for k, f in tensor.components.items() if k <= 3 for p in f.constants.items())
        )
        t = lift_zinbiel_coderivation(
            hemi.space, maps_by_arity(hemi.space, hemi.space, 0, PLAIN, table), 3
        )
        exp_rows = coderivation_exponential(t, 3)
        ext = extend_tensor(tensor, act, 3)
        for w in hemi.space.words_up_to(3):
            assert exp_rows.get(w, {}) == ext.rows.get(w, {})


def test_strict_tensor_block_triangular_component():
    act, tensor = heisenberg_tensor()
    ext = extend_tensor(tensor, act, 2)
    hemi = hemisemidirect(act)
    p = hemi.from_v_word((act.V.space.index("p"),))
    row = ext.rows.get(p, {})
    assert row == {p: F(1), (0,): F(1)}


# ---------------------------------------------------------------------------
# both flatness routes


def test_zero_tensor_is_flat():
    act = heisenberg_central_action()
    explicit, flat = check_embedding(zero_tensor(act), act, BOUND)
    assert explicit.ok and flat.ok


def test_heisenberg_tensor_is_flat():
    act, tensor = heisenberg_tensor()
    explicit, flat = check_embedding(tensor, act, BOUND)
    assert explicit.ok and flat.ok


def test_identity_on_adjoint_is_flat():
    for E in (solvable2(), heisenberg(), sl2(), triple_bracket_example()):
        act, tensor = adjoint_identity_tensor(E)
        explicit, flat = check_embedding(tensor, act, BOUND)
        assert explicit.ok and flat.ok, E.space.name


def test_routes_agree_on_random_tensors():
    corpus = tensor_corpus(25, seed=5)
    seen_fail = 0
    for inst in corpus:
        explicit, flat = check_embedding(inst.tensor, inst.action, 3)
        assert explicit.ok == flat.ok
        if inst.expect_tensor is True:
            assert explicit.ok, inst.label
        if not explicit.ok:
            seen_fail += 1
    assert seen_fail > 0


def test_perturbed_tensor_fails_both_routes():
    act, tensor = heisenberg_tensor()
    V, E = act.V.space, act.E.space
    bad = tensor_sum(
        tensor,
        EmbeddingTensor(
            V, E, {1: MultiMap(V, E, 1, 0, PLAIN, {(V.index("z"),): {0: F(1)}})}
        ),
    )
    explicit, flat = check_embedding(bad, act, BOUND)
    assert not explicit.ok and not flat.ok


def test_route_disagreement_names_the_first_residual_and_both_values(monkeypatch):
    act, tensor = heisenberg_tensor()
    real = tensor_module._on_product

    def skewed(hemi, rows):
        # a spurious z -> a0 entry in the tensor's table on the product,
        # seen by the commutator series only
        table = real(hemi, rows)
        z = hemi.from_v_word((act.V.space.index("z"),))
        table[z] = {**table.get(z, {}), 0: 1}
        return table

    monkeypatch.setattr(tensor_module, "_on_product", skewed)
    with pytest.raises(RouteDisagreement) as info:
        check_embedding(tensor, act, 3)
    assert str(info.value) == (
        "explicit equations and projected commutator series disagree: "
        "first at arity 2 [p,p]: explicit equations 0, commutator series (-1/1)*a0"
    )


def test_product_brackets_project_to_nothing():
    # the series route sums the product's brackets Q as the start term of
    # the twisted codifferential: on pure-target words they take target
    # values only, so the projection of Q is empty and adds no residual
    actions = [inst.action for inst in action_corpus(114, 1)]
    actions += list({id(i.action): i.action for i in tensor_corpus(60, 3)}.values())
    for name in ("heisenberg", "adjoint_identity"):
        actions.append(parse_path(FIXTURES / f"{name}.lif").action_family())
    pure_target = 0
    for action in actions:
        hemi = hemisemidirect(action)
        q = {w: v for f in hemi.structure.brackets.values() for w, v in f.constants.items()}
        assert tensor_module._project_h(q, hemi) == {}
        pure_target += any(hemi.is_pure_v(w) for w in q)
    # most products have brackets on pure-target words
    assert pure_target > len(actions) // 2


def test_noncoherent_action_rejected():
    from linfty.corpus import heisenberg_noncentral_action

    act = heisenberg_noncentral_action()
    with pytest.raises(InputError):
        check_embedding_explicit(zero_tensor(act), act, BOUND)


# ---------------------------------------------------------------------------
# descendent structures


def test_descendent_of_zero_tensor_is_target_structure():
    act = heisenberg_central_action()
    got = descendent(zero_tensor(act), act, BOUND)
    for n in range(1, BOUND + 1):
        for w in act.V.space.words(n):
            assert eval_bracket(got, n, w) == eval_bracket(act.V, n, w)


def test_descendent_heisenberg_products():
    act, tensor = heisenberg_tensor()
    got = descendent(tensor, act, BOUND)
    V = act.V.space
    p, q, z = V.index("p"), V.index("q"), V.index("z")
    assert eval_bracket(got, 2, (p, q)) == {z: F(1)}
    assert eval_bracket(got, 2, (p, p)) == {z: F(1)}
    assert eval_bracket(got, 2, (q, p)) == {z: F(-1)}
    assert check_loday_infinity(got, BOUND).ok


def test_descendent_identity_adjoint_recovers_brackets():
    for E in (solvable2(), sl2(), heisenberg(), triple_bracket_example()):
        act, tensor = adjoint_identity_tensor(E)
        got = descendent(tensor, act, BOUND)
        for n in range(1, BOUND + 1):
            f = E.bracket(n)
            for w in E.space.words(n):
                assert eval_bracket(got, n, w) == (f.eval(w) if f else {}), (
                    E.space.name,
                    w,
                )


def _graded_representation_action():
    """Rank-one degree-0 space acting at two arities on a two-step target."""
    E = abelian_structure("A0", [0])
    V = abelian_structure("W0", [0, 1])
    u, w = 0, 1
    comps = {
        (1, 1): BiMultiMap(E.space, V.space, 1, 1, 1, {((0,), (u,)): {w: F(1)}}),
        (2, 1): BiMultiMap(
            E.space, V.space, 2, 1, 1, {((0, 0), (u,)): {w: F(-1, 2)}}
        ),
    }
    return ActionFamily(E, V, comps)


def test_descendent_strict_representation_formula():
    act = _graded_representation_action()
    from linfty.action import check_action, check_coherence

    assert check_action(act, BOUND).ok
    assert check_coherence(act, BOUND).ok
    V, E = act.V.space, act.E.space
    t1 = MultiMap(V, E, 1, 0, PLAIN, {(V.index("w00"),): {0: F(2)}})
    tensor = EmbeddingTensor(V, E, {1: t1})
    explicit, flat = check_embedding(tensor, act, BOUND)
    assert explicit.ok and flat.ok
    got = descendent(tensor, act, BOUND)
    # q_n(v...) = action(T v_1, ..., T v_{n-1}; v_n)
    for n in range(2, BOUND + 1):
        for w in V.words(n):
            expected = {}
            choices = [((), F(1))]
            for letter in w[:-1]:
                choices = [
                    (u + (b,), c * cb)
                    for (u, c) in choices
                    for b, cb in tensor_value(tensor, (letter,)).items()
                ]
            for u, c in choices:
                norm, s = E.normalize(u)
                if s:
                    merge_into(expected, action_value(act, norm, (w[-1],)), F(s) * c)
            assert eval_bracket(got, n, w) == expected


def test_descendent_morphism_for_fixtures():
    act, tensor = heisenberg_tensor()
    assert check_descendent_morphism(tensor, act, BOUND).ok
    act2, tensor2 = adjoint_identity_tensor(solvable2())
    assert check_descendent_morphism(tensor2, act2, BOUND).ok
    act3 = heisenberg_central_action()
    assert check_descendent_morphism(zero_tensor(act3), act3, BOUND).ok


def test_symmetric_tensor_with_invisible_image_is_lie_morphism():
    # acting space has a second generator the action never sees; a tensor
    # valued there is flat and symmetric, and its components intertwine the
    # symmetric structures directly
    E = abelian_structure("E2", [-1, -1])
    V = heisenberg()
    table = {((0,), (V.space.index("p"),)): {V.space.index("z"): F(1)}}
    comp = BiMultiMap(E.space, V.space, 1, 1, 1, table)
    act = ActionFamily(E, V, {(1, 1): comp})
    t1 = MultiMap(V.space, E.space, 1, 0, PLAIN, {(V.space.index("p"),): {1: F(1)}})
    tensor = EmbeddingTensor(V.space, E.space, {1: t1})
    explicit, flat = check_embedding(tensor, act, BOUND)
    assert explicit.ok and flat.ok
    assert is_symmetric(tensor)
    assert check_lie_morphism(tensor.components, V, E, BOUND).ok


# ---------------------------------------------------------------------------
# the restriction lemma


def test_restriction_lemma_zero_tensor():
    act = heisenberg_central_action()
    assert restriction_lemma_check(zero_tensor(act), act, 3).ok


def test_restriction_lemma_arbitrary_comorphisms():
    rng = random.Random(41)
    for act in (heisenberg_central_action(), complex_representation_action()):
        for _ in range(3):
            tensor = random_tensor(act, rng)
            assert restriction_lemma_check(tensor, act, 3).ok


# ---------------------------------------------------------------------------
# strict tensors of the self-representation, and the centroid


def test_identity_and_zero_are_strict():
    for E in (solvable2(), sl2(), heisenberg(), triple_bracket_example()):
        ident = identity_tensor(E.space).components[1]
        assert adjoint_strict_check(E, ident).ok
        zero = MultiMap(E.space, E.space, 1, 0, PLAIN, {})
        assert adjoint_strict_check(E, zero).ok


def test_scalar_multiples_of_identity_are_strict():
    E = sl2()
    for lam in (F(2), F(-1, 2)):
        t1 = MultiMap(
            E.space, E.space, 1, 0, PLAIN,
            {(i,): {i: lam} for i in range(E.space.dim)},
        )
        assert adjoint_strict_check(E, t1).ok


def test_central_image_chain_maps_are_strict_with_abelian_descendent():
    E = heisenberg()
    z = E.space.index("z")
    t1 = MultiMap(
        E.space, E.space, 1, 0, PLAIN,
        {(0,): {z: F(1)}, (1,): {z: F(-2)}, (2,): {z: F(1, 2)}},
    )
    assert adjoint_strict_check(E, t1).ok
    act = adjoint_representation(E)
    tensor = EmbeddingTensor(E.space, E.space, {1: t1})
    explicit, flat = check_embedding(tensor, act, BOUND)
    assert explicit.ok and flat.ok
    desc = descendent(tensor, act, BOUND)
    for n in range(2, BOUND + 1):
        assert desc.bracket(n) is None


def test_strict_algebra_closure_and_unit():
    E = heisenberg()
    z = E.space.index("z")
    pool = [
        identity_tensor(E.space).components[1],
        MultiMap(E.space, E.space, 1, 0, PLAIN, {(i,): {i: F(3)} for i in range(3)}),
        MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {z: F(1)}}),
        MultiMap(E.space, E.space, 1, 0, PLAIN, {(1,): {z: F(1, 2)}, (2,): {z: F(1)}}),
    ]
    for t in pool:
        assert adjoint_strict_check(E, t).ok
    for a, b in itertools.product(pool, repeat=2):
        assert strict_algebra_compose(E, a, b).ok
    ident = pool[0]
    for t in pool:
        comp = compose_unary(t, ident)
        for i in range(E.space.dim):
            assert comp.eval((i,)) == t.eval((i,))


def test_strict_pairs_on_two_dimensional_example():
    E = solvable2()
    t1 = MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {0: F(1)}, (1,): {1: F(1)}})
    # projection along the ideal is strict; projection onto it is not
    t2 = MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {0: F(3)}})
    t3 = MultiMap(E.space, E.space, 1, 0, PLAIN, {(1,): {1: F(1)}})
    assert adjoint_strict_check(E, t2).ok
    assert not adjoint_strict_check(E, t3).ok
    assert strict_algebra_compose(E, t1, t2).ok
    assert strict_algebra_compose(E, t2, t2).ok


def test_centroid_identity_and_scalars():
    for E in (heisenberg(), sl2(), triple_bracket_example()):
        ident = identity_tensor(E.space).components[1]
        assert centroid_check(E, ident).ok
        half = MultiMap(
            E.space, E.space, 1, 0, PLAIN,
            {(i,): {i: F(1, 2)} for i in range(E.space.dim)},
        )
        assert centroid_check(E, half).ok


def test_centroid_projection_onto_non_ideal_fails():
    E = solvable2()
    f1 = MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {0: F(1)}})
    assert not centroid_check(E, f1).ok


def test_strict_checks_refuse_a_map_of_another_space():
    E = solvable2()
    f1 = identity_tensor(heisenberg().space).components[1]
    for check in (adjoint_strict_check, centroid_check):
        with pytest.raises(InputError, match="endomorphisms"):
            check(E, f1)


def test_centroid_members_are_strict():
    E = heisenberg()
    z = E.space.index("z")
    members = [
        identity_tensor(E.space).components[1],
        MultiMap(
            E.space, E.space, 1, 0, PLAIN,
            {(0,): {0: F(1), z: F(2)}, (1,): {1: F(1)}, (2,): {2: F(1)}},
        ),
    ]
    for f1 in members:
        assert centroid_check(E, f1).ok
        assert adjoint_strict_check(E, f1).ok


# ---------------------------------------------------------------------------
# the deformation complex


def test_deformation_complex_zero_tensor_untwisted():
    act = heisenberg_central_action()
    dc = deformation_complex(zero_tensor(act), act, 3)
    brackets = dc.hemi.structure.brackets.values()
    assert dc._series == {w: vec for f in brackets for w, vec in f.constants.items()}
    assert dc.check_d1_squares_to_zero().ok


def test_d1_squares_to_zero_for_fixtures():
    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 3)
    assert dc.check_d1_squares_to_zero().ok
    act2, tensor2 = adjoint_identity_tensor(solvable2())
    dc2 = deformation_complex(tensor2, act2, 3)
    assert dc2.check_d1_squares_to_zero().ok


def test_dropped_complex_frees_its_product_without_the_cycle_collector():
    # the product keeps no reference back to its action family, so dropping
    # the complex, the family and the tensor frees it by reference counting
    gc.disable()
    try:
        act, tensor = heisenberg_tensor()
        dc = deformation_complex(tensor, act, 3)
        dc.d1_columns()
        product = weakref.ref(dc.hemi)
        del dc, act, tensor
        assert product() is None
    finally:
        gc.enable()


def test_zero_deformation_is_always_flat():
    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 3)
    zero = HomElement.from_rows(0, {})
    assert mc_residual_of(dc, zero).is_zero


def test_deformation_mc_matches_direct_checks():
    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 3)
    V, E = act.V.space, act.E.space
    flat_count = 0
    for (w, b) in dc.basis:
        if dc.element_degree(w, b) != 0:
            continue
        for lam in (F(1), F(-1, 2)):
            t1 = MultiMap(V, E, len(w), 0, PLAIN, {w: {b: lam}})
            prime = EmbeddingTensor(V, E, {len(w): t1})
            elem = HomElement.from_rows(0, {w: {b: lam}})
            residual = mc_residual_of(dc, elem)
            direct = check_embedding_explicit(tensor_sum(tensor, prime), act, 3)
            assert residual.is_zero == direct.ok, (w, b, lam)
            if residual.is_zero:
                flat_count += 1
    assert flat_count > 0


def test_derived_bracket_symmetry_and_jacobi_sample():
    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 3)
    elems = []
    for (w, b) in dc.basis[:12]:
        elems.append(
            HomElement.from_rows(dc.element_degree(w, b), {w: {b: F(1)}})
        )
    # graded symmetry of the binary derived bracket
    for a, b2 in itertools.islice(itertools.combinations(elems, 2), 10):
        ab = derived_bracket(dc, [a, b2])
        ba = derived_bracket(dc, [b2, a])
        sign = -1 if (a.degree % 2 and b2.degree % 2) else 1
        expected = {
            w: {i: sign * c for i, c in vec} for w, vec in ba.rows
        }
        assert as_dict(ab) == expected


def test_cohomology_ranks_heisenberg():
    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 2)
    for weight in (1, 2):
        ranks = cohomology_rank(dc, 0, weight)
        assert ranks.piece_dim == ranks.rank_out + ranks.kernel_dim
        # independent oracle: rank by enumerating nonzero minors
        cols = dc.d1_columns()
        piece = [
            j
            for j, (w, b) in enumerate(dc.basis)
            if len(w) == weight and dc.element_degree(w, b) == 0
        ]
        mat = [
            [cols[j].get(i, F(0)) for i in range(len(dc.basis))] for j in piece
        ]
        assert ranks.rank_out == _minor_rank(mat)


def test_cohomology_abelian_everything_full_kernel():
    E = abelian_structure("E1", [-1])
    V = abelian_structure("V1", [-1, -1])
    act = ActionFamily(E, V, {})
    dc = deformation_complex(zero_tensor(act), act, 2)
    for weight in (1, 2):
        ranks = cohomology_rank(dc, 0, weight)
        assert ranks.rank_out == 0 and ranks.kernel_dim == ranks.piece_dim


def _minor_rank(mat):
    """Exact rank as the largest size of a nonsingular square minor."""
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    best = 0
    for size in range(1, min(nrows, ncols, 4) + 1):
        found = False
        for rows in itertools.combinations(range(nrows), size):
            for cols in itertools.combinations(range(ncols), size):
                sub = [[mat[r][c] for c in cols] for r in rows]
                if _det(sub):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_twisted_derived_brackets_satisfy_arity_three_identity():
    # the generalized Jacobi identity of the derived-bracket family at a
    # verified tensor, evaluated on triples of elementary families
    from linfty.graded import koszul_sign, permute

    act, tensor = heisenberg_tensor()
    dc = deformation_complex(tensor, act, 2)
    triples = [
        tuple(basis_element(dc, *dc.basis[i]) for i in idx)
        for idx in [(0, 1, 2), (0, 3, 5), (1, 4, 6), (2, 5, 7)]
    ]
    for triple in triples:
        degs = tuple(a.degree for a in triple)
        total: dict = {}
        for i in range(1, 4):
            sigmas = unshuffles(i, 3 - i) if i < 3 else ((0, 1, 2),)
            for sigma in sigmas:
                eps = koszul_sign(sigma, degs)
                perm = permute(sigma, triple)
                inner = twisted_bracket(dc, list(perm[:i]))
                outer = twisted_bracket(dc, [inner, *perm[i:]])
                for w, vec in outer.rows:
                    acc = total.setdefault(w, {})
                    for e, c in vec:
                        new = acc.get(e, F(0)) + eps * c
                        if new:
                            acc[e] = new
                        else:
                            acc.pop(e, None)
        assert all(not vec for vec in total.values()), (degs, total)


def test_tensor_flags():
    _act, tensor = heisenberg_tensor()
    assert is_strict(tensor) and is_symmetric(tensor)
    from linfty.graded import GradedSpace

    V = GradedSpace("Vf", [("u", -1), ("v", 0)])
    E = GradedSpace("Ef", [("s", -1)])
    t2 = MultiMap(V, E, 2, 0, PLAIN, {(0, 1): {0: F(1)}})
    wide = EmbeddingTensor(V, E, {2: t2})
    assert not is_strict(wide)
    assert not is_symmetric(wide)


def test_coherence_verdict_is_computed_once_per_bound(monkeypatch):
    calls = []
    real = action_module.check_coherence

    def counting(action, bound):
        calls.append(bound)
        return real(action, bound)

    monkeypatch.setattr(action_module, "check_coherence", counting)
    act, tensor = heisenberg_tensor()
    for bound, expected in ((3, [3]), (2, [3, 2])):
        check_embedding(tensor, act, bound)
        descendent(tensor, act, bound)
        restriction_lemma_check(tensor, act, bound)
        assert calls == expected


def test_series_and_d1_compose_no_full_coderivation(monkeypatch):
    # the series, the brackets, the MC residual and d1 run on restriction
    # families: no full coderivation is composed
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(TruncatedCoderivation, "compose")
    count(multimap_module, "commutator")
    assert not {"commutator", "cached_property"} & set(vars(tensor_module))
    for act, tensor in (heisenberg_tensor(), adjoint_identity_tensor(solvable2())):
        complex_ = deformation_complex(tensor, act, BOUND)
        assert complex_.check_d1_squares_to_zero().ok
        assert check_embedding_mc(tensor, act, BOUND).ok
        elements = [basis_element(complex_, w, b) for w, b in complex_.basis[:6]]
        for a in elements:
            derived_bracket(complex_, [a])
            twisted_bracket(complex_, [a])
            if a.degree == 0:
                mc_residual_of(complex_, a)
        derived_bracket(complex_, elements[:2])
        twisted_bracket(complex_, elements[:2])
    assert calls == []


def test_series_and_deform_form_no_map_and_no_coderivation(monkeypatch):
    # the tensor layer keeps its families as plain tables: the commutator
    # series constructs no MultiMap, and neither the series route nor a
    # deform build constructs a TruncatedCoderivation
    made = []
    for cls in (MultiMap, TruncatedCoderivation):

        def counting(self, *args, real=cls.__init__, name=cls.__name__):
            made.append(name)
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    in_series = []
    real_series = tensor_module._ad_series

    def series(*args, **kwargs):
        before = len(made)
        table = real_series(*args, **kwargs)
        in_series.extend(made[before:])
        return table

    monkeypatch.setattr(tensor_module, "_ad_series", series)
    for name in ("heisenberg", "adjoint_identity"):
        sf = parse_path(FIXTURES / f"{name}.lif")
        tensor, action = sf.embedding_tensor(), sf.action_family()
        made.clear()
        assert check_embedding_mc(tensor, action, BOUND).ok
        complex_ = deformation_complex(tensor, action, BOUND)
        assert complex_.check_d1_squares_to_zero().ok
        assert "TruncatedCoderivation" not in made
    assert in_series == []


def test_explicit_check_and_deform_follow_the_support(monkeypatch):
    # the explicit equations, the morphism identity of the descendent
    # structure, run route A only on the words where a term can be nonzero,
    # and a deform build never lifts the twisted family in full
    visited = []
    real = homotopy_module._anchored_sums

    def counting(space, inner, outer, words):
        visited.extend(words)
        return real(space, inner, outer, words)

    monkeypatch.setattr(homotopy_module, "_anchored_sums", counting)
    for (act, tensor), bound, words in (
        (heisenberg_tensor(), 5, 0),
        (adjoint_identity_tensor(solvable2()), 4, 2),
    ):
        visited.clear()
        assert check_embedding_explicit(tensor, act, bound).ok
        assert len(visited) == words

    real_rows = multimap_module._prefix_rows

    def target_only(space, support, parity, bound):
        assert space is act.V.space, "a lift over the product space was built"
        return real_rows(space, support, parity, bound)

    for module in (multimap_module, tensor_module):
        monkeypatch.setattr(module, "_prefix_rows", target_only)
    for act, tensor in (heisenberg_tensor(), adjoint_identity_tensor(solvable2())):
        assert deformation_complex(tensor, act, BOUND).check_d1_squares_to_zero().ok


@pytest.mark.parametrize("name", ("heisenberg", "adjoint_identity"))
def test_descendent_checks_build_no_product(name, monkeypatch):
    # the descendent structure, the explicit equations and the descendent
    # morphism check read the coherence verdict, not the hemisemidirect
    # product; only the series route and the deformation complex build it
    built = []
    real = HemiProduct.__init__

    def counting(self, action):
        built.append(action)
        real(self, action)

    monkeypatch.setattr(HemiProduct, "__init__", counting)
    for check in (descendent, check_embedding_explicit, check_descendent_morphism):
        sf = parse_path(FIXTURES / f"{name}.lif")
        check(sf.embedding_tensor(), sf.action_family(), BOUND)
    assert built == []
    sf = parse_path(FIXTURES / f"{name}.lif")
    check_embedding_mc(sf.embedding_tensor(), sf.action_family(), BOUND)
    assert len(built) == 1


def test_kept_memos_return_the_identical_object():
    act, tensor = heisenberg_tensor()
    complex_ = deformation_complex(tensor, act, 3)
    assert complex_.d1_columns() is complex_.d1_columns()


def test_cohomology_pieces_reuse_the_built_matrix(monkeypatch):
    # a build (complex and d1^2 check) forms the prefix rows the columns
    # need; ranking every bigraded piece afterwards forms nothing more
    calls = []
    real = multimap_module._prefix_rows

    def counting(space, support, parity, bound):
        calls.append(bound)
        return real(space, support, parity, bound)

    for module in (multimap_module, tensor_module):
        monkeypatch.setattr(module, "_prefix_rows", counting)
    act, tensor = heisenberg_tensor()
    complex_ = deformation_complex(tensor, act, BOUND)
    assert complex_.check_d1_squares_to_zero().ok
    built = len(calls)
    assert built > 0
    for degree, weight in sorted(complex_.bigrading):
        cohomology_rank(complex_, degree, weight)
    assert len(calls) == built


def fixture_complex(name, bound):
    sf = parse_path(FIXTURES / f"{name}.lif")
    return deformation_complex(sf.embedding_tensor(), sf.action_family(), bound)


@pytest.mark.parametrize(
    "name,bound,reach",
    [("heisenberg", bound, 0) for bound in range(3, 7)] + [("adjoint_identity", 4, 3)],
)
def test_d1_composes_only_the_columns_a_slot_reaches(name, bound, reach, monkeypatch):
    # the heisenberg tensor's r1 is empty, so no column is composed; on the
    # adjoint identity r1's slots reach the words shorter than the bound
    calls = []
    real = tensor_module._composite

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tensor_module, "_composite", counting)
    complex_ = fixture_complex(name, bound)
    complex_.d1_columns()
    assert len(calls) == sum(len(w) <= reach for w, _ in complex_.basis)


@pytest.mark.parametrize("name", ["heisenberg", "adjoint_identity"])
@pytest.mark.parametrize("bound", range(3, 7))
def test_word_table_gives_each_degree_and_basis_index(name, bound):
    complex_ = fixture_complex(name, bound)
    espace, vspace = complex_.action.E.space, complex_.action.V.space
    for i, (w, b) in enumerate(complex_.basis):
        assert complex_.element_degree(w, b) == espace.degrees[b] - vspace.word_degree(w)
        # the word table's position of w gives the basis index
        assert complex_._words[w][0] * espace.dim + b == i


@pytest.mark.parametrize("weight", [-1, 0, 3, 7])
def test_cohomology_rank_refuses_a_weight_outside_the_truncation(weight):
    complex_ = fixture_complex("heisenberg", 2)
    with pytest.raises(InputError, match=r"weight must lie in 1\.\.2"):
        cohomology_rank(complex_, 0, weight)

