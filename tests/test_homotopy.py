import random
from fractions import Fraction
from pathlib import Path

import pytest

from linfty.fileformat import parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import (
    HomotopyStructure,
    check_lie_infinity,
    check_lie_morphism,
    check_loday_infinity,
    check_loday_morphism,
    lie_to_loday,
)
from linfty.multimap import (
    PLAIN,
    SYMMETRIC,
    MultiMap,
    commutator,
    lift_symmetric_coderivation,
    merge_into,
)
from linfty.report import InputError, RouteDisagreement
from laws import adjoint_rep_components, scaled
from paper import end_dgla, eval_bracket, maurer_cartan, mc_residual, twist
from linfty.corpus import (
    abelian_structure,
    heisenberg,
    random_restriction_family,
    sl2,
    solvable2,
    triple_bracket_example,
    two_term_complex,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# structure checks


def test_abelian_verified():
    L = abelian_structure("A", [-1, 0, 1])
    assert check_lie_infinity(L, 4).ok


def test_two_term_complex_verified():
    assert check_lie_infinity(two_term_complex(), 4).ok


def test_unary_square_failure_detected():
    space = GradedSpace("X", [("u", -1), ("w", 0), ("s", 1)])
    l1 = MultiMap(
        space, space, 1, 1, SYMMETRIC, {(0,): {1: F(1)}, (1,): {2: F(1)}}
    )
    L = HomotopyStructure(space, SYMMETRIC, {1: l1}, 2)
    report = check_lie_infinity(L, 3)
    assert not report.ok
    assert report.residuals[0].arity == 1


def test_catalog_lie_algebras_verified():
    for L in (heisenberg(), solvable2(), sl2(), triple_bracket_example()):
        assert check_lie_infinity(L, 4).ok


def test_degree_inhomogeneous_bracket_rejected():
    space = GradedSpace("X", [("u", -1), ("w", 0)])
    bad = MultiMap(space, space, 1, 0, SYMMETRIC, {(0,): {0: F(1)}})
    with pytest.raises(InputError):
        HomotopyStructure(space, SYMMETRIC, {1: bad}, 2)


def test_loday_zero_verified():
    L = HomotopyStructure(GradedSpace("Z", [("a", 0)]), PLAIN, {}, 2)
    assert check_loday_infinity(L, 4).ok


def test_lie_structures_pass_loday_check():
    for L in (heisenberg(), solvable2(), sl2(), triple_bracket_example()):
        assert check_loday_infinity(lie_to_loday(L), 4).ok


def test_plain_failure_at_arity_three():
    space = GradedSpace("Y", [("a", -1), ("b", -1)])
    q2 = MultiMap(space, space, 2, 1, PLAIN, {(0, 0): {0: F(1)}})
    L = HomotopyStructure(space, PLAIN, {2: q2}, 2)
    report = check_loday_infinity(L, 3)
    assert not report.ok
    assert min(r.arity for r in report.residuals) == 3


# ---------------------------------------------------------------------------
# morphisms


def test_identity_is_morphism():
    for L in (heisenberg(), sl2()):
        space = L.space
        ident = MultiMap(
            space, space, 1, 0, PLAIN, {(i,): {i: F(1)} for i in range(space.dim)}
        )
        assert check_lie_morphism({1: ident}, L, L, 4).ok


def test_zero_map_between_abelian_is_morphism():
    A = abelian_structure("A", [-1, 0])
    B = abelian_structure("B", [-1])
    assert check_lie_morphism({}, A, B, 3).ok


def test_quotient_projection_is_morphism_and_reverse_fails():
    E = solvable2()
    quot = abelian_structure("Q", [-1])
    good = MultiMap(E.space, quot.space, 1, 0, PLAIN, {(0,): {0: F(1)}})
    assert check_lie_morphism({1: good}, E, quot, 4).ok
    bad = MultiMap(E.space, quot.space, 1, 0, PLAIN, {(1,): {0: F(1)}})
    report = check_lie_morphism({1: bad}, E, quot, 4)
    assert not report.ok


def test_loday_morphism_identity_and_zero():
    L = lie_to_loday(heisenberg())
    space = L.space
    ident = MultiMap(
        space, space, 1, 0, PLAIN, {(i,): {i: F(1)} for i in range(space.dim)}
    )
    assert check_loday_morphism({1: ident}, L, L, 3).ok
    A = HomotopyStructure(GradedSpace("A", [("a", 0)]), PLAIN, {}, 2)
    B = HomotopyStructure(GradedSpace("B", [("b", 0)]), PLAIN, {}, 2)
    assert check_loday_morphism({}, A, B, 3).ok


def test_symmetric_comorphism_agrees_between_flavors():
    E = solvable2()
    quot = abelian_structure("Q", [-1])
    for table, expected in [
        ({(0,): {0: F(1)}}, True),
        ({(1,): {0: F(1)}}, False),
    ]:
        f = MultiMap(E.space, quot.space, 1, 0, PLAIN, table)
        lie_ok = check_lie_morphism({1: f}, E, quot, 4).ok
        loday_ok = check_loday_morphism(
            {1: f}, lie_to_loday(E), lie_to_loday(quot), 4
        ).ok
        assert lie_ok == loday_ok == expected


def test_lie_morphism_refuses_a_vanishing_component_key():
    # b0 is odd, so b0 b0 vanishes in the symmetric algebra
    B = abelian_structure("B", [1])
    Q = abelian_structure("Q", [2])
    f = MultiMap(B.space, Q.space, 2, 0, PLAIN, {(0, 0): {0: F(1)}})
    with pytest.raises(InputError, match=r"key \[b0,b0\] vanishes"):
        check_lie_morphism({2: f}, B, Q, 3)
    assert check_loday_morphism({2: f}, lie_to_loday(B), lie_to_loday(Q), 3).ok


def _skew_comorphism(monkeypatch, rows_of):
    """Route the morphism checks through a comorphism with edited rows."""
    import linfty.homotopy as homotopy

    real = homotopy._comorphism_rows

    def skewed(*args):
        return rows_of(real(*args))

    monkeypatch.setattr(homotopy, "_comorphism_rows", skewed)


def _morphism_checks():
    E = solvable2()
    return [
        ("morphism", check_lie_morphism, E),
        ("anchored morphism", check_loday_morphism, lie_to_loday(E)),
    ]


def test_morphism_disagreement_names_the_word_only_the_comorphism_route_sees(monkeypatch):
    # the identity of [a,b] = b is a morphism; with the comorphism's rows
    # gone, no target bracket cancels F([a,b]) = b at a,b
    _skew_comorphism(monkeypatch, lambda rows: {})
    for label, check, E in _morphism_checks():
        identity = MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {0: F(1)}, (1,): {1: F(1)}})
        with pytest.raises(RouteDisagreement) as err:
            check({1: identity}, E, E, 4)
        assert str(err.value) == (
            f"componentwise {label} identity and comorphism intertwining disagree: "
            "first at [a,b]: identity sum 0, intertwining defect (1/1)*b"
        )


def test_morphism_disagreement_names_the_word_only_the_identity_route_sees(monkeypatch):
    # b -> b alone fails at a,b; a spurious comorphism row a,b -> a,b makes
    # the target bracket cancel it on the comorphism route
    _skew_comorphism(monkeypatch, lambda rows: {**rows, (0, 1): {(0, 1): F(1)}})
    for label, check, E in _morphism_checks():
        f = MultiMap(E.space, E.space, 1, 0, PLAIN, {(1,): {1: F(1)}})
        with pytest.raises(RouteDisagreement) as err:
            check({1: f}, E, E, 4)
        assert str(err.value) == (
            f"componentwise {label} identity and comorphism intertwining disagree: "
            "first at [a,b]: identity sum (1/1)*b, intertwining defect 0"
        )


def test_representation_disagreement_names_its_word_and_both_values(monkeypatch):
    # the adjoint representation of heisenberg holds; a spurious term of the
    # composite at p,q shows on the intertwining route only
    import linfty.homotopy as homotopy

    L = heisenberg()
    dgla, end = end_dgla(L.space, MultiMap(L.space, L.space, 1, 1, SYMMETRIC, {}))
    comps = adjoint_rep_components(L, end)
    assert check_lie_morphism(comps, L, dgla, 3).ok
    real = homotopy._symmetric_composite

    def skewed(space, index, inner, bound):
        composite = {w: dict(v) for w, v in real(space, index, inner, bound).items()}
        composite.setdefault((0, 1), {})[end.index(2, 2)] = F(1)
        return composite

    monkeypatch.setattr(homotopy, "_symmetric_composite", skewed)
    with pytest.raises(RouteDisagreement) as err:
        check_lie_morphism(comps, L, dgla, 3)
    assert str(err.value) == (
        "componentwise morphism identity and comorphism intertwining disagree: "
        "first at [p,q]: identity sum 0, intertwining defect (1/1)*z>z"
    )


@pytest.mark.parametrize(
    "fixture,space,check,bound",
    [
        ("twoterm", "C", check_lie_infinity, 7),
        ("loday_plain", "D", check_loday_infinity, 5),
        ("adjoint_identity", "E", check_loday_infinity, 5),
    ],
)
def test_structure_check_builds_no_comorphism_and_sums_no_right_side(
    fixture, space, check, bound, monkeypatch
):
    # the target of a structure identity has no brackets, so no comorphism
    # row can meet one and no composition has a target term: the identity
    # sum is the double sum alone, on the square's words
    import linfty.homotopy as homotopy

    calls = {"comorphism": 0, "right side": 0}

    def no_comorphism(*args):
        calls["comorphism"] += 1
        return real_comorphism(*args)

    def no_right_side(*args):
        calls["right side"] += 1
        return real_rhs(*args)

    real_comorphism, real_rhs = homotopy._comorphism_rows, homotopy._increasing_sums
    monkeypatch.setattr(homotopy, "_comorphism_rows", no_comorphism)
    monkeypatch.setattr(homotopy, "_increasing_sums", no_right_side)
    structure = parse_path(FIXTURES / f"{fixture}.lif").structure(space)
    if check is check_loday_infinity and structure.flavor == SYMMETRIC:
        structure = lie_to_loday(structure)
    assert check(structure, bound).ok
    assert calls["comorphism"] == 0
    assert calls["right side"] == 0


def _representation_check():
    L = sl2()
    dgla, end = end_dgla(L.space, MultiMap(L.space, L.space, 1, 1, SYMMETRIC, {}))
    comps = adjoint_rep_components(L, end)
    return lambda bound: check_lie_morphism(comps, L, dgla, bound)


def _identity_checks():
    checks = [_representation_check()]
    for _, check, E in _morphism_checks():
        f = MultiMap(E.space, E.space, 1, 0, PLAIN, {(0,): {0: F(1)}, (1,): {1: F(1)}})
        checks.append(lambda bound, check=check, E=E, f=f: check({1: f}, E, E, bound))
    return checks


@pytest.mark.parametrize("index", range(3))
def test_morphism_check_builds_only_the_comorphism_rows_a_target_bracket_reads(
    index, monkeypatch
):
    # sl2's adjoint representation into End(V), whose differential is zero,
    # and the identity of solvable2: each target has one bracket, of arity
    # 2, so every comorphism row the check builds has two-letter images,
    # while the full comorphism at bound 5 has images of up to 5 letters
    import linfty.homotopy as homotopy

    lengths = set()
    real = homotopy._comorphism_rows

    def counted(*args):
        rows = real(*args)
        lengths.update(len(u) for row in rows.values() for u in row)
        return rows

    monkeypatch.setattr(homotopy, "_comorphism_rows", counted)
    assert _identity_checks()[index](5).ok
    assert lengths == {2}


# ---------------------------------------------------------------------------
# Maurer-Cartan and twisting


def test_mc_zero_element():
    L = heisenberg()
    assert mc_residual(L, {}) == {}


def test_mc_abelian_everything_flat():
    L = abelian_structure("A", [0, 0])
    assert mc_residual(L, {0: F(2), 1: F(-3, 2)}) == {}


def test_mc_two_term_expansion_oracle():
    # three-step complex: phi with phi^2 != 0 gives a genuine quadratic term
    base = GradedSpace("W", [("u", -1), ("w", 0), ("s", 1)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}})
    dgla, end = end_dgla(base, d)
    assert check_lie_infinity(dgla, 3).ok
    # degree-0 elements of the shifted endomorphism space are map-degree +1
    e = {
        end.index(base.index("u"), base.index("w")): F(1),
        end.index(base.index("w"), base.index("s")): F(1),
    }
    got = mc_residual(dgla, e)
    l1 = dgla.bracket(1)
    l2 = dgla.bracket(2)
    expected = {}
    if l1 is not None:
        for i, c in e.items():
            merge_into(expected, l1.eval((i,)), c)
    acc = {}
    for i, ci in e.items():
        for j, cj in e.items():
            merge_into(acc, l2.eval((i, j)), ci * cj)
    merge_into(expected, acc, F(1, 2))
    assert got == expected
    mc = maurer_cartan(dgla, e)
    assert dict(mc.partial_sums[-1]) == got


def test_twist_by_zero_is_identity():
    L = heisenberg()
    tw = twist(L, {})
    for k, f in L.brackets.items():
        assert tw.bracket(k).constants == f.constants


def test_twist_abelian_unchanged():
    L = abelian_structure("A", [0, 0])
    tw = twist(L, {0: F(1)})
    assert not tw.brackets


def test_twist_of_end_dgla_verified():
    base = GradedSpace("W", [("u", -1), ("w", 0)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}})
    dgla, end = end_dgla(base, d)
    e = {end.index(0, 1): F(3, 2)}
    assert mc_residual(dgla, e) == {}
    tw = twist(dgla, e)
    assert check_lie_infinity(tw, 3).ok
    # unary twisted bracket is d + [e, -]
    l1 = dgla.bracket(1)
    l2 = dgla.bracket(2)
    for i in range(dgla.space.dim):
        expected = l1.eval((i,)) if l1 is not None else {}
        for j, c in e.items():
            merge_into(expected, l2.eval((j, i)), c)
        got = eval_bracket(tw, 1, (i,))
        assert got == expected


def test_twist_rejects_non_flat():
    base = GradedSpace("W", [("u", -1), ("w", 0), ("s", 1)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}})
    dgla, end = end_dgla(base, d)
    # w->s alone: curvature -d phi - phi d is nonzero on u
    e = {end.index(1, 2): F(1)}
    if mc_residual(dgla, e):
        with pytest.raises(InputError):
            twist(dgla, e)


def test_twist_composition_of_flat_elements():
    base = GradedSpace("W", [("u", -1), ("w", 0)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}})
    dgla, _ = end_dgla(base, d)
    e1 = {0 if dgla.space.symbols[0] else 0: F(0)}
    # pick the unique map-degree-one direction
    idx = next(
        i for i in range(dgla.space.dim) if dgla.space.degrees[i] == 0
    )
    e1 = {idx: F(1, 2)}
    e2 = {idx: F(1, 3)}
    t1 = twist(dgla, e1)
    assert mc_residual(t1, e2) == {}
    t12 = twist(t1, e2)
    total = twist(dgla, {idx: F(5, 6)})
    for k in range(1, 3):
        a = t12.bracket(k)
        b = total.bracket(k)
        assert (a.constants if a else {}) == (b.constants if b else {})


# ---------------------------------------------------------------------------
# the endomorphism algebra of a complex


def test_end_dgla_zero_differential_pure_bracket():
    base = GradedSpace("W", [("u", 0), ("w", 1)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {})
    dgla, _ = end_dgla(base, d)
    assert dgla.bracket(1) is None
    assert dgla.bracket(2) is not None
    assert check_lie_infinity(dgla, 3).ok


def test_end_dgla_two_term_complex():
    base = GradedSpace("W", [("u", -1), ("w", 0)])
    d = MultiMap(base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}})
    dgla, _ = end_dgla(base, d)
    assert dgla.space.dim == 4
    assert check_lie_infinity(dgla, 3).ok


def test_end_dgla_rejects_non_square_zero():
    base = GradedSpace("W", [("u", -1), ("w", 0), ("s", 1)])
    bad = MultiMap(
        base, base, 1, 1, SYMMETRIC, {(0,): {1: F(1)}, (1,): {2: F(1)}}
    )
    with pytest.raises(InputError):
        end_dgla(base, bad)


# ---------------------------------------------------------------------------
# the coderivation algebra of a verified structure, from full commutators


def coder_differential(base, bound, q):
    """``-[M, q]`` for the lifted codifferential ``M`` of the base."""
    lifted = lift_symmetric_coderivation(base.space, base.brackets, bound)
    return scaled(commutator(lifted, q), F(-1))


def shifted_bracket(q, p):
    """``(-1)^{|q|} [q, p]``, the degree +1 symmetric bracket on the shift."""
    return scaled(commutator(q, p), F(-1 if q.degree % 2 else 1))


def test_coder_differential_of_a_zero_base_vanishes():
    L = abelian_structure("A", [-1, 0])
    rng = random.Random(21)
    fam = random_restriction_family(L.space, [1, 2], 1, rng, flavor=SYMMETRIC)
    q = lift_symmetric_coderivation(L.space, fam, 3)
    assert coder_differential(L, 3, q).is_zero()


def test_coder_differential_squares_to_zero_and_leibniz():
    # the arity-2 identity of the shifted convention:
    # d(br(q,p)) + br(dq, p) + (-1)^{(|q|-1)(|p|-1)} br(dp, q) == 0
    for L in (heisenberg(), two_term_complex(), sl2()):
        rng = random.Random(22)

        def d(q):
            return coder_differential(L, 3, q)

        for degree in (0, 1):
            fam_q = random_restriction_family(
                L.space, [1, 2], degree, rng, flavor=SYMMETRIC
            )
            fam_p = random_restriction_family(
                L.space, [1, 2], 1, rng, flavor=SYMMETRIC
            )
            q = lift_symmetric_coderivation(L.space, fam_q, 3)
            p = lift_symmetric_coderivation(L.space, fam_p, 3)
            assert d(d(q)).is_zero()
            total = d(shifted_bracket(q, p))
            total = total.add(shifted_bracket(d(q), p))
            eps = -1 if ((q.degree - 1) % 2 and (p.degree - 1) % 2) else 1
            total = total.add(shifted_bracket(d(p), q), F(eps))
            assert total.is_zero()


def test_coder_differential_kills_own_codifferential():
    for L in (heisenberg(), sl2(), triple_bracket_example()):
        m = lift_symmetric_coderivation(L.space, L.brackets, 4)
        assert commutator(m, m).is_zero()
        assert coder_differential(L, 4, m).is_zero()


# ---------------------------------------------------------------------------
# representations on complexes


def test_zero_representation_on_abelian():
    L = abelian_structure("A", [-1, 0])
    d = MultiMap(L.space, L.space, 1, 1, SYMMETRIC, {})
    dgla, end = end_dgla(L.space, d)
    assert check_lie_morphism({}, L, dgla, 3).ok


def test_adjoint_representation_of_lie_algebras():
    for L in (heisenberg(), solvable2(), sl2()):
        d = MultiMap(L.space, L.space, 1, 1, SYMMETRIC, {})
        dgla, end = end_dgla(L.space, d)
        comps = adjoint_rep_components(L, end)
        assert check_lie_morphism(comps, L, dgla, 4).ok


def test_broken_chain_map_fails_at_arity_one():
    L = two_term_complex()
    d = L.bracket(1)
    dgla, end = end_dgla(L.space, d)
    # u |-> (u -> u) has the right degree but is not a chain-map family
    table = {(0,): {end.index(0, 0): F(1)}}
    phi1 = MultiMap(L.space, end.space, 1, 0, SYMMETRIC, table)
    report = check_lie_morphism({1: phi1}, L, dgla, 2)
    assert not report.ok
    assert report.residuals[0].arity == 1


def test_representation_refuses_a_non_canonical_component_key():
    # a plain arity-2 component on the non-canonical key (w, u) used to be
    # read as zero on every canonical word, and the check passed
    L = two_term_complex()
    space = L.space
    dgla, end = end_dgla(space, L.bracket(1))
    u_to_u = {end.index(0, 0): 1}
    off = MultiMap(space, end.space, 2, 0, PLAIN, {(1, 0): u_to_u})
    with pytest.raises(InputError, match=r"component key \[w,u\] is not canonical"):
        check_lie_morphism({2: off}, L, dgla, 3)
    w, sign = space.normalize((1, 0))
    on = MultiMap(space, end.space, 2, 0, PLAIN, {w: {i: sign * c for i, c in u_to_u.items()}})
    report = check_lie_morphism({2: on}, L, dgla, 3)
    assert not report.ok
    assert len(report.residuals) == 1


def test_representation_refuses_a_misfiled_component():
    # z |-> (z -> z) fails the identity under its own arity; filed under
    # key 2 it must be refused, not read as a zero family that passes
    L = heisenberg()
    d = MultiMap(L.space, L.space, 1, 1, SYMMETRIC, {})
    dgla, end = end_dgla(L.space, d)
    z_to_z = MultiMap(L.space, end.space, 1, 0, SYMMETRIC, {(2,): {end.index(2, 2): 1}})
    assert len(check_lie_morphism({1: z_to_z}, L, dgla, 3).residuals) == 1
    with pytest.raises(InputError, match="component arity mismatch"):
        check_lie_morphism({2: z_to_z}, L, dgla, 3)
    other = heisenberg().space
    foreign = MultiMap(other, end.space, 1, 0, SYMMETRIC, {(2,): {end.index(2, 2): 1}})
    with pytest.raises(InputError, match="component spaces do not match the structures"):
        check_lie_morphism({1: foreign}, L, dgla, 3)


def test_verified_symmetric_structures_pass_anchored_check():
    # the symmetric-to-plain implication over a randomized corpus
    from linfty.corpus import conjugate_structure, random_basis_change

    rng = random.Random(77)
    bases = [heisenberg(), solvable2(), sl2(), two_term_complex(), triple_bracket_example()]
    checked = 0
    for base in bases:
        for _ in range(3):
            p, pinv = random_basis_change(base.space, rng)
            conj = conjugate_structure(base, p, pinv)
            assert check_lie_infinity(conj, 4).ok
            assert check_loday_infinity(lie_to_loday(conj), 4).ok
            checked += 1
    assert checked == 15
