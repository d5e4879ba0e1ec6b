import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

import linfty.action as action_module
import linfty.homotopy as homotopy_module
from linfty.action import (
    ActionFamily,
    BiMultiMap,
    _cleared,
    adjoint_action,
    adjoint_representation,
    check_action,
    check_coherence,
    hemisemidirect,
    theorem_crosscheck,
)
from linfty.cli import main
from linfty.fileformat import parse, parse_path
from linfty.graded import GradedSpace
from linfty.homotopy import _structure_report, check_loday_infinity
from linfty.multimap import MultiMap
from linfty.report import InputError, RouteDisagreement
from linfty.corpus import (
    abelian_structure,
    action_corpus,
    complex_representation_action,
    heisenberg,
    heisenberg_central_action,
    heisenberg_noncentral_action,
    sl2,
    solvable2,
    solvable_on_plane_action,
    solvable_self_action,
    triple_bracket_example,
    two_term_complex,
)
from dense_actions import dense_ad_family, dense_mixed_family
from dense_lifts import dense_symmetric_lift
from laws import action_value, restriction_vector
from paper import eval_bracket
from test_action_oracle import NON_COHERENT, indexed, indexed_family, tables
from test_byte_stability import ACTION_FILES

F = Fraction
BOUND = 4
FIXTURES = Path(__file__).parent / "fixtures"


def lifted(act, family, bound=BOUND):
    """The word-by-word lift of a target family of ``act``."""
    return dense_symmetric_lift(act.V.space, family, bound)


def zero_action(E=None, V=None):
    E = E or abelian_structure("E0", [-1, 0])
    V = V or abelian_structure("V0", [-1, 0])
    return ActionFamily(E, V, {})


# ---------------------------------------------------------------------------
# the action axiom


def test_zero_action_between_abelian_passes():
    assert check_action(zero_action(), BOUND).ok


def test_classical_actions_pass():
    for act in (
        heisenberg_central_action(),
        heisenberg_noncentral_action(),
        solvable_on_plane_action(),
        solvable_self_action(),
        complex_representation_action(),
    ):
        assert check_action(act, BOUND).ok


def test_adjoint_representation_is_action():
    for E in (heisenberg(), solvable2(), sl2(), triple_bracket_example(), two_term_complex()):
        assert check_action(adjoint_representation(E), BOUND).ok


def test_adjoint_action_is_action():
    for E in (heisenberg(), solvable2(), sl2(), triple_bracket_example()):
        assert check_action(adjoint_action(E), BOUND).ok


def test_broken_equivariance_fails():
    # representation of the solvable algebra with the wrong commutation
    E = solvable2()
    V = abelian_structure("P", [-1, -1])
    rho_a = {(0,): {0: F(1)}, (1,): {1: F(1)}}  # identity: commutes with all
    rho_b = {(0,): {1: F(1)}}
    table = {}
    for v, vec in rho_a.items():
        table[((0,), v)] = vec
    for v, vec in rho_b.items():
        table[((1,), v)] = vec
    comp = BiMultiMap(E.space, V.space, 1, 1, 1, table)
    act = ActionFamily(E, V, {(1, 1): comp})
    # [rho_a, rho_b] = 0 but rho_{[a,b]} = rho_b != 0
    assert not check_action(act, BOUND).ok


@pytest.mark.parametrize(
    "key,vec,named",
    [
        (((0,), (0,)), {-1: F(1)}, "output index -1"),
        (((0,), (0,)), {2: F(1)}, "output index 2"),
        (((-1,), (0,)), {1: F(1)}, "acting key (-1,)"),
        (((0,), (-2,)), {1: F(1)}, "target key (-2,)"),
        (((1,), (0,)), {1: F(1)}, "acting key (1,)"),
    ],
)
def test_component_indices_must_stay_in_their_bases(key, vec, named):
    # negative letters would read from the end of a basis
    E = GradedSpace("E", [("a", -1)])
    V = GradedSpace("V", [("p", -1), ("z", -1)])
    assert BiMultiMap(E, V, 1, 1, 1, {((0,), (0,)): {1: F(1)}}).constants
    with pytest.raises(InputError, match=rf"{re.escape(named)}.*basis"):
        BiMultiMap(E, V, 1, 1, 1, {key: vec})


# ---------------------------------------------------------------------------
# attached coderivations


def test_phi_of_zero_action_is_zero():
    act = zero_action()
    for x in ((0,), (1,)):
        assert indexed(act, x, (), BOUND) == {}


def test_phi_of_restriction_recovers_components():
    act = heisenberg_central_action(F(2), F(-1, 2))
    q = lifted(act, indexed_family(act, (0,), (), BOUND))
    for v in range(act.V.space.dim):
        assert restriction_vector(q, (v,)) == action_value(act, (0,), (v,))


def test_phi_of_single_component_acts_as_derivation():
    act = heisenberg_central_action()
    q = lifted(act, dense_mixed_family(act, (0,), (), BOUND))
    V = act.V.space
    p, qq, z = V.index("p"), V.index("q"), V.index("z")
    # on the pair (p, q) the lift is a derivation over the slots
    got = q.rows.get(tuple(sorted((p, qq))), {})
    expected = {}
    for u, c in [((z, qq), F(1))]:
        norm, s = V.normalize(u)
        expected[norm] = s * c
    assert got == expected


def test_ad_of_abelian_is_zero():
    act = zero_action()
    for v in ((0,), (1,)):
        assert indexed(act, (), v, BOUND) == {}


def test_ad_of_single_letter_matches_bracket():
    act = heisenberg_central_action()
    V = act.V
    p = V.space.index("p")
    ad_p = lifted(act, indexed_family(act, (), (p,), BOUND))
    for v in range(V.space.dim):
        assert restriction_vector(ad_p, (v,)) == eval_bracket(V, 2, (p, v))


@pytest.mark.parametrize(
    "act",
    [heisenberg_central_action(), solvable_self_action(), adjoint_action(triple_bracket_example())],
    ids=["heisenberg-central", "solvable-self", "adjoint-triple"],
)
def test_empty_words_read_the_brackets_and_the_components(act):
    # with nothing absorbed a family is the target's brackets, for the empty
    # acting word, or the rows of the components at an acting word
    brackets = {n: f for n, f in act.V.brackets.items() if n <= BOUND}
    assert brackets and indexed(act, (), (), BOUND) == tables(brackets)
    read = 0
    for k in range(1, BOUND + 1):
        for x in act.E.space.canonical_words(k):
            rows = {}
            for (kk, n), f in act.components.items():
                table = {vw: vec for (ew, vw), vec in f.constants.items() if ew == x}
                if kk == k and n <= BOUND and table:
                    rows[n] = table
            assert indexed(act, x, (), BOUND) == rows
            read += bool(rows)
    assert read


def test_phi_mixed_vanishes_for_representations():
    # components with a single target slot: the mixed coderivation composed
    # into any action image kills every word
    act = complex_representation_action()
    x = (0,)
    u = (act.V.space.index("u"),)
    mixed = lifted(act, indexed_family(act, x, u, BOUND))
    phi = lifted(act, indexed_family(act, x, (), BOUND))
    assert mixed.compose(phi).is_zero()


def test_phi_mixed_concrete_value():
    act = heisenberg_central_action(F(1), F(0))
    V = act.V.space
    p, q, z = V.index("p"), V.index("q"), V.index("z")
    mixed = lifted(act, indexed_family(act, (0,), (q,), BOUND))
    # restriction at one letter w is the (1,2)-component on (q, w): zero here
    assert restriction_vector(mixed, (p,)) == {}


# ---------------------------------------------------------------------------
# coherence


def test_representations_are_coherent():
    for act in (
        complex_representation_action(),
        adjoint_representation(heisenberg()),
        adjoint_representation(sl2()),
        adjoint_representation(triple_bracket_example()),
    ):
        assert check_coherence(act, BOUND).ok


def test_central_valued_classical_actions_coherent():
    assert check_coherence(heisenberg_central_action(), BOUND).ok
    assert check_coherence(heisenberg_central_action(F(-3), F(1, 2)), BOUND).ok
    assert check_coherence(solvable_on_plane_action(), BOUND).ok


def test_noncentral_actions_fail_coherence():
    assert not check_coherence(heisenberg_noncentral_action(), BOUND).ok
    assert not check_coherence(solvable_self_action(), BOUND).ok


def test_abelian_adjoint_action_coherent():
    assert check_coherence(adjoint_action(abelian_structure("A", [-1, -1])), BOUND).ok


def test_nonabelian_adjoint_action_not_coherent():
    assert not check_coherence(adjoint_action(sl2()), BOUND).ok


# ---------------------------------------------------------------------------
# the hemisemidirect product


def test_zero_action_product_is_direct_sum():
    E, V = heisenberg(), sl2()
    act = ActionFamily(E, V, {})
    assert check_action(act, BOUND).ok
    hemi = hemisemidirect(act)
    assert check_loday_infinity(hemi.structure, BOUND).ok
    # pure-block values agree with the factors
    st = hemi.structure
    for w, out, c in E.bracket(2).entries():
        got = eval_bracket(st, 2, w)
        assert got.get(out) == c


def test_product_brackets_lie_algebra_shape():
    act = heisenberg_central_action(F(1), F(0))
    hemi = hemisemidirect(act)
    st = hemi.structure
    E, V = act.E.space, act.V.space
    x = 0
    p = hemi.v_offset + V.index("p")
    q = hemi.v_offset + V.index("q")
    z_out = V.index("z")
    # (x+v) . (y+w) = [x,y] + rho_x w + [v,w]
    assert eval_bracket(st, 2, (x, p)) == {hemi.v_offset + z_out: F(1)}
    assert eval_bracket(st, 2, (p, q)) == {hemi.v_offset + z_out: F(1)}
    assert eval_bracket(st, 2, (p, x)) == {}  # no target-then-acting values


def test_product_brackets_representation_shape():
    act = complex_representation_action({1: F(1), 2: F(1, 3)})
    hemi = hemisemidirect(act)
    st = hemi.structure
    u = hemi.v_offset + act.V.space.index("u")
    w = hemi.v_offset + act.V.space.index("w")
    assert eval_bracket(st, 1, (u,)) == {w: F(1)}
    assert eval_bracket(st, 2, (0, u)) == {w: F(1)}
    assert eval_bracket(st, 3, (0, 0, u)) == {w: F(1, 3)}
    assert eval_bracket(st, 3, (0, u, 0)) == {}


def test_restriction_to_pure_blocks():
    act = solvable_on_plane_action()
    hemi = hemisemidirect(act)
    st = hemi.structure
    E, V = act.E, act.V
    for k, f in E.brackets.items():
        for w in E.space.words(k):
            expected = f.eval(w)
            assert hemi.e_part(eval_bracket(st, k, w)) == expected
    for k, f in V.brackets.items():
        for w in V.space.words(k):
            got = eval_bracket(st, k, hemi.from_v_word(w))
            assert hemi.v_part(got) == f.eval(w)


# ---------------------------------------------------------------------------
# the crosscheck of the equivalence


def test_crosscheck_coherent_instances():
    for act in (
        heisenberg_central_action(),
        solvable_on_plane_action(),
        complex_representation_action(),
        adjoint_representation(sl2()),
    ):
        coh, lod = theorem_crosscheck(act, BOUND)
        assert coh.ok and lod.ok


def test_crosscheck_violating_instances():
    for act in (heisenberg_noncentral_action(), solvable_self_action()):
        coh, lod = theorem_crosscheck(act, BOUND)
        assert not coh.ok and not lod.ok


def test_crosscheck_adjoint_actions():
    for E in (heisenberg(), solvable2(), sl2(), triple_bracket_example()):
        coh, lod = theorem_crosscheck(adjoint_action(E), BOUND)
        assert coh.ok == lod.ok


def test_crosscheck_zero_action():
    coh, lod = theorem_crosscheck(zero_action(), BOUND)
    assert coh.ok and lod.ok


def test_crosscheck_requires_an_action():
    E = solvable2()
    V = abelian_structure("P", [-1, -1])
    table = {((0,), (0,)): {0: F(1)}, ((1,), (0,)): {1: F(1)}}
    comp = BiMultiMap(E.space, V.space, 1, 1, 1, table)
    act = ActionFamily(E, V, {(1, 1): comp})
    if not check_action(act, BOUND).ok:
        with pytest.raises(InputError):
            theorem_crosscheck(act, BOUND)


def test_jacobiator_vanishes_on_front_block_words_for_mere_actions():
    # acting-then-target words: the anchored identity defect vanishes for any
    # genuine action, coherent or not
    from linfty.homotopy import _anchored_sums

    for act in (heisenberg_noncentral_action(), solvable_self_action(), adjoint_action(sl2())):
        assert check_action(act, BOUND).ok
        hemi = hemisemidirect(act)
        st = hemi.structure
        words = []
        for n in range(1, BOUND + 1):
            for word in st.space.words(n):
                letters = [i < hemi.v_offset for i in word]
                # all acting letters before all target letters
                if any(
                    (not a) and b for a, b in zip(letters, letters[1:])
                ):
                    continue
                words.append(word)
        assert words
        assert _anchored_sums(st.space, st.brackets, st.brackets, words) == {}


def test_corpus_smoke():
    corpus = action_corpus(30, seed=11)
    labels = {inst.label for inst in corpus}
    assert len(labels) == 30
    for inst in corpus[:20]:
        assert check_action(inst.action, 3).ok, inst.label


def test_ad_commutators_close_onto_brackets():
    # on a verified binary structure the commutator of two adjoint
    # coderivations is the adjoint coderivation of the bracket value
    from linfty.corpus import heisenberg, sl2
    from linfty.multimap import add_into, commutator

    for L in (heisenberg(), sl2()):
        act = adjoint_action(L)
        space = L.space
        ad = [lifted(act, dense_ad_family(act, (b,), 3), 3) for b in range(space.dim)]
        for v in range(space.dim):
            for w in range(space.dim):
                lhs = commutator(ad[v], ad[w])
                vec = eval_bracket(L, 2, (v, w))
                rows = {}
                for n in range(1, 4):
                    for word in space.canonical_words(n):
                        acc = {}
                        for b, c in vec.items():
                            for out, c2 in ad[b].rows.get(word, {}).items():
                                add_into(acc, out, c * c2)
                        if acc:
                            rows[word] = acc
                assert lhs.rows == rows, (L.space.name, v, w)


def test_crosscheck_agreement_at_other_bounds():
    # the weight-aligned coherence quantifiers keep the equivalence exact at
    # every truncation, not just the default one
    corpus = action_corpus(10, seed=99)
    for bound in (3, 5):
        for inst in corpus:
            coh, lod = theorem_crosscheck(inst.action, bound)
            assert coh.ok == lod.ok, (inst.label, bound)


def test_crosscheck_disagreement_names_the_first_residual(monkeypatch):
    # a spurious entry p -> p in each one-letter adjoint family that the
    # coherence check forms breaks coherence only: the action axiom and the
    # product read no adjoint family
    real = action_module._coherence_firsts

    def skewed(action, bound):
        for label, weight, parity, by_length in real(action, bound):
            if label.startswith("ad ") and weight == 1:
                by_length = {**by_length, 1: {**by_length.get(1, {}), (0,): {0: 1}}}
            yield label, weight, parity, by_length

    monkeypatch.setattr(action_module, "_coherence_firsts", skewed)
    with pytest.raises(RouteDisagreement) as err:
        theorem_crosscheck(heisenberg_central_action(), BOUND)
    assert str(err.value) == (
        "coherence says FAIL but the product identity says PASS; "
        "first coherence residual at [ad p ; a0 ; p] = (-1/1)*z"
    )


def test_kept_memos_return_the_identical_object():
    # the family keeps what its checks re-read: the split index, the
    # semidirect brackets and the coherence verdict
    act = solvable_self_action()
    index = action_module._absorbed(act)
    assert action_module._absorbed(act) is index
    semidirect = action_module._semidirect(act)
    assert action_module._semidirect(act) is semidirect
    verdict = act.is_coherent(BOUND)
    assert act.is_coherent(BOUND) is verdict


def test_crosscheck_indexes_each_table_once(monkeypatch):
    # no table of the crosscheck is indexed twice: check_coherence indexes
    # the components as one family Phi on the direct sum, and brackets
    # every first family with it
    real = action_module._letter_index
    built = []

    def counted(space, tables):
        built.append(tables)  # held, so that no id is reused
        return real(space, tables)

    monkeypatch.setattr(action_module, "_letter_index", counted)
    repeats = 0
    for inst in action_corpus(114, 3):
        built.clear()
        theorem_crosscheck(inst.action, BOUND)
        keys = [tuple(map(id, tables)) for tables in built if tables]
        repeats += len(keys) - len(set(keys))
    assert repeats == 0


def scalars(data):
    """The constants inside a family, a letter index, a list of key-value
    pairs or a composite."""
    if isinstance(data, MultiMap):
        return scalars(data.constants)
    if isinstance(data, dict):
        return [c for value in data.values() for c in scalars(value)]
    if isinstance(data, list):
        return [c for _, value in data for c in scalars(value)]
    return [data]


def test_fractional_actions_are_checked_on_int_constants(monkeypatch):
    # the checks clear the action's denominators and divide only the report;
    # on Fraction data every composite used to read and return Fractions
    seen = set()
    real = action_module._symmetric_composite

    def recorded(space, index, inner, bound):
        inner = list(inner)  # the inner family's pairs, read once here
        out = real(space, index, inner, bound)
        seen.update(type(c) for data in (index, inner, out) for c in scalars(data))
        return out

    monkeypatch.setattr(action_module, "_symmetric_composite", recorded)
    fractional = [
        inst.action for inst in action_corpus(38, 0)
        if any(type(c) is F for f in inst.action.components.values()
               for vec in f.constants.values() for c in vec.values())
    ]
    assert len(fractional) >= 10
    for action in fractional:
        check_action(action, BOUND)
        check_coherence(action, BOUND)
        theorem_crosscheck(action, BOUND)
    assert seen == {int}


# ---------------------------------------------------------------------------
# the crosscheck reads each family's data once, and only where a key is


def test_crosscheck_loday_report_is_the_products_own():
    # the crosscheck builds the product from the cleared action, so its
    # Loday report must be divided by D**2: it equals the report on the
    # action's own product, residual by residual
    files = [parse(ACTION_FILES[name]).action_family() for name in ("coherent", "noncoherent")]
    compared = 0
    for action in files + [action for _, action in NON_COHERENT]:
        for bound in (4, 5):
            loday = theorem_crosscheck(action, bound)[1]
            assert loday == check_loday_infinity(hemisemidirect(action).structure, bound)
            compared += len(loday.residuals)
    assert compared
    # the non-action stops at the crosscheck's precondition; its product,
    # read as the crosscheck reads it, has non-integral residuals
    action = parse(ACTION_FILES["nonaction"]).action_family()
    with pytest.raises(InputError):
        theorem_crosscheck(action, BOUND)
    cleared = _cleared(action)
    assert cleared._den == 3
    product = hemisemidirect(cleared).structure
    loday = _structure_report("loday-infinity", product, BOUND, anchored=True, den=3)
    assert loday == check_loday_infinity(hemisemidirect(action).structure, BOUND)
    assert any("/1)" not in r.value for r in loday.residuals)


def count_clearings(monkeypatch) -> list:
    calls = []
    real = homotopy_module._clear_denominators

    def counted(tables):
        calls.append(len(tables))
        return real(tables)

    monkeypatch.setattr(homotopy_module, "_clear_denominators", counted)
    monkeypatch.setattr(action_module, "_clear_denominators", counted)
    return calls


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "fractional"])
def test_each_family_is_cleared_once(monkeypatch, fractional):
    # one lcm scan per family, however many checks read it; the product of
    # the cleared action is read with the D already found
    calls = count_clearings(monkeypatch)

    def family():
        if fractional:
            return parse(ACTION_FILES["coherent"]).action_family()
        return heisenberg_central_action()

    theorem_crosscheck(family(), BOUND)
    assert len(calls) == 1
    action = family()
    check_action(action, BOUND)
    check_coherence(action, BOUND)
    theorem_crosscheck(action, BOUND)
    assert len(calls) == 2


def test_check_coherence_command_clears_once(monkeypatch, tmp_path):
    calls = count_clearings(monkeypatch)
    (tmp_path / "coherent.lif").write_text(ACTION_FILES["coherent"])
    paths = [str(FIXTURES / "heisenberg.lif"), str(tmp_path / "coherent.lif")]
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check-coherence", path, "--bound", "4"]) == 0
    assert len(calls) == len(paths)


@pytest.mark.parametrize("source", ["heisenberg-central", "adjoint-sl2", "adjoint_identity"])
def test_coherence_families_are_read_off_the_keys(monkeypatch, source):
    # every family is read off the split index and evaluates no bracket and
    # no component; check_coherence reads a first family only at a key of
    # that index with a nonempty absorbed word, never an empty one, and an
    # empty family runs no composite
    if source == "heisenberg-central":
        action = heisenberg_central_action()
    elif source == "adjoint-sl2":
        action = adjoint_action(sl2())
    else:
        action = parse_path(FIXTURES / "adjoint_identity.lif").action_family()
    inside, evals, composites, empty, firsts = [0], [0], [0], [0], []

    def counted_eval(real):
        def wrapper(self, *words):
            evals[0] += inside[0]
            return real(self, *words)

        return wrapper

    real_firsts = action_module._coherence_firsts

    def coherence_firsts(action, bound):
        inside[0] += 1
        try:
            out = list(real_firsts(action, bound))
        finally:
            inside[0] -= 1
        firsts.extend(out)
        return iter(out)

    real_composite = action_module._symmetric_composite

    def composite(space, index, inner, bound):
        composites[0] += 1
        empty[0] += not index or not inner
        return real_composite(space, index, inner, bound)

    monkeypatch.setattr(MultiMap, "eval", counted_eval(MultiMap.eval))
    monkeypatch.setattr(BiMultiMap, "eval", counted_eval(BiMultiMap.eval))
    monkeypatch.setattr(action_module, "_coherence_firsts", coherence_firsts)
    monkeypatch.setattr(action_module, "_symmetric_composite", composite)
    check_coherence(action, 5)
    assert evals[0] == 0
    assert empty[0] == 0
    assert all(min(by_length) <= 5 for *_, by_length in firsts)
    # each first family is the split index's own tables under its key, with
    # the parity of the family's degree 1 + |x| + |v|
    index = action_module._absorbed(_cleared(action))
    key_of = {id(by_length): key for key, by_length in index.items()}
    keyed = [key_of[id(by_length)] for *_, by_length in firsts]
    espace, vspace = action.E.space, action.V.space
    assert [parity for _, _, parity, _ in firsts] == [
        (1 + espace.word_degree(x) + vspace.word_degree(v)) % 2 for x, v in keyed
    ]
    # one bracket with the components as one family on the direct sum,
    # however many phi_y a first family meets: on sl2's adjoint action some
    # meet three, and a bracket with each phi_y took 18 composites, not 6
    assert composites[0] == 2 * len(firsts)
    # one first family for each key with room for an acting and a probe word
    keys = [(x, v) for x, v in index if v and len(x + v) <= 3]
    assert sorted(keyed) == sorted(keys)
    # the target of adjoint_identity has no brackets and its components
    # one target slot, so no key there absorbs a target word
    assert bool(firsts) == bool(composites[0]) == (source != "adjoint_identity")
