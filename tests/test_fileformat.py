from fractions import Fraction
from pathlib import Path

import pytest

from linfty.fileformat import LifError, parse, parse_path, serialize
from linfty.homotopy import check_lie_infinity
from linfty.report import InputError

FIXTURES = Path(__file__).parent / "fixtures"

F = Fraction


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_parse_heisenberg():
    sf = parse_path(FIXTURES / "heisenberg.lif")
    assert set(sf.spaces) == {"E", "V"}
    assert sf.spaces["V"].symbols == ("p", "q", "z")
    assert sf.settings.bound == 4 and sf.settings.max_arity == 3
    flavor, brackets = sf.bracket_sections["V"]
    assert flavor == "symmetric"
    assert brackets[2].eval((0, 1)) == {2: F(1)}
    ename, vname, comps = sf.action_section
    assert (ename, vname) == ("E", "V")
    assert comps[(1, 1)].eval((0,), (0,)) == {2: F(1)}
    vname2, ename2, tcomps = sf.tensor_section
    assert (vname2, ename2) == ("V", "E")
    assert tcomps[1].eval((0,)) == {0: F(1)}


def test_parse_empty_brackets_gives_abelian():
    sf = parse_path(FIXTURES / "abelian.lif")
    for name in ("E", "V"):
        structure = sf.structure(name)
        assert not structure.brackets
        assert check_lie_infinity(structure, 3).ok
    family = sf.action_family()
    assert not family.components


def test_roundtrip_idempotence_on_fixtures():
    for path in sorted(FIXTURES.glob("*.lif")):
        sf = parse_path(path)
        text1 = serialize(sf)
        sf2 = parse(text1)
        text2 = serialize(sf2)
        assert text1 == text2, path.name


def test_rejects_zero_denominator():
    text = fixture_text("heisenberg.lif").replace("1/1", "1/0")
    with pytest.raises(LifError):
        parse(text)


def test_rejects_bare_integers_and_floats():
    base = fixture_text("loday_plain.lif")
    with pytest.raises(LifError):
        parse(base.replace("-> z : 1/1", "-> z : 1"))
    with pytest.raises(LifError):
        parse(base.replace("-> z : 1/1", "-> z : 0.5"))


def test_rejects_non_reduced_scalar():
    text = fixture_text("heisenberg.lif").replace("p -> x : 1/1", "p -> x : 2/4")
    with pytest.raises(LifError):
        parse(text)


def test_rejects_zero_coefficient():
    text = fixture_text("heisenberg.lif").replace("p -> x : 1/1", "p -> x : 0/1")
    with pytest.raises(LifError):
        parse(text)


def test_rejects_unknown_symbol():
    text = fixture_text("heisenberg.lif").replace("1 1 : x ; p", "1 1 : y ; p")
    with pytest.raises(LifError) as err:
        parse(text)
    assert "unknown symbol" in str(err.value)


def test_rejects_noncanonical_symmetric_key():
    text = fixture_text("heisenberg.lif").replace("2 : p q -> z", "2 : q p -> z")
    with pytest.raises(LifError) as err:
        parse(text)
    assert "canonical" in str(err.value)


def test_rejects_degree_mismatch():
    text = fixture_text("heisenberg.lif").replace("2 : p q -> z", "1 : p -> p")
    with pytest.raises(LifError) as err:
        parse(text)
    assert "degree" in str(err.value)


def test_rejects_unknown_sections_and_settings():
    with pytest.raises(LifError):
        parse("space E\n  x 0\n\nwhatever E\n")
    with pytest.raises(LifError):
        parse("settings\n  tolerance 3\n")


def test_rejects_duplicate_constant():
    text = fixture_text("heisenberg.lif") + "\n"
    text = text.replace(
        "tensor V E\n  1 : p -> x : 1/1",
        "tensor V E\n  1 : p -> x : 1/1\n  1 : p -> x : 1/2",
    )
    with pytest.raises(LifError) as err:
        parse(text)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("kind", ["tensor", "morphism"])
def test_rejects_arity_zero_component(kind):
    # a degree-0 output makes the empty key homogeneous, so only the arity
    # check refuses it, as for a bracket entry
    text = fixture_text("twoterm.lif") + f"\n{kind} C C\n  0 : -> w : 1/1\n"
    with pytest.raises(LifError) as err:
        parse(text)
    assert "arity must be positive" in str(err.value)
    assert err.value.line == text.count("\n")


ARITY_ZERO_ACTION = "space E\n  x 0\nspace V\n  v 0\n  w 1\naction E V\n  0 1 : ; v -> w : 1/1\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("0 1 : ; v -> w : 1/1", "both blocks of a component must be nonempty"),
        ("1 0 : x ; -> w : 1/1", "both blocks of a component must be nonempty"),
        ("-1 1 : ; v -> w : 1/1", "block lengths do not match the stated arities"),
    ],
)
def test_rejects_empty_action_block_at_its_line(entry, message):
    # an empty block with a degree-1 output is homogeneous, so the entry
    # passes every other check; a negative arity matches no block length
    text = ARITY_ZERO_ACTION.replace("0 1 : ; v -> w : 1/1", entry)
    with pytest.raises(LifError) as err:
        parse(text)
    assert str(err.value) == f"line 7: {message}"


def test_error_carries_line_number():
    text = "space E\n  x 0\n\nbrackets E symmetric\n  1 : x -> x : 1/1\n"
    with pytest.raises(LifError) as err:
        parse(text)
    assert err.value.line == 5


def test_unknown_space_lookup():
    sf = parse_path(FIXTURES / "twoterm.lif")
    with pytest.raises(InputError):
        sf.space("Z")
