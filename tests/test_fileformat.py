from fractions import Fraction
from pathlib import Path

import pytest

from linfty import corpus
from linfty.fileformat import LifError, Settings, StructureFile, parse, parse_path, serialize
from linfty.homotopy import check_lie_infinity, check_loday_infinity, lie_to_loday
from linfty.multimap import PLAIN
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


def test_roundtrip_of_a_plain_section_of_symmetric_maps():
    # lie_to_loday keeps the symmetric maps under the plain flavor, which the
    # parser reads with no ordering implied: the file spells out each one
    structure = lie_to_loday(corpus.sl2())
    name = structure.space.name
    sf = StructureFile(
        spaces={name: structure.space},
        settings=Settings(3, structure.max_arity, 0),
        bracket_sections={name: (PLAIN, structure.brackets)},
    )
    text = serialize(sf)
    back = parse(text).structure(name)
    assert back.flavor == PLAIN
    assert {a: f.constants for a, f in back.brackets.items()} == {
        a: f.expand_plain().constants for a, f in structure.brackets.items()
    }
    assert len(back.brackets[2].constants) == 6
    assert check_loday_infinity(back, 4).ok
    assert serialize(parse(text)) == text


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


# -- every parser message, pinned at its line ----------------------------------

PREAMBLE = "space E\n  a 0\n  b 1\n  c 2\nspace V\n  u 0\n  v 1\n  w 2\n"

SCALAR_ERRORS = [
    ("1", "scalar '1' must be written p/q"),
    ("0.5", "scalar '0.5' must be written p/q"),
    ("1/-1", "scalar '1/-1' must be written p/q"),
    ("1/0", "scalar '1/0' has a zero denominator"),
    ("0/1", "zero coefficients are not stored"),
    ("2/4", "scalar '2/4' is not in lowest terms"),
]

# header, the inputs and output of a valid arity-2 entry, an output that
# breaks the degree, the source and target space, the degree label
MAP_SECTIONS = [
    ("brackets E symmetric", "a b", "c", "b", "E", "E", "+1 bracket"),
    ("brackets E plain", "a b", "c", "b", "E", "E", "+1 bracket"),
    ("tensor V E", "u v", "b", "a", "V", "E", "degree-0 map"),
    ("morphism E V", "a b", "v", "u", "E", "V", "degree-0 map"),
]


def assert_refused_at_last_line(text: str, message: str) -> None:
    with pytest.raises(LifError) as err:
        parse(text)
    line = text.count("\n")
    assert str(err.value) == f"line {line}: {message}"


def _map_cases():
    for header, ins, out, off, src, dst, label in MAP_SECTIONS:
        first = ins.split()[0]
        entry = f"2 : {ins} -> {out} : 1/1"
        rows = [
            (f"2 {ins} -> {out} : 1/1", "entries have the shape 'arity : words -> out : p/q'"),
            (f"x : {ins} -> {out} : 1/1", "bad arity 'x'"),
            (f"0 : -> {out} : 1/1", "arity must be positive"),
            (f"2 : {ins} {out} : 1/1", "missing '->' in entry"),
            (f"2 : {ins} -> 1{out} : 1/1", f"bad output symbol '1{out}'"),
            (f"2 : {first} -> {out} : 1/1", "1 inputs for arity 2"),
            (f"2 : {first} zz -> {out} : 1/1", f"unknown symbol 'zz' in space '{src}'"),
            (f"2 : {ins} -> zz : 1/1", f"unknown symbol 'zz' in space '{dst}'"),
            *((f"2 : {ins} -> {out} : {s}", m) for s, m in SCALAR_ERRORS),
            (f"2 : {ins} -> {off} : 1/1", f"entry breaks degree homogeneity of a {label}"),
            (f"{entry}\n  {entry}", "duplicate constant"),
        ]
        if header.endswith("symmetric"):
            rows += [
                ("2 : b b -> c : 1/1", "key vanishes in the symmetric algebra"),
                ("2 : b a -> c : 1/1", "symmetric keys must be in canonical order"),
            ]
        else:
            rows.append((f"2 : {' '.join(reversed(ins.split()))} -> {out} : 1/1", None))
        for text, message in rows:
            yield header, text, message


ACTION_ENTRY = "1 1 : a ; u -> v : 1/1"
ACTION_CASES = [
    ("1 1 : a ; u -> v", "entries have the shape 'arity : words -> out : p/q'"),
    ("1 : a ; u -> v : 1/1", "action entries start with '<k> <n> :'"),
    ("1 x : a ; u -> v : 1/1", "bad arities '1 x'"),
    ("1 1 : a u -> v : 1/1", "action entries separate blocks with ';'"),
    ("1 1 : a ; u v : 1/1", "missing '->' in entry"),
    ("1 1 : a ; u -> 1v : 1/1", "bad output symbol '1v'"),
    ("1 2 : a ; u -> v : 1/1", "block lengths do not match the stated arities"),
    ("0 1 : ; u -> v : 1/1", "both blocks of a component must be nonempty"),
    ("1 1 : zz ; u -> v : 1/1", "unknown symbol 'zz' in space 'E'"),
    ("1 1 : a ; zz -> v : 1/1", "unknown symbol 'zz' in space 'V'"),
    ("1 1 : a ; u -> zz : 1/1", "unknown symbol 'zz' in space 'V'"),
    *((f"1 1 : a ; u -> v : {s}", m) for s, m in SCALAR_ERRORS),
    ("2 1 : b b ; u -> w : 1/1", "acting key vanishes in the symmetric algebra"),
    ("2 1 : b a ; u -> w : 1/1", "acting key must be in canonical order"),
    ("1 2 : a ; v v -> w : 1/1", "target key vanishes in the symmetric algebra"),
    ("1 2 : a ; v u -> w : 1/1", "target key must be in canonical order"),
    ("1 1 : a ; u -> u : 1/1", "entry breaks degree homogeneity of a +1 component"),
    (f"{ACTION_ENTRY}\n  {ACTION_ENTRY}", "duplicate constant"),
    (ACTION_ENTRY, None),
]


@pytest.mark.parametrize(
    "header, entry, message",
    [*_map_cases(), *(("action E V", text, message) for text, message in ACTION_CASES)],
)
def test_map_entry_messages(header, entry, message):
    # each malformed entry is the last line of its section; None marks an
    # entry that parses
    text = f"{PREAMBLE}{header}\n  {entry}\n"
    if message is None:
        parse(text)
        return
    assert_refused_at_last_line(text, message)


@pytest.mark.parametrize(
    "tail, message",
    [
        ("space", "space header is 'space <name>'"),
        ("space 1E", "space header is 'space <name>'"),
        ("space E", "space 'E' declared twice"),
        ("space F\n  a", "space entries are '<symbol> <degree>'"),
        ("space F\n  a one", "bad degree 'one'"),
        ("space F\n  a 0\n  a 1", "duplicate symbol 'a'"),
        ("settings 1", "settings header takes no arguments"),
        ("settings\nsettings", "settings declared twice"),
        ("settings\n  tolerance 3", "settings entries are bound/max_arity/seed <int>"),
        ("settings\n  bound x", "bad integer 'x'"),
        ("settings\n  bound 0", "bound must be positive"),
        ("settings\n  max_arity -1", "max_arity must be positive"),
        ("settings\n  bound 3\n  bound 5", "setting 'bound' given twice"),
        ("brackets E", "brackets header is 'brackets <space> <symmetric|plain>'"),
        ("brackets E lie", "brackets header is 'brackets <space> <symmetric|plain>'"),
        ("brackets Z plain", "brackets for undeclared space 'Z'"),
        ("brackets E plain\nbrackets E symmetric", "brackets for 'E' declared twice"),
        ("tensor V", "tensor header is 'tensor <source> <target>'"),
        ("action E Z", "action uses undeclared space 'Z'"),
        ("morphism E V\nmorphism V E", "morphism declared twice"),
        ("action E V\ntensor V E\naction E V", "action declared twice"),
        (
            "settings\n  max_arity 1\nbrackets E plain\n  1 : a -> b : 1/1\n  2 : a b -> c : 1/1",
            "bracket arity 2 exceeds max_arity 1",
        ),
    ],
)
def test_header_and_plain_entry_messages(tail, message):
    text = f"{PREAMBLE}{tail}\n"
    assert_refused_at_last_line(text, message)


def test_max_arity_refusal_names_the_first_entry_of_the_arity():
    # settings may follow the brackets; sections are refused in file order
    text = (
        f"{PREAMBLE}brackets V symmetric\n  3 : u u u -> v : 1/1\n"
        "brackets E symmetric\n  2 : a a -> b : 1/1\n  3 : a a a -> b : 1/1\n"
        "  2 : a b -> c : 1/1\nsettings\n  max_arity 1\n"
    )
    with pytest.raises(LifError) as err:
        parse(text)
    assert str(err.value) == "line 10: bracket arity 3 exceeds max_arity 1"
    with pytest.raises(LifError) as err:
        parse(text.replace("max_arity 1", "max_arity 3").replace("3 : u u u", "4 : u u u u"))
    assert str(err.value) == "line 10: bracket arity 4 exceeds max_arity 3"
    text = text.replace("brackets V symmetric\n  3 : u u u -> v : 1/1\n", "")
    with pytest.raises(LifError) as err:
        parse(text)
    assert str(err.value) == "line 10: bracket arity 2 exceeds max_arity 1"


def test_entry_before_any_section_names_line_one():
    with pytest.raises(LifError) as err:
        parse(f"  x 0\n{PREAMBLE}")
    assert str(err.value) == "line 1: entry outside any section: 'x 0'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("space E\n  x 0\nspace V\n", "line 3: space 'V' has an empty basis"),
        ("space E\n\n# nothing yet\nspace V\n  x 0\n", "line 1: space 'E' has an empty basis"),
        ("space E\n  x 0\nspace V\nsettings\n", "line 3: space 'V' has an empty basis"),
    ],
)
def test_empty_space_names_its_header_line(text, message):
    with pytest.raises(LifError) as err:
        parse(text)
    assert str(err.value) == message


# int() and \d accept more than ASCII digits with an optional '-'
@pytest.mark.parametrize(
    "tail, message",
    [
        ("space F\n  a 1_0", "bad degree '1_0'"),
        ("space F\n  a +0", "bad degree '+0'"),
        ("space F\n  a \u0661", "bad degree '\u0661'"),
        ("space F\n  a \uff11", "bad degree '\uff11'"),
        ("settings\n  bound 1_0", "bad integer '1_0'"),
        ("settings\n  seed +3", "bad integer '+3'"),
        ("settings\n  max_arity \u0663", "bad integer '\u0663'"),
        ("brackets E plain\n  +2 : a b -> c : 1/1", "bad arity '+2'"),
        ("brackets E plain\n  0_2 : a b -> c : 1/1", "bad arity '0_2'"),
        ("tensor V E\n  \u0662 : u v -> b : 1/1", "bad arity '\u0662'"),
        ("action E V\n  1 +1 : a ; u -> v : 1/1", "bad arities '1 +1'"),
        ("action E V\n  \u0661 1 : a ; u -> v : 1/1", "bad arities '\u0661 1'"),
        (
            "brackets E plain\n  2 : a b -> c : \u0661/\u0662",
            "scalar '\u0661/\u0662' must be written p/q",
        ),
        ("morphism E V\n  2 : a b -> v : 1_0/3", "scalar '1_0/3' must be written p/q"),
        ("action E V\n  1 1 : a ; u -> v : +1/2", "scalar '+1/2' must be written p/q"),
    ],
)
def test_integers_are_ascii_digits_with_an_optional_minus(tail, message):
    text = f"{PREAMBLE}{tail}\n"
    assert_refused_at_last_line(text, message)
