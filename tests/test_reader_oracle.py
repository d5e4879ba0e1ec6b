"""The one-pass ``.lif`` reader against the parser it replaced.

``reference_parser.py`` holds that parser verbatim.  On every fixture under
``tests/fixtures/``, the corpus files of ``test_parse_oracle.py`` and seeded
line-level mutants of each fixture, both parsers must give the same maps and
the same ``serialize`` text, or the same error text.  The reference also ends
a line at ``\\v \\f \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``; the mutants hold none
of those, and their own test pins how the reader treats them: as characters
of the line.
"""
import random
from pathlib import Path

import pytest
import reference_parser
from test_parse_oracle import _malformed_rows, corpus_files

from linfty.action import BiMultiMap
from linfty.fileformat import LifError, parse, serialize

FIXTURES = Path(__file__).parent / "fixtures"
PATHS = sorted(FIXTURES.rglob("*.lif"))
SEPARATORS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
MUTANTS_PER_FIXTURE = 160

# tokens a mutant may put in place of a token or a character, beside the
# fixtures' own: malformed integers and scalars, keywords, separators of
# the entry grammar and line ends
TRICKY = [
    "0", "-1", "+1", "1_0", "\u0661", "-", "--1", "1/0", "0/1", "2/4", "1/-1", "3/2",
    "-2/3", "1/1", "->", "-> ", ":", " : ", ";", " ; ", "#", "zz", "1x", "", "\t",
    "space", "settings", "brackets", "action", "tensor", "morphism", "symmetric",
    "plain", "bound", "max_arity", "seed", "\r", "\r\n", "\n",
]


def _state(sf) -> tuple:
    """Everything a parsed file holds, with each scalar's type; every map's
    spaces must be the file's own."""
    def table(maps, src, dst):
        out = {}
        for arity, f in maps.items():
            if isinstance(f, BiMultiMap):
                assert (f.e_space, f.v_space) == (src, dst)
                shape = ("bi", f.e_arity, f.v_arity, f.degree)
            else:
                assert (f.source, f.target) == (src, dst)
                shape = ("multi", f.arity, f.degree, f.flavor)
            rows = {k: {o: (type(c), c) for o, c in v.items()} for k, v in f.constants.items()}
            out[arity] = (shape, rows)
        return out

    spaces = sf.spaces
    brackets = {
        name: (flavor, table(maps, spaces[name], spaces[name]))
        for name, (flavor, maps) in sf.bracket_sections.items()
    }
    sections = [
        None if section is None
        else (section[0], section[1], table(section[2], spaces[section[0]], spaces[section[1]]))
        for section in (sf.action_section, sf.tensor_section, sf.morphism_section)
    ]
    return (
        [(n, s.name, s.symbols, s.degrees) for n, s in spaces.items()],
        (sf.settings.bound, sf.settings.max_arity, sf.settings.seed),
        brackets,
        sections,
    )


def outcome(parser, text: str) -> tuple:
    try:
        sf = parser(text)
    except LifError as exc:
        return ("refused", str(exc))
    return ("parsed", serialize(sf), _state(sf))


def assert_same(text: str, label) -> tuple:
    expected = outcome(reference_parser.parse, text)
    assert outcome(parse, text) == expected, (label, text)
    return expected


def _mutant(lines: list[str], pool: list[str], others: list[str], rng: random.Random) -> str:
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(9)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
    elif kind == 4:
        lines.insert(i, rng.choice(others))
    elif kind in (5, 6):
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        if kind == 5:
            tokens[j] = rng.choice(pool)
        else:
            del tokens[j]
        lines[i] = " ".join(tokens)
    elif kind == 7:
        line = lines[i]
        j = rng.randrange(len(line) + 1)
        lines[i] = line[:j] + rng.choice(TRICKY) + line[j + rng.randrange(2):]
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return "\n".join(lines)


def _fixture_lines():
    texts = {path: path.read_text(encoding="utf-8") for path in PATHS}
    others = [line for text in texts.values() for line in text.split("\n")]
    return texts, others


def test_no_fixture_holds_a_separator_the_parsers_read_apart():
    texts, _ = _fixture_lines()
    assert len(texts) >= 14
    for path, text in texts.items():
        assert not set(text) & set(SEPARATORS), path


@pytest.mark.parametrize("path", PATHS, ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixtures_read_as_the_reference_reads_them(path):
    text = path.read_text(encoding="utf-8")
    assert assert_same(text, path.name)[0] == "parsed"
    # line ends: CRLF and CR alone read as LF
    for end in ("\r\n", "\r"):
        assert_same(text.replace("\n", end), (path.name, end))


def test_corpus_files_read_as_the_reference_reads_them():
    files = list(corpus_files())
    assert len(files) >= 50
    for label, written in files:
        assert assert_same(serialize(written), label)[0] == "parsed"


def test_the_malformed_entry_rows_are_refused_as_the_reference_refuses_them():
    rows = list(_malformed_rows())
    assert len(rows) > 80
    for text in rows:
        assert assert_same(text, "row")[0] == "refused"


@pytest.mark.parametrize("path", PATHS, ids=lambda p: str(p.relative_to(FIXTURES)))
def test_mutants_read_as_the_reference_reads_them(path):
    texts, others = _fixture_lines()
    lines = texts[path].split("\n")
    pool = sorted({t for line in others for t in line.split()}) + TRICKY
    rng = random.Random(f"reader-oracle {path.relative_to(FIXTURES)}")
    seen = {"parsed": 0, "refused": 0}
    for n in range(MUTANTS_PER_FIXTURE):
        text = _mutant(lines, pool, others, rng)
        assert not set(text) & set(SEPARATORS)
        seen[assert_same(text, (path.name, n))[0]] += 1
    # the mutants reach both outcomes
    assert seen["parsed"] and seen["refused"], seen


@pytest.mark.parametrize("char", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_separator_in_a_comment_is_part_of_the_comment(char):
    abelian = (FIXTURES / "abelian.lif").read_text(encoding="utf-8")
    text = f"# note{char}space Z\n{abelian}"
    assert serialize(parse(text)) == serialize(parse(abelian))
    text = f"space E\n  x 0  # note{char}y 1\n  z 1\n"
    assert parse(text).spaces["E"].symbols == ("x", "z")
    # a later error names the line that LF ends count
    with pytest.raises(LifError) as err:
        parse(f"# note{char}space Z\nspace E\n  x one\n")
    assert str(err.value) == "line 3: bad degree 'one'"
