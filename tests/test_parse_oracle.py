"""The parser is the one validator of a file's maps: it builds them unchecked
(``MultiMap._unchecked``/``BiMultiMap._unchecked``), so every map it returns
must equal the map the checked constructors rebuild from its constants, and
every scalar must already be in the normal form of ``multimap.exact``.

The files are the fixtures plus seeded corpus actions and tensors written with
``serialize`` and parsed back; the malformed rows of the parser tables in
``test_fileformat.py`` must still be refused by the parser, at their line.
"""
from fractions import Fraction
from pathlib import Path

import pytest
from test_fileformat import ACTION_CASES, PREAMBLE, _map_cases

from linfty import corpus
from linfty.action import BiMultiMap
from linfty.fileformat import LifError, Settings, StructureFile, parse, parse_path, serialize
from linfty.multimap import MultiMap

FIXTURES = Path(__file__).parent / "fixtures"
SEEDS = (5, 29)


def file_of(action, tensor=None) -> StructureFile:
    """An action, and optionally a tensor on it, as one structure file."""
    sf = StructureFile()
    for structure in (action.E, action.V):
        sf.spaces[structure.space.name] = structure.space
        sf.bracket_sections[structure.space.name] = (structure.flavor, structure.brackets)
    sf.settings = Settings(4, max(action.E.max_arity, action.V.max_arity), 0)
    sf.action_section = (action.E.space.name, action.V.space.name, action.components)
    if tensor is not None:
        sf.tensor_section = (tensor.v_space.name, tensor.e_space.name, tensor.components)
    return sf


def corpus_files():
    # the seeded entries follow the 19 catalog actions and the 3 fixed tensors
    for seed in SEEDS:
        for inst in corpus.action_corpus(30, seed)[19:]:
            yield f"action {inst.label}@{seed}", file_of(inst.action)
        for inst in corpus.tensor_corpus(18, seed)[3:]:
            yield f"tensor {inst.label}@{seed}", file_of(inst.action, inst.tensor)


def sections(sf: StructureFile):
    """Every map section of a parsed file as ``(kind, {arity: map})``."""
    for _, maps in sf.bracket_sections.values():
        yield "brackets", maps
    for kind in ("action", "tensor", "morphism"):
        section = getattr(sf, f"{kind}_section")
        if section is not None:
            yield kind, section[2]


def checked_copy(f):
    if isinstance(f, BiMultiMap):
        return BiMultiMap(f.e_space, f.v_space, f.e_arity, f.v_arity, f.degree, f.constants)
    return MultiMap(f.source, f.target, f.arity, f.degree, f.flavor, f.constants)


def checked_scalars(sf: StructureFile, label: str) -> list:
    """Every scalar of the parsed maps, after checking each map against its
    checked rebuild and each scalar's normal form."""
    scalars = []
    for kind, maps in sections(sf):
        for arity, f in maps.items():
            g = checked_copy(f)
            for slot in f.__slots__:
                assert getattr(g, slot) == getattr(f, slot), (label, kind, arity, slot)
            for vec in f.constants.values():
                assert vec, (label, kind, arity)
                for c in vec.values():
                    assert type(c) in (int, Fraction), (label, c)
                    assert (type(c) is int) == (Fraction(c).denominator == 1), (label, c)
                    scalars.append(c)
    return scalars


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lif")), ids=lambda p: p.name)
def test_fixture_maps_equal_their_checked_rebuilds(path):
    checked_scalars(parse_path(path), path.name)


def test_corpus_files_parse_back_to_their_checked_maps():
    # the written maps came through the checked constructors
    files = list(corpus_files())
    assert len(files) >= 50
    types = set()
    for label, written in files:
        sf = parse(serialize(written))
        types.update(type(c) for c in checked_scalars(sf, label))
        for (kind, maps), (_, before) in zip(sections(sf), sections(written), strict=True):
            assert {k: f.constants for k, f in maps.items()} == {
                k: f.constants for k, f in before.items()
            }, (label, kind)
    # the basis changes give many constants a denominator
    assert types == {int, Fraction}


def _malformed_rows():
    for header, entry, message in [
        *_map_cases(),
        *(("action E V", text, message) for text, message in ACTION_CASES),
    ]:
        if message is not None:
            yield f"{PREAMBLE}{header}\n  {entry}\n"


@pytest.mark.parametrize("text", list(_malformed_rows()))
def test_malformed_entries_are_refused_by_the_parser_at_their_line(text):
    with pytest.raises(LifError) as err:
        parse(text)
    assert err.value.line == text.count("\n")
