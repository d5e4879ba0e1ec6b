"""Line-oriented text format for structure constants.

Sections start with a keyword header (``space``, ``settings``, ``brackets``,
``action``, ``tensor``, ``morphism``); every following line is an entry of
that section.  Scalars are always written ``p/q`` in lowest terms with a
positive denominator, so a file can never smuggle in a float.  Word keys of
symmetric brackets must be written in canonical basis order; the parser
rejects out-of-order keys rather than silently normalising them.  Integers
are ASCII digits with an optional ``-``, and every error names its line.

Each map header (``brackets``, ``action``, ``tensor``, ``morphism``) opens a
section record ``(kind, source, target, flavor, {arity: {key: {out: c}}},
{arity: first line})``; an action's arity is ``(k, n)`` and its key a pair of
words.  Map and action entries share one reader, and one loop turns every
record into its maps.  The parser is the one validator of a file's maps: it
checks each entry at its line for all that the ``MultiMap``/``BiMultiMap``
constructors check, so ``_unchecked`` builds the maps, on scalars in the
normal form of :func:`linfty.multimap.exact`.

A line ends at LF, CRLF or CR only; comments run from ``#`` to its end.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

from .action import ActionFamily, BiMultiMap
from .graded import GradedSpace
from .homotopy import HomotopyStructure
from .multimap import PLAIN, SYMMETRIC, MultiMap, Scalar
from .report import InputError, frac_str
from .tensor import EmbeddingTensor

KEYWORDS = {"space", "settings", "brackets", "action", "tensor", "morphism"}
SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+']*\Z")
SCALAR_RE = re.compile(r"-?[0-9]+/[0-9]+\Z")
# the degree of each section's maps, and their name in messages
MAP_DEGREES = {
    "brackets": (1, "+1 bracket"),
    "action": (1, "+1 component"),
    "tensor": (0, "degree-0 map"),
    "morphism": (0, "degree-0 map"),
}

__all__ = ["LifError", "Settings", "StructureFile", "parse", "parse_bytes", "parse_path",
           "serialize"]


class LifError(InputError):
    """Malformed structure file, with a line diagnostic."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Settings:
    bound: int = 4
    max_arity: int = 3
    seed: int = 0


@dataclass
class StructureFile:
    spaces: dict[str, GradedSpace] = field(default_factory=dict)
    settings: Settings = field(default_factory=Settings)
    bracket_sections: dict[str, tuple[str, dict[int, MultiMap]]] = field(
        default_factory=dict
    )
    action_section: tuple[str, str, dict[tuple[int, int], BiMultiMap]] | None = None
    tensor_section: tuple[str, str, dict[int, MultiMap]] | None = None
    morphism_section: tuple[str, str, dict[int, MultiMap]] | None = None

    def space(self, name: str) -> GradedSpace:
        if name not in self.spaces:
            raise InputError(f"unknown space {name!r}")
        return self.spaces[name]

    def structure(self, name: str) -> HomotopyStructure:
        space = self.space(name)
        flavor, brackets = self.bracket_sections.get(name, (SYMMETRIC, {}))
        return HomotopyStructure(space, flavor, brackets, self.settings.max_arity)

    def action_family(self) -> ActionFamily:
        if self.action_section is None:
            raise InputError("the file has no action section")
        ename, vname, comps = self.action_section
        return ActionFamily(self.structure(ename), self.structure(vname), comps)

    def embedding_tensor(self) -> EmbeddingTensor:
        if self.tensor_section is None:
            raise InputError("the file has no tensor section")
        vname, ename, comps = self.tensor_section
        return EmbeddingTensor(self.space(vname), self.space(ename), comps)


def _integer(token: str, line: int, what: str, shown: str) -> int:
    # -?[0-9]+ only: int() also takes '+', '_' and the digits of other scripts
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise LifError(line, f"bad {what} {shown!r}")
    return int(token)


def _word(space: GradedSpace, degrees, symbols, total: int, line: int) -> tuple[tuple, int]:
    """The word of ``symbols`` in ``space``, and ``total`` plus its degree."""
    word = []
    try:
        for symbol in symbols:
            i = space.index(symbol)
            word.append(i)
            total += degrees[i]
    except KeyError:
        raise LifError(line, f"unknown symbol {symbol!r} in space {space.name!r}") from None
    return tuple(word), total


def _scalar(token: str, line: int) -> Scalar:
    if not SCALAR_RE.match(token):
        raise LifError(line, f"scalar {token!r} must be written p/q")
    p, q = map(int, token.split("/"))
    if q == 0:
        raise LifError(line, f"scalar {token!r} has a zero denominator")
    if p == 0:
        raise LifError(line, "zero coefficients are not stored")
    if gcd(abs(p), q) != 1:
        raise LifError(line, f"scalar {token!r} is not in lowest terms")
    return p if q == 1 else Fraction(p, q)


class _Parser:
    """One pass over the lines.  Each header returns the reader of its
    entries; an open space is ``(name, {symbol: degree}, header line)``, and
    a map section's entries read its spaces and degrees, resolved at it."""

    def __init__(self, text: str):
        self.sf = StructureFile()
        self.space = None
        self.section = None
        self.records: list[tuple] = []
        self.declared: set = set()
        # each distinct scalar of the file is checked once
        self.scalars: dict[str, Scalar] = {}
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        read = None
        for lineno, raw in enumerate(text.split("\n"), start=1):
            if "#" in raw:
                raw = raw.partition("#")[0]
            # two tokens and the rest: a space or settings entry has two
            tokens = raw.split(None, 2)
            if not tokens:
                continue
            if tokens[0] in KEYWORDS:
                read = self._start_section(raw.split(), lineno)
            elif read is None:
                raise LifError(lineno, f"entry outside any section: {raw.strip()!r}")
            else:
                read(raw, tokens, lineno)
        self._finish()

    # -- sections --------------------------------------------------------------

    def _start_section(self, tokens, line):
        self._close_space()
        kind = tokens[0]
        args = tokens[1:]
        if kind == "space":
            if len(args) != 1 or not SYMBOL_RE.match(args[0]):
                raise LifError(line, "space header is 'space <name>'")
            if args[0] in self.sf.spaces:
                raise LifError(line, f"space {args[0]!r} declared twice")
            self.space = (args[0], {}, line)
            return self._space_entry
        if kind == "settings":
            if args:
                raise LifError(line, "settings header takes no arguments")
            key = kind
        elif kind == "brackets":
            if len(args) != 2 or args[1] not in (SYMMETRIC, PLAIN):
                raise LifError(
                    line, "brackets header is 'brackets <space> <symmetric|plain>'"
                )
            if args[0] not in self.sf.spaces:
                raise LifError(line, f"brackets for undeclared space {args[0]!r}")
            key = (kind, args[0])
            src, dst, flavor = args[0], args[0], args[1]
        else:
            if len(args) != 2:
                raise LifError(line, f"{kind} header is '{kind} <source> <target>'")
            for name in args:
                if name not in self.sf.spaces:
                    raise LifError(line, f"{kind} uses undeclared space {name!r}")
            key = kind
            src, dst = args
            flavor = SYMMETRIC if kind == "action" else PLAIN
        if key in self.declared:
            what = f"brackets for {args[0]!r}" if kind == "brackets" else kind
            raise LifError(line, f"{what} declared twice")
        self.declared.add(key)
        if kind == "settings":
            return self._setting
        table, firsts = {}, {}
        self.records.append((kind, src, dst, flavor, table, firsts))
        src, dst = self.sf.spaces[src], self.sf.spaces[dst]
        self.section = (kind == "action", flavor == SYMMETRIC, src, src.degrees, dst,
                        dst.degrees, *MAP_DEGREES[kind], table, firsts)
        return self._map_entry

    def _close_space(self):
        # space sections are materialised as soon as another section begins
        if self.space is not None:
            name, basis, line = self.space
            if not basis:
                raise LifError(line, f"space {name!r} has an empty basis")
            self.sf.spaces[name] = GradedSpace(name, basis.items())
            self.space = None

    # -- entries ---------------------------------------------------------------

    def _space_entry(self, raw, tokens, line):
        if len(tokens) != 2 or not SYMBOL_RE.match(tokens[0]):
            raise LifError(line, "space entries are '<symbol> <degree>'")
        degree = _integer(tokens[1], line, "degree", tokens[1])
        if tokens[0] in self.space[1]:
            raise LifError(line, f"duplicate symbol {tokens[0]!r}")
        self.space[1][tokens[0]] = degree

    def _setting(self, raw, tokens, line):
        if len(tokens) != 2 or tokens[0] not in ("bound", "max_arity", "seed"):
            raise LifError(line, "settings entries are bound/max_arity/seed <int>")
        if ("setting", tokens[0]) in self.declared:
            raise LifError(line, f"setting {tokens[0]!r} given twice")
        self.declared.add(("setting", tokens[0]))
        value = _integer(tokens[1], line, "integer", tokens[1])
        if tokens[0] != "seed" and value < 1:
            raise LifError(line, f"{tokens[0]} must be positive")
        setattr(self.sf.settings, tokens[0], value)

    def _map_entry(self, raw, tokens, line):
        """An entry of a map or an action section.  An action's acting word
        lies in the source and its target word in the target."""
        action, symmetric, src, src_degrees, dst, dst_degrees, degree, label, table, firsts = (
            self.section)
        parts = raw.split(":")
        if len(parts) != 3:
            raise LifError(line, "entries have the shape 'arity : words -> out : p/q'")
        head, body, scalar = parts
        head = head.strip()
        if action:
            arity = head.split()
            if len(arity) != 2:
                raise LifError(line, "action entries start with '<k> <n> :'")
            arity = (_integer(arity[0], line, "arities", head),
                     _integer(arity[1], line, "arities", head))
            eside, semicolon, body = body.partition(";")
            if not semicolon:
                raise LifError(line, "action entries separate blocks with ';'")
        else:
            arity = _integer(head, line, "arity", head)
            if arity < 1:
                raise LifError(line, "arity must be positive")
        left, arrow, out = body.partition("->")
        if not arrow:
            raise LifError(line, "missing '->' in entry")
        out = out.strip()
        # every symbol of a space matched SYMBOL_RE at its declaration
        if out not in dst.symbols and not SYMBOL_RE.match(out):
            raise LifError(line, f"bad output symbol {out!r}")
        syms = left.split()
        if action:
            esyms = eside.split()
            if (len(esyms), len(syms)) != arity:
                raise LifError(line, "block lengths do not match the stated arities")
            if 0 in arity:
                raise LifError(line, "both blocks of a component must be nonempty")
            eword, total = _word(src, src_degrees, esyms, degree, line)
            word, total = _word(dst, dst_degrees, syms, total, line)
            keys = ((src, "acting key", eword), (dst, "target key", word))
            word = (eword, word)
        elif len(syms) != arity:
            raise LifError(line, f"{len(syms)} inputs for arity {arity}")
        else:
            word, total = _word(src, src_degrees, syms, degree, line)
            keys = ((src, "key", word),)
        (out,), out_degree = _word(dst, dst_degrees, (out,), 0, line)
        scalar = scalar.strip()
        coeff = self.scalars.get(scalar)
        if coeff is None:
            coeff = self.scalars[scalar] = _scalar(scalar, line)
        if symmetric:
            for space, what, key in keys:
                if len(key) > 1:
                    norm, sign = space.normalize(key)
                    if sign == 0:
                        raise LifError(line, f"{what} vanishes in the symmetric algebra")
                    if norm != key:
                        what = "symmetric keys" if what == "key" else what
                        raise LifError(line, f"{what} must be in canonical order")
        if out_degree != total:
            raise LifError(line, f"entry breaks degree homogeneity of a {label}")
        row = table.setdefault(arity, {}).setdefault(word, {})
        if out in row:
            raise LifError(line, "duplicate constant")
        row[out] = coeff
        firsts.setdefault(arity, line)

    # -- assembly ----------------------------------------------------------------

    def _finish(self):
        self._close_space()
        sf = self.sf
        top = sf.settings.max_arity
        for kind, src_name, dst_name, flavor, tables, firsts in self.records:
            src, dst = sf.spaces[src_name], sf.spaces[dst_name]
            degree = MAP_DEGREES[kind][0]
            maps = {
                arity: BiMultiMap._unchecked(src, dst, *arity, degree, rows)
                if kind == "action"
                else MultiMap._unchecked(src, dst, arity, degree, flavor, rows)
                for arity, rows in tables.items()
            }
            if kind == "brackets":
                # settings may follow the section: the arity's first entry is at fault
                for arity, line in firsts.items():
                    if arity > top:
                        raise LifError(line, f"bracket arity {arity} exceeds max_arity {top}")
                sf.bracket_sections[src_name] = (flavor, maps)
            else:
                setattr(sf, f"{kind}_section", (src_name, dst_name, maps))


def parse(text: str) -> StructureFile:
    return _Parser(text).sf


def parse_bytes(data: bytes) -> StructureFile:
    """The file whose bytes are ``data``, which must be UTF-8; a line ends at
    LF, CRLF or CR, and at no other character that :meth:`str.splitlines`
    splits at."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: undecodable byte at offset {exc.start}") from None
    return parse(text)


def parse_path(path) -> StructureFile:
    return parse_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# serialization


def _emit_multimap(lines, f: MultiMap, flavor: str) -> None:
    # a plain section is read with no ordering implied, so a symmetric map
    # written there (lie_to_loday's brackets) spells out every ordering
    if flavor == PLAIN:
        f = f.expand_plain()
    src, dst = f.source, f.target
    for word, out, c in f.entries():
        syms = " ".join(src.symbols[i] for i in word)
        lines.append(f"  {f.arity} : {syms} -> {dst.symbols[out]} : {frac_str(c)}")


def serialize(sf: StructureFile) -> str:
    """Canonical text: declaration order for spaces, sorted constants."""
    lines: list[str] = []
    for name, space in sf.spaces.items():
        lines.append(f"space {name}")
        for sym, deg in zip(space.symbols, space.degrees):
            lines.append(f"  {sym} {deg}")
        lines.append("")
    s = sf.settings
    lines += ["settings", f"  bound {s.bound}", f"  max_arity {s.max_arity}",
              f"  seed {s.seed}", ""]
    for name in sf.spaces:
        if name not in sf.bracket_sections:
            continue
        flavor, brackets = sf.bracket_sections[name]
        lines.append(f"brackets {name} {flavor}")
        for arity in sorted(brackets):
            _emit_multimap(lines, brackets[arity], flavor)
        lines.append("")
    if sf.action_section is not None:
        ename, vname, comps = sf.action_section
        espace, vspace = sf.spaces[ename], sf.spaces[vname]
        lines.append(f"action {ename} {vname}")
        for (k, n), f in sorted(comps.items()):
            for (ew, vw), vec in sorted(f.constants.items()):
                esyms = " ".join(espace.symbols[i] for i in ew)
                vsyms = " ".join(vspace.symbols[i] for i in vw)
                for out in sorted(vec):
                    lines.append(
                        f"  {k} {n} : {esyms} ; {vsyms} -> "
                        f"{vspace.symbols[out]} : {frac_str(vec[out])}"
                    )
        lines.append("")
    for kind, section in (("tensor", sf.tensor_section), ("morphism", sf.morphism_section)):
        if section is None:
            continue
        src_name, dst_name, comps = section
        lines.append(f"{kind} {src_name} {dst_name}")
        for arity in sorted(comps):
            _emit_multimap(lines, comps[arity], PLAIN)
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
