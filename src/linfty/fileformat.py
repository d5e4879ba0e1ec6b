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
words.  The plain-map entries share one reader, both readers one duplicate
check, and one loop turns every record into its maps.  The parser is the one
validator of a file's maps: it checks each entry at its line for all that the
``MultiMap``/``BiMultiMap`` constructors check, so ``_unchecked`` builds the
maps, on scalars in the normal form of :func:`linfty.multimap.exact`.

Comments run from ``#`` to the end of the line.
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


def _integer(token: str, line: int, message: str) -> int:
    # -?[0-9]+ only: int() also takes '+', '_' and the digits of other scripts
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise LifError(line, message)
    return int(token)


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


def _split_entry(text: str, line: int) -> list[str]:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) != 3:
        raise LifError(line, "entries have the shape 'arity : words -> out : p/q'")
    return parts


def _arrow(body: str, line: int) -> tuple[list[str], str]:
    if "->" not in body:
        raise LifError(line, "missing '->' in entry")
    left, _, right = body.partition("->")
    out = right.strip()
    if not SYMBOL_RE.match(out):
        raise LifError(line, f"bad output symbol {out!r}")
    return left.split(), out


def _store(table: dict, arity, key, out: int, c: Scalar, line: int) -> None:
    row = table.setdefault(arity, {}).setdefault(key, {})
    if out in row:
        raise LifError(line, "duplicate constant")
    row[out] = c


class _Parser:
    """One pass over the lines.  The open section is a space ``("space",
    name, basis, header line)``, ``("settings",)`` or a record."""

    def __init__(self, text: str):
        self.sf = StructureFile()
        self.section: tuple | None = None
        self.records: list[tuple] = []
        self.declared: set = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            content = raw.split("#", 1)[0].strip()
            if not content:
                continue
            tokens = content.split()
            if tokens[0] in KEYWORDS:
                self._start_section(tokens, lineno)
            else:
                self._entry(content, tokens, lineno)
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
            self.section = ("space", args[0], [], line)
            return
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
            self.section = (kind,)
        else:
            self.section = (kind, src, dst, flavor, {}, {})
            self.records.append(self.section)

    def _close_space(self):
        # space sections are materialised as soon as another section begins
        if self.section and self.section[0] == "space":
            _, name, basis, line = self.section
            if not basis:
                raise LifError(line, f"space {name!r} has an empty basis")
            self.sf.spaces[name] = GradedSpace(name, basis)

    # -- entries ---------------------------------------------------------------

    def _entry(self, content, tokens, line):
        if self.section is None:
            raise LifError(line, f"entry outside any section: {content!r}")
        kind = self.section[0]
        if kind == "space":
            if len(tokens) != 2 or not SYMBOL_RE.match(tokens[0]):
                raise LifError(line, "space entries are '<symbol> <degree>'")
            degree = _integer(tokens[1], line, f"bad degree {tokens[1]!r}")
            if any(sym == tokens[0] for sym, _ in self.section[2]):
                raise LifError(line, f"duplicate symbol {tokens[0]!r}")
            self.section[2].append((tokens[0], degree))
        elif kind == "settings":
            if len(tokens) != 2 or tokens[0] not in ("bound", "max_arity", "seed"):
                raise LifError(line, "settings entries are bound/max_arity/seed <int>")
            if ("setting", tokens[0]) in self.declared:
                raise LifError(line, f"setting {tokens[0]!r} given twice")
            self.declared.add(("setting", tokens[0]))
            value = _integer(tokens[1], line, f"bad integer {tokens[1]!r}")
            if tokens[0] != "seed" and value < 1:
                raise LifError(line, f"{tokens[0]} must be positive")
            setattr(self.sf.settings, tokens[0], value)
        elif kind == "action":
            self._action_entry(content, line)
        else:
            self._map_entry(content, line)

    def _map_entry(self, content, line):
        kind, src_name, dst_name, flavor, table, firsts = self.section
        src, dst = self.sf.spaces[src_name], self.sf.spaces[dst_name]
        head, body, scalar = _split_entry(content, line)
        arity = _integer(head, line, f"bad arity {head!r}")
        if arity < 1:
            raise LifError(line, "arity must be positive")
        syms, out = _arrow(body, line)
        if len(syms) != arity:
            raise LifError(line, f"{len(syms)} inputs for arity {arity}")
        word = tuple(self._index(src, s, line) for s in syms)
        out_i = self._index(dst, out, line)
        coeff = _scalar(scalar, line)
        if flavor == SYMMETRIC:
            norm, sign = src.normalize(word)
            if sign == 0:
                raise LifError(line, "key vanishes in the symmetric algebra")
            if norm != word:
                raise LifError(line, "symmetric keys must be in canonical order")
        degree, label = MAP_DEGREES[kind]
        if dst.degrees[out_i] != degree + src.word_degree(word):
            raise LifError(line, f"entry breaks degree homogeneity of a {label}")
        _store(table, arity, word, out_i, coeff, line)
        firsts.setdefault(arity, line)

    def _action_entry(self, content, line):
        _, ename, vname, _, table, _ = self.section
        espace, vspace = self.sf.spaces[ename], self.sf.spaces[vname]
        head, body, scalar = _split_entry(content, line)
        arities = head.split()
        if len(arities) != 2:
            raise LifError(line, "action entries start with '<k> <n> :'")
        k, n = (_integer(a, line, f"bad arities {head!r}") for a in arities)
        if ";" not in body:
            raise LifError(line, "action entries separate blocks with ';'")
        eside, _, rest = body.partition(";")
        syms_v, out = _arrow(rest, line)
        syms_e = eside.split()
        if len(syms_e) != k or len(syms_v) != n:
            raise LifError(line, "block lengths do not match the stated arities")
        if k < 1 or n < 1:
            raise LifError(line, "both blocks of a component must be nonempty")
        eword = tuple(self._index(espace, s, line) for s in syms_e)
        vword = tuple(self._index(vspace, s, line) for s in syms_v)
        out_i = self._index(vspace, out, line)
        coeff = _scalar(scalar, line)
        for word, space, label in ((eword, espace, "acting"), (vword, vspace, "target")):
            norm, sign = space.normalize(word)
            if sign == 0:
                raise LifError(line, f"{label} key vanishes in the symmetric algebra")
            if norm != word:
                raise LifError(line, f"{label} key must be in canonical order")
        degree, label = MAP_DEGREES["action"]
        if vspace.degrees[out_i] != degree + espace.word_degree(eword) + vspace.word_degree(vword):
            raise LifError(line, f"entry breaks degree homogeneity of a {label}")
        _store(table, (k, n), (eword, vword), out_i, coeff, line)

    def _index(self, space, symbol, line):
        try:
            return space.index(symbol)
        except KeyError:
            raise LifError(line, f"unknown symbol {symbol!r} in space {space.name!r}") from None

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
    LF, CRLF or CR alike (:meth:`str.splitlines`)."""
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
