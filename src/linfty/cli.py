"""Command-line front end: every checker and constructor over structure files.

Reports go to standard output and are byte-stable for a fixed input file and
settings; the wall time is printed on standard error so it never perturbs
report diffs.  Exit codes: 0 verified/constructed, 1 an identity fails,
2 malformed input or unmet precondition, 3 a kernel fault, not the input's:
two evaluation routes disagreed, or a series that must stop by weight did
not (never expected on shipped fixtures).
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import lru_cache

from . import action as action_mod
from . import homotopy as homotopy_mod
from . import tensor as tensor_mod
from .fileformat import Settings, StructureFile, parse_bytes, serialize
from .multimap import PLAIN, SYMMETRIC
from .report import CheckReport, InputError, RouteDisagreement

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def field(self, key: str, value) -> None:
        self.lines.append(f"{key} {value}" if self.fmt == "machine" else f"{key}: {value}")

    def residuals(self, report: CheckReport) -> None:
        self.field("residuals", len(report.residuals))
        for r in report.residuals:
            if self.fmt == "machine":
                self.lines.append(f'residual {r.arity} "{r.word}" "{r.value}"')
            else:
                self.lines.append(f"  arity {r.arity} [{r.word}] = {r.value}")

    def block(self, key: str, text: str) -> None:
        self.lines.append(f"{key}:" if self.fmt == "text" else key)
        self.lines.extend(text.rstrip("\n").split("\n"))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_report(em: Emitter, report: CheckReport) -> int:
    em.field("verdict", report.verdict)
    em.residuals(report)
    return EXIT_OK if report.ok else EXIT_FAIL


def _single_bracket_space(sf: StructureFile, wanted: str | None, flavor: str) -> str:
    if wanted is not None:
        return wanted
    names = [
        name for name, (fl, _) in sf.bracket_sections.items() if fl == flavor
    ]
    if not names:
        names = list(sf.bracket_sections) or list(sf.spaces)
    if not names:
        raise InputError("the file declares no space")
    if len(names) != 1:
        raise InputError(
            f"several candidate spaces ({', '.join(names)}); pick one with --space"
        )
    return names[0]


def _structure_file_of_structure(structure, settings: Settings) -> StructureFile:
    sf = StructureFile()
    sf.spaces[structure.space.name] = structure.space
    sf.settings = Settings(settings.bound, structure.max_arity, settings.seed)
    sf.bracket_sections[structure.space.name] = (structure.flavor, structure.brackets)
    return sf


# ---------------------------------------------------------------------------
# command handlers; each returns the exit code


def cmd_check_lie(sf, args, em):
    name = _single_bracket_space(sf, args.space, SYMMETRIC)
    em.field("space", name)
    report = homotopy_mod.check_lie_infinity(sf.structure(name), args.bound)
    return _emit_report(em, report)


def cmd_check_loday(sf, args, em):
    name = _single_bracket_space(sf, args.space, PLAIN)
    em.field("space", name)
    structure = sf.structure(name)
    if structure.flavor == SYMMETRIC:
        structure = homotopy_mod.lie_to_loday(structure)
    report = homotopy_mod.check_loday_infinity(structure, args.bound)
    return _emit_report(em, report)


def cmd_check_morphism(sf, args, em):
    if sf.morphism_section is None:
        raise InputError("check-morphism needs a morphism section")
    src_name, dst_name, comps = sf.morphism_section
    em.field("source", src_name)
    em.field("target", dst_name)
    source, target = sf.structure(src_name), sf.structure(dst_name)
    if source.flavor == SYMMETRIC and target.flavor == SYMMETRIC:
        report = homotopy_mod.check_lie_morphism(comps, source, target, args.bound)
    elif source.flavor == PLAIN and target.flavor == PLAIN:
        report = homotopy_mod.check_loday_morphism(comps, source, target, args.bound)
    else:
        raise InputError("morphism endpoints must share a flavor")
    return _emit_report(em, report)


def cmd_check_action(sf, args, em):
    report = action_mod.check_action(sf.action_family(), args.bound)
    return _emit_report(em, report)


def cmd_check_coherence(sf, args, em):
    # both checks read the family's one cleared copy, and share its memo
    family = sf.action_family()
    axiom = action_mod.check_action(family, args.bound)
    if not axiom.ok:
        raise InputError("coherence is defined for verified actions only")
    report = action_mod.check_coherence(family, args.bound)
    return _emit_report(em, report)


def cmd_build_product(sf, args, em):
    family = sf.action_family()
    axiom = action_mod.check_action(family, args.bound)
    if not axiom.ok:
        raise InputError("the product needs a verified action")
    hemi = action_mod.hemisemidirect(family)
    em.field("verdict", "PASS")
    em.field("residuals", 0)
    em.block("structure", serialize(_structure_file_of_structure(hemi.structure, sf.settings)))
    return EXIT_OK


def cmd_check_tensor(sf, args, em):
    family = sf.action_family()
    tensor = sf.embedding_tensor()
    explicit, flat = tensor_mod.check_embedding(tensor, family, args.bound)
    em.field("route_explicit", explicit.verdict)
    em.field("route_series", flat.verdict)
    return _emit_report(em, explicit)


def cmd_descend(sf, args, em):
    family = sf.action_family()
    tensor = sf.embedding_tensor()
    structure = tensor_mod.descendent(tensor, family, args.bound)
    em.field("verdict", "PASS")
    em.field("residuals", 0)
    em.block("structure", serialize(_structure_file_of_structure(structure, sf.settings)))
    return EXIT_OK


def cmd_check_descendent_morphism(sf, args, em):
    family = sf.action_family()
    tensor = sf.embedding_tensor()
    report = tensor_mod.check_descendent_morphism(tensor, family, args.bound)
    return _emit_report(em, report)


def _unary_component(section, label):
    if section is None:
        raise InputError(f"{label} needs its section in the file")
    src_name, dst_name, comps = section
    if src_name != dst_name:
        raise InputError(f"{label} expects an endomorphism (same source and target)")
    if set(comps) - {1}:
        raise InputError(f"{label} expects a strict (arity-1) family")
    if 1 not in comps:
        raise InputError(f"{label} found no arity-1 component")
    return src_name, comps[1]


def cmd_adjoint_strict(sf, args, em):
    name, t1 = _unary_component(sf.tensor_section, "adjoint-strict")
    em.field("space", name)
    report = tensor_mod.adjoint_strict_check(sf.structure(name), t1)
    return _emit_report(em, report)


def cmd_centroid(sf, args, em):
    name, f1 = _unary_component(sf.morphism_section, "centroid")
    em.field("space", name)
    report = tensor_mod.centroid_check(sf.structure(name), f1)
    return _emit_report(em, report)


def cmd_deform(sf, args, em):
    family = sf.action_family()
    tensor = sf.embedding_tensor()
    complex_ = tensor_mod.deformation_complex(tensor, family, args.bound)
    report = complex_.check_d1_squares_to_zero()
    em.field("basis_dim", len(complex_.basis))
    return _emit_report(em, report)


def cmd_cohomology(sf, args, em):
    if args.degree is None or args.weight is None:
        raise InputError("cohomology needs --degree and --weight")
    family = sf.action_family()
    tensor = sf.embedding_tensor()
    tensor_mod.check_cohomology_weight(args.weight, args.bound)
    complex_ = tensor_mod.deformation_complex(tensor, family, args.bound)
    ranks = tensor_mod.cohomology_rank(complex_, args.degree, args.weight)
    em.field("verdict", "PASS")
    for key in ("degree", "weight", "piece_dim", "rank_out", "kernel_dim", "rank_in"):
        em.field(key, getattr(ranks, key))
    em.field("residuals", 0)
    return EXIT_OK


HANDLERS = {
    "check-lie": cmd_check_lie,
    "check-loday": cmd_check_loday,
    "check-morphism": cmd_check_morphism,
    "check-action": cmd_check_action,
    "check-coherence": cmd_check_coherence,
    "build-product": cmd_build_product,
    "check-tensor": cmd_check_tensor,
    "descend": cmd_descend,
    "check-descendent-morphism": cmd_check_descendent_morphism,
    "adjoint-strict": cmd_adjoint_strict,
    "centroid": cmd_centroid,
    "deform": cmd_deform,
    "cohomology": cmd_cohomology,
}
COMMANDS = tuple(HANDLERS)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on each call and reads the output streams and the
    terminal width when it writes, so in-process :func:`main` calls share it."""
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="exact checks and constructions for homotopy bracket structures",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("path", help="structure file")
    parser.add_argument("--bound", type=int, default=None, help="weight bound")
    parser.add_argument("--seed", type=int, default=None, help="recorded seed")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--space", default=None, help="structure space to check")
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--weight", type=int, default=None)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    em = Emitter(args.format)
    em.field("command", args.command)
    em.field("input", args.path)
    try:
        # one read: the digest and the parser see the same bytes
        with open(args.path, "rb") as handle:
            data = handle.read()
        em.field("digest", hashlib.sha256(data).hexdigest())
        sf = parse_bytes(data)
        if args.bound is not None:
            if args.bound < 1:
                raise InputError("--bound must be positive")
            sf.settings.bound = args.bound
        if args.seed is not None:
            sf.settings.seed = args.seed
        args.bound = sf.settings.bound
        em.field("bound", sf.settings.bound)
        em.field("seed", sf.settings.seed)
        code = HANDLERS[args.command](sf, args, em)
    except OSError as exc:
        em.field("error", f"cannot read input: {exc.strerror or exc}")
        code = EXIT_INPUT
    except RouteDisagreement as exc:
        em.field("error", f"internal consistency: {exc}")
        code = EXIT_INTERNAL
    except InputError as exc:
        em.field("error", str(exc))
        code = EXIT_INPUT
    sys.stdout.write(em.text())
    wall_ms = int((time.monotonic() - started) * 1000)
    sys.stderr.write(f"wall_ms {wall_ms}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
