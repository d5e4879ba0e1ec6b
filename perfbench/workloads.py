"""The benchmark's workloads: seeded inputs, requests and known answers.

A workload is built from a seed and fixes a *request set*.  ``requests()``
returns that set built on fresh inputs each time, so a request never finds
the per-object caches of an earlier pass warm, and every pass of one seed
does the same work.  A request is ``Request(label, run, verify)``: ``run()``
computes a verdict through the public API or ``linfty.cli.main`` and
``verify(answer)`` compares it with the known answer, returning ``"ok"``,
``"wrong"`` or ``"failed"`` (route disagreement, exit 3 or a traceback).
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import linfty
from linfty import cli, corpus

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"
FIXTURES = Path("tests") / "fixtures"
# scratch files (malformed fixtures, spans), relative to the checkout root
WORK = Path(".perfbench-out")
MUTANTS = WORK / "mutants"


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], str]


def load_answers() -> dict:
    return json.loads(ANSWERS.read_text(encoding="utf-8"))


def _quantile_picks(candidates: list, size: Callable, count: int) -> list:
    """``count`` candidates at evenly spaced quantiles of ``size``.

    Seeded random instances vary in cost mostly with their number of
    constants; picking by quantile lets a seed change the instances without
    changing the size mix of the request set.
    """
    ordered = sorted(candidates, key=size)
    return [ordered[len(ordered) * q // (count + 1)] for q in range(1, count + 1)]


# ---------------------------------------------------------------------------
# deform


class Deform:
    """Deformation complexes of fixtures, d1^2 = 0 and their cohomology ranks.

    For each fixture at bounds 3 and 4 one request builds the deformation
    complex and checks d1^2 = 0; each (degree, weight) piece of that complex
    is then a request of its own, computing ``cohomology_rank`` on the
    complex just built.  That makes 4 build requests and 50 rank requests a
    pass, so the tail has ten samples beyond it; the builds, 0.05 to 0.5 s
    each, sit beyond the tail and weigh in ``verdicts_per_s``.  The fixtures
    are fixed; the seed orders the complexes and the pieces within each.  At
    bound 5 a build takes 4 to 7 s, too long to repeat within a run.
    """

    name = "deform"
    bound = 4
    deadline_s = 60.0
    fixtures = ("heisenberg", "adjoint_identity")

    def __init__(self, seed: int, answers: dict):
        self.answers = answers[self.name]
        self.texts = {
            name: (FIXTURES / f"{name}.lif").read_text(encoding="utf-8")
            for name in self.fixtures
        }
        rng = random.Random(seed)
        self.order = [(f, b) for f in self.fixtures for b in (3, self.bound)]
        rng.shuffle(self.order)
        self.pieces = {}
        for fixture, bound in self.order:
            pieces = [tuple(r[:2]) for r in self.answers[f"{fixture}@{bound}"]["ranks"]]
            rng.shuffle(pieces)
            self.pieces[fixture, bound] = pieces

    def _group(self, fixture: str, bound: int) -> list[Request]:
        """The build request of one complex, then one request per piece."""
        sf = linfty.parse(self.texts[fixture])
        family, tensor = sf.action_family(), sf.embedding_tensor()
        key = f"{fixture}@{bound}"
        known = self.answers[key]
        built = {}

        def build():
            complex_ = linfty.deformation_complex(tensor, family, bound)
            built["complex"] = complex_
            report = complex_.check_d1_squares_to_zero()
            degrees = {complex_.element_degree(w, b) for w, b in complex_.basis}
            return len(complex_.basis), report.verdict, sorted(degrees)

        def verify_build(answer):
            degrees = sorted({r[0] for r in known["ranks"]})
            return "ok" if answer == (known["basis_dim"], known["verdict"], degrees) else "wrong"

        group = [Request(key, build, verify_build)]
        ranks = {tuple(r[:2]): r for r in known["ranks"]}
        for degree, weight in self.pieces[fixture, bound]:
            def run(degree=degree, weight=weight):
                r = linfty.cohomology_rank(built["complex"], degree, weight)
                return [r.degree, r.weight, r.piece_dim, r.rank_out, r.rank_in]

            def verify(answer, expected=ranks[degree, weight]):
                return "ok" if answer == expected else "wrong"

            group.append(Request(f"{key} H({degree},{weight})", run, verify))
        return group

    def warmup(self) -> list[Request]:
        return self._group(self.fixtures[0], 3)

    def requests(self) -> list[Request]:
        return [r for fixture, bound in self.order for r in self._group(fixture, bound)]


# ---------------------------------------------------------------------------
# crosscheck-actions


class CrosscheckActions:
    """``theorem_crosscheck`` over the seeded action corpus.

    The corpus lists the catalog, then exact random basis changes of it in
    catalog order.  The request set is the catalog plus, per catalog entry,
    five of its seeded basis changes: those at fixed quantiles of their
    number of constants among twelve, since a denser basis change costs up
    to twice as much.  That puts 24 instances of the four heaviest entries in
    a set, so the tail percentile with ten samples beyond it falls among
    them.  A basis change keeps the verdict, so every instance must match
    the verdict recorded for its catalog entry, and ``expect_coherent``
    where the corpus sets it.
    """

    name = "crosscheck-actions"
    bound = 4
    deadline_s = 30.0
    conjugates = 12
    picks = 5

    def __init__(self, seed: int, answers: dict):
        self.seed = seed
        self.verdicts = answers[self.name]

    def _request(self, inst) -> Request:
        expected = self.verdicts[inst.label.split("#")[0]]

        def run():
            coherent, product = linfty.theorem_crosscheck(inst.action, self.bound)
            return coherent.verdict, product.verdict

        def verify(answer):
            coherent, product = answer
            if coherent != product:
                return "failed"
            if coherent != expected:
                return "wrong"
            if inst.expect_coherent is not None and (coherent == "PASS") != inst.expect_coherent:
                return "wrong"
            return "ok"

        return Request(inst.label, run, verify)

    def warmup(self) -> list[Request]:
        return [self._request(corpus.action_corpus(1, self.seed)[0])]

    def requests(self) -> list[Request]:
        catalog = len(self.verdicts)
        drawn = corpus.action_corpus(catalog * (1 + self.conjugates), self.seed)
        by_entry: dict[str, list] = {}
        for inst in drawn[catalog:]:
            by_entry.setdefault(inst.label.split("#")[0], []).append(inst)
        picks = [_quantile_picks(group, _action_size, self.picks) for group in by_entry.values()]
        chosen = drawn[:catalog] + [inst for level in zip(*picks) for inst in level]
        return [self._request(inst) for inst in chosen]


def _action_size(inst) -> int:
    action = inst.action
    maps = [*action.E.brackets.values(), *action.V.brackets.values(), *action.components.values()]
    return sum(len(vec) for f in maps for vec in f.constants.values())


# ---------------------------------------------------------------------------
# cli-fixtures

# Each mutation breaks a fixture so that parsing must fail, whatever the
# command: (kind, expected error text).  The known answer is exit 2 with
# that text on the report's error line.
MUTATIONS = (
    ("bad_degree", "bad degree"),
    ("zero_denominator", "zero denominator"),
    ("unknown_symbol", "unknown symbol"),
    ("outside_section", "entry outside any section"),
    ("bad_bound", "bound must be positive"),
    ("space_twice", "declared twice"),
    ("undeclared_space", "undeclared space"),
)


def _mutate(text: str, kind: str, rng: random.Random) -> str | None:
    lines = text.split("\n")
    space_entries, scalar_entries, spaces = [], [], []
    section = None
    for i, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] in ("space", "settings", "brackets", "action", "tensor", "morphism"):
            section = tokens[0]
            if section == "space":
                spaces.append(tokens[1])
        elif section == "space":
            space_entries.append(i)
        elif section not in (None, "settings") and "->" in line:
            scalar_entries.append(i)
    if kind == "bad_degree":
        i = rng.choice(space_entries)
        symbol = lines[i].split()[0]
        lines[i] = f"  {symbol} one"
    elif kind == "zero_denominator":
        if not scalar_entries:
            return None
        i = rng.choice(scalar_entries)
        head, _, scalar = lines[i].rpartition(":")
        lines[i] = f"{head}: {scalar.strip().split('/')[0]}/0"
    elif kind == "unknown_symbol":
        if not scalar_entries:
            return None
        i = rng.choice(scalar_entries)
        head, _, scalar = lines[i].rpartition(":")
        left, _, _ = head.rpartition("->")
        lines[i] = f"{left}-> nosuchsymbol :{scalar}"
    elif kind == "outside_section":
        lines.insert(0, "  stray 0")
    elif kind == "bad_bound":
        lines = ["  bound 0" if line.split()[:1] == ["bound"] else line for line in lines]
    elif kind == "space_twice":
        lines += [f"space {rng.choice(spaces)}", "  extra 0"]
    elif kind == "undeclared_space":
        lines += ["brackets nosuchspace symmetric"]
    return "\n".join(lines)


def _broke(code: int, out: str, err: str) -> bool:
    """Exit 3 or a traceback: the CLI broke instead of giving a verdict."""
    return code == 3 or "Traceback" in out + err


class CliFixtures:
    """Every (command, fixture) pair through ``linfty.cli.main`` at bound 4,
    except ``deform`` and ``cohomology``, plus seeded malformed fixtures.

    Pairs must reproduce the exit code and the stdout digest recorded at the
    baseline (the golden reports, where they exist, gave the same digests).
    """

    name = "cli-fixtures"
    bound = 4
    deadline_s = 10.0
    commands = tuple(c for c in cli.COMMANDS if c not in ("deform", "cohomology"))
    mutants = 16

    def __init__(self, seed: int, answers: dict):
        self.answers = answers[self.name]
        self.fixtures = sorted(p.name for p in FIXTURES.glob("*.lif"))
        self.texts = {name: (FIXTURES / name).read_text(encoding="utf-8") for name in self.fixtures}
        MUTANTS.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.mutant_cases = [self._write_mutant(i, rng) for i in range(self.mutants)]

    def _call(self, argv) -> Callable[[], tuple]:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    def _pair(self, command: str, fixture: str) -> Request:
        key = f"{command} {fixture}"
        argv = [command, str(FIXTURES / fixture), "--bound", str(self.bound)]

        def verify(answer):
            code, out, err = answer
            if _broke(code, out, err):
                return "failed"
            known = self.answers[key]
            digest = hashlib.sha256(out.encode()).hexdigest()
            return "ok" if (code, digest) == (known["exit"], known["stdout_sha256"]) else "wrong"

        return Request(key, self._call(argv), verify)

    def _write_mutant(self, i: int, rng: random.Random) -> tuple:
        while True:
            fixture = rng.choice(self.fixtures)
            kind, message = rng.choice(MUTATIONS)
            text = _mutate(self.texts[fixture], kind, rng)
            if text is not None:
                break
        # one seed always writes the same files, so instances may share them
        path = MUTANTS / f"{i}-{kind}-{fixture}"
        path.write_text(text, encoding="utf-8")
        return rng.choice(self.commands), path, message

    def _mutant(self, command: str, path: Path, message: str) -> Request:
        argv = [command, str(path), "--bound", str(self.bound)]

        def verify(answer):
            code, out, err = answer
            if _broke(code, out, err):
                return "failed"
            errors = [line for line in out.splitlines() if line.startswith("error: ")]
            return "ok" if code == 2 and len(errors) == 1 and message in errors[0] else "wrong"

        return Request(f"{command} {path.name}", self._call(argv), verify)

    def warmup(self) -> list[Request]:
        return [self._pair(self.commands[0], self.fixtures[0])]

    def requests(self) -> list[Request]:
        pairs = [self._pair(c, f) for c in self.commands for f in self.fixtures]
        return pairs + [self._mutant(*case) for case in self.mutant_cases]


WORKLOADS = {w.name: w for w in (Deform, CrosscheckActions, CliFixtures)}
