"""Seeded mutants of the fixtures never break the CLI.

Each mutant is one of the shipped fixtures with one change: a scalar
replaced by another rational (the file still parses), an entry line dropped
or duplicated, or one of the parse-breaking kinds of the benchmark's
malformed inputs (``perfbench/workloads.MUTATIONS``).  Every mutant goes
through a command chosen at random among those that give a verdict on the
unchanged fixture, so most mutants reach the checkers rather than stop at
a missing section, at ``--bound 3``.  The contract: the exit code is 0, 1
or 2, never 3 (routes disagreeing), and no exception escapes
``linfty.cli.main``.
"""
import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from linfty import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.lif"))
CASES = 1500
SCALARS = tuple(Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2))


def entry_lines(lines):
    """Indices of the indented lines inside a section."""
    return [i for i, line in enumerate(lines) if line[:1].isspace() and line.strip()]


def scalar_lines(lines):
    return [i for i in entry_lines(lines) if "->" in lines[i] and ":" in lines[i]]


def mutate(text, kind, rng, mutate_malformed):
    """The text with one change of the given kind, or ``None`` when the
    fixture has no line that kind can change."""
    lines = text.split("\n")
    if kind == "scalar":
        targets = scalar_lines(lines)
        if not targets:
            return None
        i = rng.choice(targets)
        head, _, _ = lines[i].rpartition(":")
        scalar = rng.choice(SCALARS)
        lines[i] = f"{head}: {scalar.numerator}/{scalar.denominator}"
    elif kind in ("drop", "duplicate"):
        i = rng.choice(entry_lines(lines))
        if kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    else:
        return mutate_malformed(text, kind, rng)
    return "\n".join(lines)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return None, traceback.format_exc()
    return code, out.getvalue() + err.getvalue()


def test_seeded_mutants_exit_0_1_or_2_without_traceback(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import MUTATIONS, _mutate

    texts = {path.name: path.read_text(encoding="utf-8") for path in FIXTURES}
    commands = {
        path.name: [c for c in cli.COMMANDS if run([c, str(path), "--bound", "3"])[0] in (0, 1)]
        for path in FIXTURES
    }
    rng = random.Random(2023)
    broken, seen = [], 0
    while seen < CASES:
        fixture = rng.choice(sorted(texts))
        kind = rng.choice(["scalar", "scalar", "drop", "duplicate", "malformed"])
        if kind == "malformed":
            kind = rng.choice(MUTATIONS)[0]
        text = mutate(texts[fixture], kind, rng, _mutate)
        if text is None:
            continue
        path = tmp_path / f"{seen}-{kind}-{fixture}"
        path.write_text(text, encoding="utf-8")
        command = rng.choice(commands[fixture])
        code, output = run([command, str(path), "--bound", "3"])
        if code not in (0, 1, 2) or "Traceback" in output:
            broken.append(f"{command} {path.name}: exit {code}\n{output}")
        seen += 1
    assert not broken, "\n".join(broken[:5])
