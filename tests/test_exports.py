"""The package exports its public names, not its submodules."""
import ast
import importlib
import os
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import linfty

SRC = Path(linfty.__file__).parent
SUBMODULES = (
    "action", "fileformat", "graded", "homotopy", "linalg", "multimap", "report", "tensor"
)


def test_package_all_lists_no_module_and_every_entry_resolves():
    assert linfty.__all__
    for name in linfty.__all__:
        assert not isinstance(getattr(linfty, name), types.ModuleType), name
    assert not set(SUBMODULES) & set(linfty.__all__)


def test_submodule_all_entries_resolve():
    for module in SUBMODULES:
        mod = importlib.import_module(f"linfty.{module}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (module, name)


# Public functions and methods that only tests call, kept on purpose, each with
# its reason.
ORACLE_SURFACE = {
    # methods whose name another class also defines, which no CLI command enters
    "TruncatedCoderivation.add": "the sum of two coderivations, which commutator "
    "forms and the exponential series of tests/dense_lifts.py accumulates",
    "TruncatedCoderivation.is_zero": "the zero test that ends the exponential "
    "series of tests/dense_lifts.py",
    "BiMultiMap.eval": "one action component on a pair of words, which corpus.py's "
    "seeded generators and the every-word oracles read",
    "MultiMap.eval": "one map on any word, which corpus.py's basis changes and the "
    "test helpers of tests/paper.py read",
}


def _code_reads(paths) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that the code of the files
    reads; docstrings, comments and ``def`` lines are not code."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _program_reads(monkeypatch) -> tuple[set[str], set[str]]:
    """The names and attribute names read by the code of the package or the
    benchmark, whose tracer also binds the functions and methods it lists
    by name."""
    root = SRC.parent.parent
    names, attributes = _code_reads(
        list(SRC.glob("*.py")) + list((root / "perfbench").glob("*.py"))
    )
    monkeypatch.syspath_prepend(str(root))
    from perfbench import tracing

    for _, qualname, *_ in tracing.layers():
        *owner, name = qualname.split(".")
        (attributes if owner else names).add(name)
    return names, attributes


def test_every_public_function_and_method_is_read_by_the_program(monkeypatch):
    # a scan of code tokens: a public function of src/linfty, exported or
    # not, must be read by name or attribute, and a public method by
    # attribute (``.name``), somewhere in the package or the benchmark; the
    # seeded generators of corpus.py and the names listed above are exempt,
    # and law checkers that only tests call live in tests/laws.py
    names, attributes = _program_reads(monkeypatch)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            for fn in node.body if is_class else [node]:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if fn.name in ORACLE_SURFACE:
                    continue
                if fn.name not in attributes and (is_class or fn.name not in names):
                    unread.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert unread == []


def test_no_oracle_surface_name_is_read_by_the_program(monkeypatch):
    # an exemption whose name the package or the benchmark reads again is
    # stale: the scan above would pass without it
    names, attributes = _program_reads(monkeypatch)
    assert sorted(set(ORACLE_SURFACE) & (names | attributes)) == []


def test_every_bare_oracle_surface_name_is_a_public_def_of_the_package():
    # an exemption whose function or method left src/linfty, moved to
    # tests/ or deleted, is stale; a dotted one is checked against the
    # methods of shared names below
    defined = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    defined.add(fn.name)
    assert sorted(name for name in ORACLE_SURFACE if "." not in name) == sorted(
        set(ORACLE_SURFACE) & defined
    )


# A name that two classes define, or a class and a builtin container, or a
# class method and an instance attribute that some class assigns
# (``self.<name> = ...``), is read by attribute wherever either is used, so
# the scan above cannot see whether one of those methods is read; such a
# method must be entered while the CLI runs, in a fresh interpreter so that
# no cache warmed by another test skips it.
BUILTIN_METHODS = set().union(*(dir(t) for t in (dict, list, set, str, tuple)))

ENTERED_BY_THE_CLI = """
import contextlib, importlib, io, sys
from pathlib import Path

from linfty import cli

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
for command in cli.COMMANDS:
    for fixture in sorted(Path(sys.argv[1]).glob("*.lif")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main([command, str(fixture), "--bound", "3"])
sys.setprofile(None)
for path in Path(cli.__file__).parent.glob("[!_]*.py"):
    module = importlib.import_module(f"linfty.{path.stem}")
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == module.__name__:
            for name, member in vars(cls).items():
                function = getattr(member, "fget", getattr(member, "__func__", member))
                if getattr(function, "__code__", None) in entered:
                    print(f"{cls.__name__}.{name}")
"""


def _instance_attributes(tree) -> set[str]:
    """The names assigned as ``self.<name>`` anywhere in a module."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _methods_of_shared_names() -> list[str]:
    owners, attributes = defaultdict(list), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        attributes |= _instance_attributes(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        owners[fn.name].append(node.name)
    return sorted(
        f"{cls}.{name}"
        for name, classes in owners.items()
        if len(classes) > 1 or name in BUILTIN_METHODS | attributes
        for cls in classes
    )


def _entered_by_the_cli() -> set[str]:
    fixtures = Path(__file__).parent / "fixtures"
    run = subprocess.run(
        [sys.executable, "-c", ENTERED_BY_THE_CLI, str(fixtures)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return set(run.stdout.split())


def test_every_method_of_a_shared_name_is_entered_by_the_cli_or_exempt():
    methods = _methods_of_shared_names()
    entered = _entered_by_the_cli()
    assert [m for m in methods if m not in entered and m not in ORACLE_SURFACE] == []
    # an exemption of a method that the CLI enters is stale
    exempt = {name for name in ORACLE_SURFACE if "." in name}
    assert sorted(exempt & entered) == []
    assert sorted(exempt - set(methods)) == []


def test_no_command_evaluates_a_map_word_by_word():
    # every command reads the keys of its maps; a map evaluated on a word
    # is the oracles' route, and a command that took it would share it
    evaluators = {"MultiMap.eval", "BiMultiMap.eval"}
    assert sorted(evaluators & _entered_by_the_cli()) == []
