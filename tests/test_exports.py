"""The package exports its public names, not its submodules."""
import ast
import importlib
import re
import types
from pathlib import Path

import linfty

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


# Public names that only tests call, kept on purpose, each with its reason.
ORACLE_SURFACE = {
    "derived_bracket": "the paper's derived bracket P([..[Q, a_1].., a_k]) of the "
    "untwisted product, tested against the dense chain of full lifts",
    "basis_element": "the elementary map w -> b that the oracle brackets take as input",
}


def _text_without_definitions(paths):
    return "\n".join(re.sub(r"\bdef \w+", "", path.read_text()) for path in paths)


def test_every_public_function_and_method_is_read_by_the_program():
    # a name scan: a public function or method of src/linfty must be named
    # somewhere in the package or the benchmark (code or docs, outside its
    # own def line), unless it is exported, a seeded generator of corpus.py
    # or an oracle listed above; law checkers that only tests call live in
    # tests/laws.py
    src = Path(linfty.__file__).parent
    root = src.parent.parent
    exported = set(linfty.__all__)
    for module in SUBMODULES + ("corpus", "cli"):
        exported |= set(getattr(importlib.import_module(f"linfty.{module}"), "__all__", ()))
    program = _text_without_definitions(
        list(src.glob("*.py")) + list((root / "perfbench").glob("*.py"))
    )
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if fn.name in exported or fn.name in ORACLE_SURFACE:
                    continue
                if not re.search(rf"\b{fn.name}\b", program):
                    unread.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert unread == []
