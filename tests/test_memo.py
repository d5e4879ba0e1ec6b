"""The README's "What is cached" table lists every memo kind of the package.

A kind is the first element of a key passed to ``linfty.memo.memo``; the
scan reads the calls in ``src/linfty`` from their syntax trees, so a memo
renamed or added in the code cannot leave the table stale.
"""
import ast
import re
from pathlib import Path

import linfty

SRC = Path(linfty.__file__).parent
README = SRC.parent.parent / "README.md"


def memo_kinds() -> set[str]:
    """The first element of each key passed to ``memo(`` in the package,
    which must be a tuple display opening with a string."""
    kinds = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "memo":
                key = node.args[1]
                assert isinstance(key, ast.Tuple), (path.name, node.lineno)
                first = key.elts[0]
                assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
                    path.name,
                    node.lineno,
                )
                kinds.add(first.value)
    return kinds


def cached_table_kinds() -> set[str]:
    """The kinds in the key column of the README's "What is cached" table."""
    text = README.read_text(encoding="utf-8")
    lines = text[text.index("**What is cached.**") :].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    kinds = set()
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        key = line.split("|")[2]
        kinds.update(re.findall(r'\("(\w+)"', key))
    return kinds


def test_every_memo_kind_is_in_the_readme_cache_table():
    kinds = memo_kinds()
    assert {"split", "cleared", "coherent", "d1"} <= kinds
    assert cached_table_kinds() == kinds
