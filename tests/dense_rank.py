"""Dense Gauss-Jordan rank over ``Fraction``, kept as a test oracle.

Rows are full-length lists; every entry is a :class:`fractions.Fraction`
and each pivot row is divided through by its pivot.  The package's
:func:`linfty.linalg.rank` works on sparse integer rows instead; the oracle
tests check the two agree.
"""
from __future__ import annotations

from fractions import Fraction


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by row reduction."""
    if not rows:
        return 0
    m = [list(map(Fraction, r)) for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r
