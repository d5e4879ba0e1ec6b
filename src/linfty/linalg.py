"""Tiny exact linear algebra over the rationals: rank and inverse.

:func:`rank` is sparse and fraction-free in the manner of Bareiss (1968).
Each row is prepared in one pass that keeps its nonzeros, the integral ones
as ``int``; the row is multiplied through by the lcm of its denominators
only when that lcm is not 1, then divided by its content gcd.  Elimination
against a pivot row, keyed by its leading (smallest) column, is an integer
cross-multiplication followed by the same division, so no
:class:`fractions.Fraction` is formed on the way.
:func:`invert` is plain Gauss-Jordan on :class:`fractions.Fraction`.  There
are no pivot thresholds and no rounding.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Matrix = list[list[Fraction]]
SparseRow = Mapping[int, Fraction]


def _primitive(row: Mapping[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def rank(rows: Sequence[SparseRow]) -> int:
    """Exact rank of the matrix whose rows are ``{column: value}`` dicts.

    Values are ``Fraction`` or ``int``; absent columns are zero.  One pass
    over a row keeps its nonzeros, each integral ``Fraction`` as its
    numerator, and the lcm of the other denominators; only when that lcm is
    not 1 is the row multiplied through by it.  The primitive row is then
    reduced against the pivot rows keyed by their leading (smallest) column:
    ``row <- p * row - c * pivot`` with ``p`` the pivot's leading entry and
    ``c`` the row's, both divided by their gcd.  A row whose leading column
    has no pivot yet becomes one; a row that cancels out adds nothing.  The
    rows passed in are read, never written.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {}
        den = 1
        for k, v in row.items():
            if v:
                if type(v) is not int:
                    if v.denominator == 1:
                        v = v.numerator
                    else:
                        den = lcm(den, v.denominator)
                vec[k] = v
        if not vec:
            continue
        if den != 1:
            vec = {k: v.numerator * (den // v.denominator) for k, v in vec.items()}
        vec = _primitive(vec)
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = vec
                break
            p, c = pivot[lead], vec[lead]
            g = gcd(p, c)
            p, c = p // g, c // g
            reduced = {k: p * v for k, v in vec.items() if k != lead}
            for k, v in pivot.items():
                if k == lead:
                    continue
                new = reduced.get(k, 0) - c * v
                if new:
                    reduced[k] = new
                else:
                    reduced.pop(k, None)
            vec = _primitive(reduced) if reduced else reduced
    return len(pivots)


def invert(mat: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ``ValueError`` if singular."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    aug = [
        list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
