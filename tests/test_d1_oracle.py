"""The projected d1 columns and the sparse rank against their oracles.

``DeformationComplex.d1_columns`` forms only the projection of ``[T, a]``,
with no lift of any basis element: the ``p(TA)`` half is a
``lifted_composite`` of ``T``'s restriction on the words with one acting
letter with the basis element, and the ``p(AT)`` half a transposed pass
over ``T``'s pure-target rows.  :meth:`DeformationComplex.twisted_bracket`
still forms the full commutator of the twisted codifferential with each
basis element's lift, and its projection is the reference column.  :func:`linfty.linalg.rank` is checked
against the dense Gauss-Jordan rank of ``dense_rank.py``, both on random
sparse rational matrices and on every bigraded piece of the complexes.
"""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dense_rank import dense_rank
from linfty import parse_path
from linfty.corpus import heisenberg_central_action
from linfty.linalg import rank
from linfty.tensor import EmbeddingTensor, cohomology_rank, deformation_complex

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def fixture_complex(name, bound):
    sf = parse_path(FIXTURES / f"{name}.lif")
    return deformation_complex(sf.embedding_tensor(), sf.action_family(), bound)


def zero_tensor_complex(bound):
    act = heisenberg_central_action()
    zero = EmbeddingTensor(act.V.space, act.E.space, {})
    return deformation_complex(zero, act, bound)


def bracket_columns(complex_):
    """Each column as the projection of the full twisted commutator."""
    cols = []
    for w, b in complex_.basis:
        image = complex_.twisted_bracket([complex_.basis_element(w, b)])
        cols.append(
            {complex_.basis_index[u, e]: c for u, vec in image.rows for e, c in vec}
        )
    return cols


def dense_piece_ranks(complex_, cols, degree, weight):
    """``(piece_dim, rank_out, rank_in)`` from full-length dense rows."""
    n = len(complex_.basis)
    piece = [
        j
        for j, (w, b) in enumerate(complex_.basis)
        if len(w) == weight and complex_.element_degree(w, b) == degree
    ]
    below = [
        j
        for j, (w, b) in enumerate(complex_.basis)
        if complex_.element_degree(w, b) == degree - 1
    ]
    out_rows = [[cols[j].get(i, F(0)) for i in range(n)] for j in piece]
    in_rows = [[cols[j].get(i, F(0)) for i in piece] for j in below]
    return len(piece), dense_rank(out_rows), dense_rank(in_rows)


CASES = [
    ("heisenberg", 3),
    ("heisenberg", 4),
    ("heisenberg", 5),
    ("adjoint_identity", 3),
    ("adjoint_identity", 4),
]


@pytest.mark.parametrize("name,bound", CASES)
def test_d1_columns_equal_projected_commutators(name, bound):
    complex_ = fixture_complex(name, bound)
    expected = bracket_columns(complex_)
    assert complex_.d1_columns() == expected
    assert any(expected)


@pytest.mark.parametrize("bound", [3, 4])
def test_d1_columns_of_the_zero_tensor(bound):
    complex_ = zero_tensor_complex(bound)
    assert complex_.twisted.rows == complex_.q.rows
    assert complex_.d1_columns() == bracket_columns(complex_)


@pytest.mark.parametrize("name,bound", [("heisenberg", 4), ("adjoint_identity", 4)])
def test_every_piece_rank_matches_the_dense_oracle(name, bound):
    complex_ = fixture_complex(name, bound)
    cols = bracket_columns(complex_)
    degrees = {d for d, _ in complex_.bigrading}
    for degree in range(min(degrees) - 1, max(degrees) + 2):
        for weight in range(1, bound + 1):
            got = cohomology_rank(complex_, degree, weight)
            assert (got.piece_dim, got.rank_out, got.rank_in) == dense_piece_ranks(
                complex_, cols, degree, weight
            ), (degree, weight)


# ---------------------------------------------------------------------------
# the sparse rank on random matrices

entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def sparse_matrices(draw):
    """Dense rows with zero rows and rows dependent on earlier ones."""
    ncols = draw(st.integers(1, 7))
    cell = st.one_of(st.just(F(0)), st.just(F(0)), entries)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)])
    rows += [[F(0)] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(sparse_matrices(), st.booleans())
def test_sparse_rank_equals_dense_rank(rows, keep_zeros):
    sparse = [
        {k: v for k, v in enumerate(row) if keep_zeros or v} for row in rows
    ]
    assert rank(sparse) == dense_rank(rows)


def test_sparse_rank_small_cases():
    assert rank([]) == 0
    assert rank([{}, {3: F(0)}]) == 0
    assert rank([{0: 2, 5: F(-1, 3)}, {0: F(-4), 5: F(2, 3)}]) == 1
    assert rank([{1: F(1, 2)}, {0: F(1, 3), 1: F(1)}, {0: F(1)}]) == 2
    big = F(10**30 + 1, 7**20)
    assert rank([{0: big, 1: F(1)}, {0: F(1), 1: 1 / big}]) == 1
