"""The deformation complex's brackets, its d1 columns and the sparse rank
against their oracles.

The complex's brackets ``derived_bracket``, ``twisted_bracket`` and
``mc_residual_of`` (``tests/paper.py``) run on plain tables, one
``balavoine_bracket`` per element, and ``d1_columns`` forms only the
projection of ``[T, a]``: the ``p(TA)`` half is a composite of ``T``'s
restriction on the words with one acting letter with the basis element,
and the ``p(AT)`` half is read off the prefix rows of the lift of ``T``'s
pure-target part.  The references are the projected chains and series of
``dense_lifts``: word-by-word lifts
of the product's brackets, of the tensor and of each element, composed by
``commutator``.  The reference columns are the chains ``P([T, a])`` of the
basis elements.  :func:`linfty.linalg.rank` is checked against the dense
Gauss-Jordan rank of ``dense_rank.py``, both on random sparse rational
matrices and on every bigraded piece of the complexes, whose ranks are
those of the E1 page: the entries of ``d1`` that raise the weight by one,
which a test holds to be a differential.  The oracle reads the weight
shifts off the dense columns: a nonempty piece must be refused where an
entry keeps the weight, and must say ``page_e1`` where one raises it by
two or more.  An empty piece must
answer zeros without building ``d1``, and neither ``rank`` nor
``cohomology_rank`` may write the rows or the memoized columns they read.
``d1_square_defect`` is held to the plain double loop over every column on
columns with planted entries, so skipping an empty column hides no defect.
Each degree-0 column is also held to the explicit tensor equations: it is
minus their linear part at the tensor moved along that basis element.
"""
import copy
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dense_lifts import dense_chain, dense_mc_residual, dense_twisted, dense_zinbiel_lift
from dense_rank import dense_rank
from laws import tensor_sum
from linfty import corpus, parse_path
from linfty.linalg import rank
from linfty.multimap import PLAIN, MultiMap, merge_into
from linfty.report import InputError
from linfty.tensor import (
    CohomologyRanks,
    DeformationComplex,
    EmbeddingTensor,
    _descendent_identity,
    cohomology_rank,
    deformation_complex,
    identity_tensor,
)
from paper import HomElement, basis_element, derived_bracket, mc_residual_of, twisted_bracket

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def fixture_tensor(name):
    if name == "zero":
        act = corpus.heisenberg_central_action()
        return EmbeddingTensor(act.V.space, act.E.space, {}), act
    if name == "ternary_identity":
        # the host's only bracket is ternary, so every nonzero of d1 raises
        # the weight by two and d(1) = 0
        act = corpus.adjoint_representation(corpus.triple_bracket_example())
        return identity_tensor(act.V.space), act
    sf = parse_path(FIXTURES / f"{name}.lif")
    return sf.embedding_tensor(), sf.action_family()


def fixture_complex(name, bound):
    return deformation_complex(*fixture_tensor(name), bound)


@lru_cache(maxsize=None)
def reference_columns(name, bound):
    tensor, action = fixture_tensor(name)
    return dense_columns(tensor, deformation_complex(tensor, action, bound), bound)


def dense_columns(tensor, complex_, bound):
    """Each column ``P([T, a])`` of a basis element, from the dense chain."""
    twisted = dense_twisted(tensor, complex_.hemi, bound)
    index = {ub: i for i, ub in enumerate(complex_.basis)}
    cols = []
    for w, b in complex_.basis:
        image = dense_chain(complex_.hemi, twisted, [basis_element(complex_, w, b)], bound)
        cols.append({index[u, e]: c for u, vec in image.rows for e, c in vec})
    return cols


def dense_piece_ranks(complex_, cols, degree, weight):
    """``(piece_dim, rank_out, rank_in)`` of the E1 page from full-length
    dense rows, each cut to the entries one weight above its column's."""
    basis, degree_of = complex_.basis, complex_.element_degree

    def piece_of(d, wt):
        return [j for j, (w, b) in enumerate(basis) if len(w) == wt and degree_of(w, b) == d]

    def row(j, rows):
        above = len(basis[j][0]) + 1
        return [cols[j].get(i, F(0)) if len(basis[i][0]) == above else F(0) for i in rows]

    piece = piece_of(degree, weight)
    out_rows = [row(j, range(len(basis))) for j in piece]
    in_rows = [row(j, piece) for j in piece_of(degree - 1, weight - 1)]
    return len(piece), dense_rank(out_rows), dense_rank(in_rows)


CASES = [
    ("heisenberg", 3),
    ("heisenberg", 4),
    ("heisenberg", 5),
    ("adjoint_identity", 3),
    ("adjoint_identity", 4),
    ("adjoint_identity", 5),
]


@pytest.mark.parametrize(
    "name,bound", CASES + [("string/string_tensor", 3), ("string/string_tensor", 4)]
)
def test_d1_columns_equal_projected_commutators(name, bound):
    complex_ = fixture_complex(name, bound)
    expected = reference_columns(name, bound)
    assert complex_.d1_columns() == expected
    assert any(expected)


@pytest.mark.parametrize("bound", [3, 4])
def test_d1_columns_of_the_zero_tensor(bound):
    complex_ = fixture_complex("zero", bound)
    # the zero tensor twists nothing: the series is the product's brackets
    assert complex_._series == {
        w: vec for f in complex_.hemi.structure.brackets.values() for w, vec in f.constants.items()
    }
    assert complex_.d1_columns() == reference_columns("zero", bound)


def third_of_the_identity():
    """A third of the identity tensor on the adjoint representation of the
    arity-3 example, an embedding tensor for every scalar.  Its twisted
    series has a nonzero second term, ``[[Q, T], T] / 2!``, of weight two in
    the tensor, so ``d1`` has entries with denominator ``3 * 3``."""
    action = corpus.adjoint_representation(corpus.triple_bracket_example())
    v, e = action.V.space, action.E.space
    third = MultiMap(v, e, 1, 0, PLAIN, {(i,): {i: F(1, 3)} for i in range(v.dim)})
    return EmbeddingTensor(v, e, {1: third}), action


@pytest.mark.parametrize("bound", [3, 4])
def test_fractional_d1_columns_equal_projected_commutators(bound):
    tensor, action = third_of_the_identity()
    complex_ = deformation_complex(tensor, action, bound)
    cols = complex_.d1_columns()
    assert cols == dense_columns(tensor, complex_, bound)
    entries = [c for col in cols for c in col.values()]
    assert any(isinstance(c, Fraction) and c.denominator == 9 for c in entries)


def linearized_tensor_equation(tensor, action, bound, w, b):
    """The coefficient of ``s`` in the explicit route's residual map
    (:func:`linfty.tensor._descendent_identity`) at ``T + s (w -> b)``.

    The map is a polynomial in ``s`` of degree at most ``bound``, zero at
    ``s = 0`` for a verified ``T``, so its values at ``s = 1 .. bound + 1``
    fix it, and Lagrange interpolation through ``0`` reads the coefficient
    exactly."""
    vspace, espace = action.V.space, action.E.space
    points = range(1, bound + 2)
    out = {}
    for s in points:
        weight = F(1, s)
        for m in points:
            if m != s:
                weight *= F(-m, s - m)
        step = MultiMap(vspace, espace, len(w), 0, PLAIN, {w: {b: s}})
        shifted = tensor_sum(tensor, EmbeddingTensor(vspace, espace, {len(w): step}))
        for u, vec in _descendent_identity(shifted, action, bound).items():
            merge_into(out.setdefault(u, {}), vec, weight)
    return {u: vec for u, vec in out.items() if vec}


# degree-0 basis elements of each fixture's complex, the same at bounds 2-4
DEGREE_ZERO = {"heisenberg": 3, "adjoint_identity": 4, "string/string_tensor": 18}


@pytest.mark.parametrize("name", sorted(DEGREE_ZERO))
@pytest.mark.parametrize("bound", [2, 3, 4])
def test_d1_is_the_linearized_tensor_equation(name, bound):
    """``d1(a)`` at a degree-0 element ``a`` is minus the linear part of the
    explicit equations at ``T + s a``: the linear part of ``check-tensor``'s
    printed residuals, which negate the map.  A build reads no explicit
    equation, so this ties ``d1`` to that route.  Besides the plain
    expansion of symmetric brackets, the sign tables of ``linfty.graded``
    and the vector helpers, the two sides share only the composite kernel,
    ``_composite`` with the slot index it reads."""
    tensor, action = fixture_tensor(name)
    complex_ = deformation_complex(tensor, action, bound)
    cols, dim_e = complex_.d1_columns(), action.E.space.dim
    checked = 0
    for j, (w, b) in enumerate(complex_.basis):
        if complex_.element_degree(w, b) != 0:
            continue
        linear = linearized_tensor_equation(tensor, action, bound, w, b)
        rows = {
            complex_._words[u][0] * dim_e + e: -c for u, vec in linear.items() for e, c in vec.items()
        }
        assert rows == cols[j], (w, b)
        checked += 1
    assert checked == DEGREE_ZERO[name]


def every_piece(complex_):
    """Each (degree, weight) from one degree below the lowest to one above
    the highest, at every weight of the truncation."""
    degrees = {d for d, _ in complex_.bigrading}
    return [
        (degree, weight)
        for degree in range(min(degrees) - 1, max(degrees) + 2)
        for weight in range(1, complex_.bound + 1)
    ]


def weight_shifts(complex_, cols):
    """How many nonzeros of ``cols`` raise the weight by each amount."""
    basis = complex_.basis
    return Counter(len(basis[i][0]) - len(basis[j][0]) for j, col in enumerate(cols) for i in col)


def assert_ranks_match_the_dense_oracle(complex_, cols, pieces):
    """Each piece's ranks and page against the oracle's on the dense columns
    ``cols``; where one of them keeps the weight, a nonempty piece is
    refused, as ``d(1)`` need not square to zero."""
    shifts = weight_shifts(complex_, cols)
    for degree, weight in pieces:
        nonempty = (degree, weight) in complex_.bigrading
        if nonempty and min(shifts, default=1) < 1:
            with pytest.raises(InputError, match="raises every weight"):
                cohomology_rank(complex_, degree, weight)
            continue
        got = cohomology_rank(complex_, degree, weight)
        assert (got.piece_dim, got.rank_out, got.rank_in) == dense_piece_ranks(
            complex_, cols, degree, weight
        ), (degree, weight)
        assert got.page_e1 == (nonempty and max(shifts, default=1) > 1), (degree, weight)


def oracle_complexes(name, bound):
    """``(complex, dense columns)`` of a fixture, or of every verified member
    of the seeded tensor corpus for ``"corpus"``."""
    if name != "corpus":
        return [(fixture_complex(name, bound), reference_columns(name, bound))]
    out = []
    for inst in corpus.tensor_corpus(60, 3):
        try:
            complex_ = deformation_complex(inst.tensor, inst.action, bound)
        except InputError:
            continue  # not a verified tensor
        out.append((complex_, dense_columns(inst.tensor, complex_, bound)))
    return out


@pytest.mark.parametrize(
    "name,bound",
    [(n, b) for n, b in CASES if b < 5]
    + [(n, b) for n in ("string/string_tensor", "ternary_identity") for b in (3, 4)]
    + [("corpus", 3)],
)
def test_every_piece_rank_matches_the_dense_oracle(name, bound):
    for complex_, cols in oracle_complexes(name, bound):
        assert_ranks_match_the_dense_oracle(complex_, cols, every_piece(complex_))


@pytest.mark.parametrize("name,bound", CASES)
def test_an_empty_piece_builds_no_d1(name, bound, monkeypatch):
    complex_ = fixture_complex(name, bound)
    pieces = every_piece(complex_)
    empty = [p for p in pieces if p not in complex_.bigrading]
    assert empty and len(empty) < len(pieces)

    def refuse(self):
        raise AssertionError("an empty piece built d1")

    with monkeypatch.context() as patched:
        patched.setattr(DeformationComplex, "_d1_matrix", refuse)
        for degree, weight in empty:
            assert cohomology_rank(complex_, degree, weight) == CohomologyRanks(
                degree, weight, 0, 0, 0, 0
            )
    nonempty = [p for p in pieces if p in complex_.bigrading]
    assert_ranks_match_the_dense_oracle(complex_, reference_columns(name, bound), nonempty)


@pytest.mark.parametrize("name,bound", CASES)
def test_cohomology_rank_leaves_the_shared_columns_unchanged(name, bound):
    # the columns are memoized and every piece reads the same dicts
    complex_ = fixture_complex(name, bound)
    cols = complex_.d1_columns()
    before = copy.deepcopy(cols)
    for degree, weight in every_piece(complex_):
        cohomology_rank(complex_, degree, weight)
    assert complex_.d1_columns() is cols
    assert cols == before


def assert_images_fit_in_kernels(complex_):
    for degree, weight in complex_.bigrading:
        got = cohomology_rank(complex_, degree, weight)
        assert got.rank_in <= got.kernel_dim, (complex_.bound, got)


@pytest.mark.parametrize(
    "name,bound",
    [(n, b) for n in ("heisenberg", "adjoint_identity") for b in (3, 4, 5, 6)]
    + [(n, b) for n in ("string/string_tensor", "ternary_identity") for b in (3, 4, 5)],
)
def test_rank_in_is_at_most_kernel_dim_on_the_fixtures(name, bound):
    assert_images_fit_in_kernels(fixture_complex(name, bound))


@pytest.mark.parametrize(
    "name,shifts",
    [
        ("heisenberg", {1: 138}),
        ("adjoint_identity", {1: 70}),
        ("string/string_tensor", {1: 1078, 2: 138}),
        ("ternary_identity", {2: 24}),
    ],
)
def test_every_d1_entry_raises_the_weight(name, shifts):
    # the E1 page reads the shift-one part; it is a differential only
    # because no entry keeps or lowers the weight
    complex_ = fixture_complex(name, 4)
    assert weight_shifts(complex_, complex_.d1_columns()) == shifts


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_the_weight_one_part_of_d1_squares_to_zero(bound):
    complex_ = fixture_complex("string/string_tensor", bound)
    basis = complex_.basis
    d = [
        {i: c for i, c in col.items() if len(basis[i][0]) == len(basis[j][0]) + 1}
        for j, col in enumerate(complex_.d1_columns())
    ]
    square = []
    for j, col in enumerate(d):
        acc = Counter()
        for i, c in col.items():
            for i2, c2 in d[i].items():
                acc[i2] += c * c2
        square += [(i2, j, c) for i2, c in acc.items() if c]
    assert square == []
    assert any(d) and complex_.check_d1_squares_to_zero().ok


def test_rank_in_is_at_most_kernel_dim_on_the_tensor_corpus():
    complexes = []
    for inst in corpus.tensor_corpus(60, 3):
        try:
            complexes.append((inst.label, deformation_complex(inst.tensor, inst.action, 4)))
        except InputError:
            pass  # not a verified tensor
    assert len(complexes) == 22
    assert sum(len(c.bigrading) for _, c in complexes) == 108
    refused = []
    for label, complex_ in complexes:
        # a zero tensor on a host with a unary bracket has a d1 that keeps
        # the weight, and every nonempty piece of it is refused
        if min(weight_shifts(complex_, complex_.d1_columns()), default=1) < 1:
            refused.append(label)
            for degree, weight in complex_.bigrading:
                with pytest.raises(InputError, match="raises every weight"):
                    cohomology_rank(complex_, degree, weight)
        else:
            assert_images_fit_in_kernels(complex_)
    assert refused == ["random#7", "random#19"]


def parent_square_defect(cols):
    """``d1 . d1`` column by column, every column visited, as
    ``(row, column, value)`` in column order and then in first-touch order."""
    defects = []
    for j, col in enumerate(cols):
        acc = {}
        for i, c in col.items():
            for i2, c2 in cols[i].items():
                if total := acc.get(i2, 0) + c * c2:
                    acc[i2] = total
                else:
                    del acc[i2]
        defects.extend((i, j, c) for i, c in acc.items())
    return defects


@pytest.mark.parametrize("name,bound", [(n, b) for n, b in CASES if b < 5])
def test_square_defect_sees_a_planted_entry_in_an_empty_column(name, bound):
    complex_ = fixture_complex(name, bound)
    cols = complex_.d1_columns()
    assert complex_.d1_square_defect() == parent_square_defect(cols) == []
    empty = [j for j, col in enumerate(cols) if not col]
    full = [j for j, col in enumerate(cols) if col]
    assert empty and full
    planted = copy.deepcopy(cols)
    # each planted entry sits at the row of a nonempty column, so it
    # composes to a nonzero entry of the square
    planted[empty[0]][full[0]] = 1
    planted[full[-1]][full[0]] = planted[full[-1]].get(full[0], 0) + F(3, 2)
    complex_.d1_columns = lambda: planted
    defects = complex_.d1_square_defect()
    assert defects == parent_square_defect(planted)
    assert {empty[0], full[-1]} <= {j for _, j, _ in defects}


# ---------------------------------------------------------------------------
# the brackets and the Maurer-Cartan residual

# both fixtures and the verified members of the seeded tensor corpus other
# than the adjoint-identity fixture itself: its heisenberg tensor, built in
# code, and the zero tensor; each at bounds 3 and 4
VERIFIED = [
    inst for inst in corpus.tensor_corpus(11, seed=31) if inst.label in ("heisenberg", "zero")
]
BRACKET_CASES = [
    (label, tensor, action, bound)
    for label, tensor, action in (
        [(name, *fixture_tensor(name)) for name in ("heisenberg", "adjoint_identity")]
        + [(f"corpus {inst.label}", inst.tensor, inst.action) for inst in VERIFIED]
    )
    for bound in (3, 4)
]


def case_id(case):
    return f"{case[0]}-{case[3]}"


@pytest.mark.parametrize("case", BRACKET_CASES, ids=case_id)
def test_brackets_equal_the_dense_chains(case):
    _, tensor, action, bound = case
    complex_ = deformation_complex(tensor, action, bound)
    hemi = complex_.hemi
    product = dense_zinbiel_lift(hemi.space, hemi.structure.brackets, bound)
    twisted = dense_twisted(tensor, hemi, bound)
    elements = [basis_element(complex_, w, b) for w, b in complex_.basis]
    pairs = random.Random(bound).sample(list(itertools.product(elements, repeat=2)), 24)
    nonzero = 0
    for chain in [[a] for a in elements] + [list(pair) for pair in pairs]:
        derived = derived_bracket(complex_, chain)
        assert derived == dense_chain(hemi, product, chain, bound), chain
        twisted_value = twisted_bracket(complex_, chain)
        assert twisted_value == dense_chain(hemi, twisted, chain, bound), chain
        nonzero += not twisted_value.is_zero
    assert nonzero


def degree_zero_candidates(complex_, rng):
    """Every degree-0 basis element at two scales, and seeded sums of them."""
    zero = [(w, b) for w, b in complex_.basis if complex_.element_degree(w, b) == 0]
    out = [HomElement.from_rows(0, {w: {b: lam}}) for w, b in zero for lam in (F(1), F(-1, 2))]
    for _ in range(6):
        picked = rng.sample(zero, min(3, len(zero)))
        rows = {}
        for w, b in picked:
            rows.setdefault(w, {})[b] = rng.choice(corpus.SMALL_FRACTIONS)
        out.append(HomElement.from_rows(0, rows))
    return out


def test_mc_residuals_equal_the_dense_series():
    flat = set()
    for label, tensor, action, bound in BRACKET_CASES:
        complex_ = deformation_complex(tensor, action, bound)
        twisted = dense_twisted(tensor, complex_.hemi, bound)
        for element in degree_zero_candidates(complex_, random.Random(bound)):
            got = mc_residual_of(complex_, element)
            assert got == dense_mc_residual(complex_.hemi, twisted, element, bound), (
                label, bound, element
            )
            flat.add(got.is_zero)
    # flat and curved candidates both occur
    assert flat == {True, False}


# ---------------------------------------------------------------------------
# the sparse rank on random matrices

# an integral cell may be an ``int`` or an integral ``Fraction`` such as
# ``F(4, 2)``, so rows meet ``rank`` with and without denominators to clear
integral = st.integers(-12, 12)
entries = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), integral, integral.map(F)
)
zeros = st.sampled_from([0, F(0)])


@st.composite
def patterns(draw, nrows, ncols):
    """Whether cell ``(i, k)`` may be nonzero, in one of the shapes where the
    pivot order changes fill-in: a band of width 0 to 2, square blocks of
    side 1 to 3 on the diagonal, or an arrowhead, the diagonal with a full
    first or last row and column."""
    shape = draw(st.sampled_from(["banded", "block", "arrowhead"]))
    if shape == "banded":
        width = draw(st.integers(0, 2))
        return lambda i, k: abs(i - k) <= width
    if shape == "block":
        side = draw(st.integers(1, 3))
        return lambda i, k: i // side == k // side
    row, col = (0, 0) if draw(st.booleans()) else (nrows - 1, ncols - 1)
    return lambda i, k: i == k or i == row or k == col


@st.composite
def sparse_matrices(draw):
    """Rows with zero rows and rows dependent on earlier ones.  The cells are
    random in any order, or random inside a banded, block-diagonal or
    arrowhead pattern kept in row order.  Each cell is an ``int`` or a
    ``Fraction``, so a row may be all ``int``, integral ``Fraction``, mixed or
    fractional, and rows are multiplied by -1, ±2, 3 or ±4 at random, which
    gives them a content gcd above 1 or a negative lead."""
    ncols = draw(st.integers(1, 7))
    shaped = draw(st.booleans())
    if shaped:
        nrows = draw(st.integers(1, 7))
        inside = draw(patterns(nrows, ncols))
        rows = [
            [draw(entries) if inside(i, k) else draw(zeros) for k in range(ncols)]
            for i in range(nrows)
        ]
    else:
        cell = st.one_of(zeros, zeros, entries)
        rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), max_size=6))
    scales = st.sampled_from([1, 1, -1, 2, -2, 3, 4, -4])
    for n, row in enumerate(rows):
        scale = draw(scales)
        rows[n] = [scale * v for v in row]
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)])
    rows += [[draw(zeros)] * ncols] * draw(st.integers(0, 2))
    return rows if shaped else draw(st.permutations(rows))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(sparse_matrices(), st.booleans())
def test_sparse_rank_equals_dense_rank(rows, keep_zeros):
    sparse = [
        {k: v for k, v in enumerate(row) if keep_zeros or v} for row in rows
    ]
    assert rank(sparse) == dense_rank(rows)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_rank_leaves_its_rows_unchanged(rows):
    def snapshot(sparse):
        # the type too: F(2) == 2, so equality alone misses a cell made int
        return [[(k, type(v), v) for k, v in row.items()] for row in sparse]

    sparse = [dict(enumerate(row)) for row in rows]
    before = snapshot(sparse)
    rank(sparse)
    assert snapshot(sparse) == before


def test_sparse_rank_small_cases():
    assert rank([]) == 0
    assert rank([{}, {3: F(0)}]) == 0
    assert rank([{0: 2, 5: F(-1, 3)}, {0: F(-4), 5: F(2, 3)}]) == 1
    assert rank([{1: F(1, 2)}, {0: F(1, 3), 1: F(1)}, {0: F(1)}]) == 2
    # integral Fractions, a content gcd above 1 and negative leads; only the
    # last row has a denominator to clear
    assert rank([{0: F(4, 2), 1: -6}, {0: -1, 1: F(3)}]) == 1
    assert rank([{0: -4, 1: 6}, {1: F(-9), 2: 3}, {0: 2, 2: F(1, 2)}]) == 3
    big = F(10**30 + 1, 7**20)
    assert rank([{0: big, 1: F(1)}, {0: F(1), 1: 1 / big}]) == 1
