import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapedparts.errors import DimensionError, SingularMatrixError
from shapedparts.linalg import (
    Matrix,
    as_rational,
    determinant,
    format_rational,
    rank,
    solve_consistent,
    solve_linear,
    solve_vandermonde,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


class TestScalars:
    def test_decimal_string_is_exact(self):
        assert as_rational("0.6") == F(3, 5)

    def test_slash_and_integer_strings(self):
        assert as_rational("17/20") == F(17, 20)
        assert as_rational("6") == F(6)
        assert as_rational(-3) == F(-3)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            as_rational(0.6)

    def test_bools_rejected(self):
        with pytest.raises(ValueError):
            as_rational(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            as_rational("1/0")
        with pytest.raises(ValueError):
            as_rational("abc")

    def test_exponent_capped_at_int_digit_limit(self):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert as_rational("1e400") == F(10) ** 400
            assert as_rational("1e-4300") == F(1, 10 ** 4300)
            for text in ("1e4301", "1e10000000", "-2.5E-999999999999"):
                with pytest.raises(ValueError, match="exponent"):
                    as_rational(text)
            sys.set_int_max_str_digits(0)  # no limit
            assert as_rational("1e5000") == F(10) ** 5000
        finally:
            sys.set_int_max_str_digits(saved)

    def test_canonical_format(self):
        assert format_rational(F(6)) == "6"
        assert format_rational(F(17, 20)) == "17/20"
        assert format_rational(F(-3, 9)) == "-1/3"


class TestMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_zero_rows_need_explicit_cols(self):
        m = Matrix([], ncols=3)
        assert m.shape == (0, 3)
        with pytest.raises(DimensionError):
            Matrix([])

    def test_equality_and_hash(self):
        a = Matrix([[1, "2"], ["1/2", 4]])
        b = Matrix([["1", 2], [F(1, 2), "4"]])
        assert a == b and hash(a) == hash(b)

    def test_transpose_roundtrip(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.column(1) == (F(2), F(5))


class TestDeterminant:
    def test_identity(self):
        assert determinant(Matrix.identity(2)) == 1

    def test_hand_cofactor(self):
        assert determinant(Matrix([[1, 1], [1, 2]])) == 1

    def test_equal_columns_vanish(self):
        assert determinant(Matrix([[2, 2], [7, 7]])) == 0
        assert determinant(Matrix([[1, 3, 1], [0, 5, 0], [2, 6, 2]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(Matrix([[1, 2, 3]]))

    @settings(max_examples=40, deadline=None)
    @given(square(4), st.integers(0, 3), st.integers(0, 3))
    def test_row_swap_negates(self, rows, i, j):
        if i == j:
            return
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(Matrix(swapped)) == -determinant(Matrix(rows))


class TestRank:
    def test_zero_matrix(self):
        assert rank(Matrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_dependent_rows(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4))
    def test_rank_of_transpose(self, rows):
        m = Matrix(rows)
        assert rank(m) == rank(m.transpose())


class TestSolveLinear:
    def test_identity(self):
        assert solve_linear(Matrix.identity(2), [3, 5]) == [F(3), F(5)]

    def test_forward_substitution(self):
        assert solve_linear(Matrix([[1, 0], [1, 1]]), [2, 5]) == [F(2), F(3)]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(Matrix([[1, 1], [2, 2]]), [1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(Matrix.identity(2), [1, 2, 3])

    @settings(max_examples=40, deadline=None)
    @given(square(3), st.lists(rationals, min_size=3, max_size=3))
    def test_solve_recovers_x(self, rows, x):
        m = Matrix(rows)
        if determinant(m) == 0:
            return
        b = [sum(m.entry(i, j) * x[j] for j in range(3)) for i in range(3)]
        assert solve_linear(m, b) == [F(v) for v in x]


class TestSolveConsistent:
    def test_overdetermined_consistent(self):
        m = Matrix([[1, 0], [0, 1], [1, 1]])
        assert solve_consistent(m, [2, 3, 5]) == [F(2), F(3)]

    def test_overdetermined_inconsistent(self):
        m = Matrix([[1, 0], [0, 1], [1, 1]])
        assert solve_consistent(m, [2, 3, 6]) is None

    def test_underdetermined_particular(self):
        m = Matrix([[1, 1]])
        solution = solve_consistent(m, [4])
        assert solution is not None
        assert solution[0] + solution[1] == 4


class TestVandermonde:
    def test_constant(self):
        assert solve_vandermonde([5, 5, 5]) == [F(5), F(0), F(0)]

    def test_linear(self):
        assert solve_vandermonde([0, 1, 2]) == [F(0), F(1), F(0)]

    def test_quadratic(self):
        assert solve_vandermonde([1, 2, 5]) == [F(1), F(0), F(1)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_reevaluation_roundtrip(self, values):
        coeffs = solve_vandermonde(values)
        for node, expected in enumerate(values):
            acc = sum(c * F(node) ** j for j, c in enumerate(coeffs))
            assert acc == expected
