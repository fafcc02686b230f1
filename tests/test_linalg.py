import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rank
from shapedparts.errors import DimensionError, ProblemError
from shapedparts.linalg import Matrix, as_rational, format_rational, solve_consistent

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


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

    def test_format_beyond_digit_limit_is_problem_error(self):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert len(format_rational(F(10) ** 4299)) == 4300
            for value in (F(10) ** 4300, F(1, 10 ** 4300)):
                with pytest.raises(ProblemError, match="4300 digits"):
                    format_rational(value)
        finally:
            sys.set_int_max_str_digits(saved)


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


class TestRank:
    # rank lives in conftest.py: only the test references use it.
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
