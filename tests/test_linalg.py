import json
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rank, solve_consistent
from shapedparts.errors import DimensionError, ProblemError
from shapedparts.linalg import (
    Matrix,
    as_integer,
    as_rational,
    check_power_sum_digits,
    decode_json,
    format_rational,
    fraction_free_elimination,
    integer_array,
    integer_rows,
)

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

    def test_integers_accept_numpy_integers_and_reject_bools(self):
        assert as_integer(-3) == -3 and as_integer(2 ** 70) == 2 ** 70
        assert as_integer(np.int64(4)) == 4 and type(as_integer(np.uint8(4))) is int
        for value in (True, np.True_, 2.0, "2", None, F(2)):
            with pytest.raises(ValueError, match="not an integer"):
                as_integer(value)

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


class TestDecodeJson:
    """decode_json gives what json.loads(text, parse_float=str) gives, and
    raises the same error class with the same message."""

    @pytest.mark.parametrize("text", [
        '{"matrix": [[1, 0.6, "1/3"]], "p": 2}', " 1e400 ", "-2.50", '"17/20"', "[]",
        "", "[1, 2", "1 2", "\ufeff[1]", "[-Infinity]", "[1e5]",
    ])
    def test_matches_json_loads(self, text):
        try:
            expected = json.loads(text, parse_float=str)
        except json.JSONDecodeError as caught:
            with pytest.raises(json.JSONDecodeError) as raised:
                decode_json(text)
            assert str(raised.value) == str(caught)
        else:
            assert decode_json(text) == expected


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


class TestRank:
    # rank lives in conftest.py: only the test references use it.
    def test_zero_matrix(self):
        assert rank(Matrix([[0] * 3] * 3)) == 0

    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_dependent_rows(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4))
    def test_rank_of_transpose(self, rows):
        m = Matrix(rows)
        transpose = Matrix.from_columns(rows)
        assert [transpose.column(j) for j in range(transpose.ncols)] == list(m.rows())
        assert rank(m) == rank(transpose)


class TestSolveConsistent:
    # solve_consistent lives in conftest.py: only the test references use it.
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


@st.composite
def integer_matrices(draw):
    """Integer matrices of 1 to 4 rows and 1 to 5 columns, built column by
    column from fresh columns, zero columns and copies or multiples of an
    earlier column; entries reach past 2^64."""
    height = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy"]))
        if kind == "zero":
            columns.append([0] * height)
        elif kind == "copy" and columns:
            factor = draw(st.sampled_from([1, -1, 2, 2 ** 65]))
            columns.append([factor * x for x in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(entries, min_size=height, max_size=height)))
    return [list(row) for row in zip(*columns)]


class TestIntegerPrimitives:
    def test_integer_rows_scale_by_the_common_denominator(self):
        rows, scale = integer_rows([[F(1, 2), F(-1, 3)], [2, F(5, 6)]])
        assert scale == 6
        assert rows == [[3, -2], [12, 5]]
        assert integer_rows([]) == ([], 1)

    def test_integer_array_is_int64_up_to_the_largest_int64(self):
        assert integer_array([1, 2], 2 ** 63 - 1).dtype == np.int64
        assert integer_array([1, 2], 2 ** 63).dtype == object
        assert integer_array([2 ** 70], 2 ** 70).tolist() == [2 ** 70]

    @settings(max_examples=200, deadline=None, database=None)
    @given(integer_matrices())
    def test_pivots_are_the_greedy_independent_columns(self, rows):
        height, width = len(rows), len(rows[0])
        columns = [[row[c] for row in rows] for c in range(width)]
        expected = []
        for c in range(width):
            chosen = [columns[j] for j in expected + [c]]
            if rank(Matrix.from_columns(chosen, nrows=height)) == len(expected) + 1:
                expected.append(c)
        eliminated = [list(row) for row in rows]
        pivots = fraction_free_elimination(eliminated)
        assert pivots == expected
        assert all(eliminated[i][c] for i, c in enumerate(pivots))


def past_digit_limit(keys, scale, q):
    try:
        check_power_sum_digits(keys, scale, q)
    except ProblemError as exc:
        assert "digits" in str(exc)
        return True
    return False


class TestPowerDigitBound:
    """check_power_sum_digits raises only when formatting the largest value
    would fail."""

    def test_raises_only_when_formatting_fails(self):
        rng = random.Random(29)
        answers = set()
        for _ in range(200):
            terms = rng.randint(1, 6)
            bound = rng.choice([1, 3, 10, 1000])
            keys = [[rng.randint(-bound, bound) for _ in range(terms)] for _ in range(3)]
            scale = rng.choice([1, 2, 7, 1000])
            q = rng.choice([1, 2, rng.randint(1, 16000)])
            past = past_digit_limit(keys, scale, q)
            answers.add(past)
            if past:
                value = max(F(sum(abs(x) ** q for x in key), scale ** q) for key in keys)
                with pytest.raises(ProblemError, match="digits"):
                    format_rational(value)
        assert answers == {False, True}

    @pytest.mark.parametrize("keys, scale, q, past", [
        ([[8, 0, 0]], 1, 4760, False),  # 8^4760 = 2^14280 < 10^4300
        ([[8, 0, 0]], 1, 4762, True),
        # 3 / 8^q; the test takes 4 for 3, and 4 / 8^4762 > 10^-4300
        ([[2, 2, 2]], 16, 4762, False),
        ([[2, 2, 2]], 16, 4764, True),
        ([[1, 1, 1]], 8, 4760, False),  # in lowest terms over 8^q, which has 4299 digits
        ([[1, 1, 1]], 8, 4762, True),  # and 4301 here
        ([[5, 5, 5]], 5, 10 ** 11, False),  # every value is 3
        ([[2, 1], [0, 1]], 2, 10 ** 11, True),  # 1 + 2^-q and 2^-q
        # The largest value, 1 + 5^-q, has a denominator past the limit, but
        # the other value is 1, so no key is known to be the largest.
        ([[5, 1], [5, 0]], 5, 10 ** 11, False),
        ([[0, 0, 0]], 1, 10 ** 11, False),  # every value is 0
        ([[3]], 1, 10 ** 400, True),  # past float range
        ([[1]], 3, 10 ** 400, True),
        ([], 3, 10 ** 11, False),
    ])
    def test_threshold(self, keys, scale, q, past):
        assert past_digit_limit(keys, scale, q) is past

    def test_no_limit_means_no_error(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            check_power_sum_digits([[8, 0, 0]], 1, 10 ** 11)
        finally:
            sys.set_int_max_str_digits(limit)
