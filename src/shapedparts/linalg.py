"""Exact rational scalars and matrices, and the exact integer primitives.

Every scalar is a ``fractions.Fraction``: arbitrary precision, always stored
reduced with a positive denominator, so arithmetic and comparisons are exact.
Problem entries, part-sum matrices and objective values are all exact
rationals, which is why there is no floating-point mode.

The generic-sign kernel, the part sums and the hull test decide on integers
instead: `integer_rows` scales rationals by their common denominator,
`integer_array` holds integers as int64 exactly when no intermediate can
overflow it, and `fraction_free_elimination` is the one exact elimination,
called only by the hull.

Problem files and oracle replies are read by `decode_json`, which keeps
every JSON float literal as its text for `as_rational`.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from math import gcd, lcm, log2
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ProblemError

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")
_INT64_MAX = (1 << 63) - 1
# Bound on the error of a difference of two math.log2 values of integers
# of up to a million bits, with a wide margin.
_LOG2_SLACK = 1e-6
_JSON_DECODER = json.JSONDecoder(parse_float=str)


def _exponent_too_large(text: str) -> bool:
    """Whether text ends in a decimal exponent above Python's integer-literal
    digit limit in magnitude (a limit of 0 means none).

    10**e has e + 1 digits, so Fraction would spend unbounded time and memory
    building the value of such an exponent.
    """
    match = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if match is None or limit == 0:
        return False
    try:
        return abs(int(match.group(1))) > limit
    except ValueError:
        return False  # malformed or too long to read: Fraction rejects it as fast


def decode_json(text: str):
    """The JSON document text, with each float literal kept as its text, as
    json.loads(text, parse_float=str) gives it, by one decoder built once.

    Raises json.JSONDecodeError, a ValueError, on malformed text and
    RecursionError on nesting past the decoder's depth limit.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _JSON_DECODER.decode(text)


def as_rational(value) -> Fraction:
    """Coerce an exact scalar: Fraction, int, or a string.

    Strings may be integers ("6"), decimals ("0.6" becomes 3/5 exactly, "1e400"
    is read exactly), or slash rationals ("17/20"). Floats are rejected: their
    binary value is almost never the decimal the user meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _exponent_too_large(text):
            raise ValueError(
                f"not a rational scalar: {value!r} (exponent above "
                f"{sys.get_int_max_str_digits()} in magnitude)"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {value!r}") from exc
    raise ValueError(f"not a rational scalar: {value!r} (floats are not accepted)")


def as_integer(value) -> int:
    """Coerce an exact integer: an int or a numpy integer, by `operator.index`.

    Booleans are rejected, as in `as_rational`, and so are floats and strings.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"not an integer: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text form: "6" for integers, reduced "a/b" otherwise.

    Raises ProblemError when the numerator or denominator has more digits than
    Python's integer-string limit (``sys.get_int_max_str_digits()``) allows.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise _digit_limit_error() from exc


def _digit_limit_error() -> ProblemError:
    return ProblemError(
        f"a reported value has more than {sys.get_int_max_str_digits()} digits, "
        "the integer-string limit"
    )


def check_power_sum_digits(keys: Sequence[Sequence[int]], scale: int, q: int) -> None:
    """Raise the ProblemError of format_rational when the digit limit is
    certain to reject the largest of the values sum(|x|^q for x in key) /
    scale^q, one per key, whose lengths are equal (q >= 1, scale >= 1). At
    a limit of 0 nothing is raised.

    With r the largest |x| over scale, the largest value v lies between r^q
    and terms * r^q. In lowest terms its numerator is at least v and, when
    v > 0, its denominator is at least 1 / v, so one of them certainly has
    more than `limit` digits when r^q >= 10^limit or terms * r^q <= 10^-limit.
    Both tests run on base-2 logarithms with a slack far above the error of
    math.log2, so no power is taken; q is capped at 10^300, which keeps the
    products finite and can only weaken a test.

    A value near 1 can still have a long denominator: where scale^q passes
    10^limit and every key's power sum is prime to scale (read off the sum
    of pow(|x|, q, scale)), each value is in lowest terms over scale^q.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or not keys or not keys[0]:
        return
    largest = max(max(map(max, keys)), -min(map(min, keys)))
    if not largest:
        return
    needed = limit * log2(10) + _LOG2_SLACK  # bits of 10^limit, and some
    gap = log2(largest) - log2(scale)
    power = float(min(q, 10 ** 300))
    if (power * (gap - _LOG2_SLACK) >= needed
            or power * (-gap - _LOG2_SLACK) - len(keys[0]).bit_length() >= needed):
        raise _digit_limit_error()
    if power * (log2(scale) - _LOG2_SLACK) >= needed and all(
            gcd(sum(pow(abs(x), q, scale) for x in key), scale) == 1 for key in keys):
        raise _digit_limit_error()


class Matrix:
    """Immutable dense matrix of exact rationals.

    Zero-row matrices are supported (the column count must then be given
    explicitly), because lifting a 0 x n matrix is well defined. The hash is
    computed on first use and kept, so a matrix that serves as a dict key
    again and again hashes its Fractions once.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_hash")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise DimensionError(f"ncols={ncols} but rows have {width} entries")
        else:
            if ncols is None:
                raise DimensionError("a zero-row matrix needs an explicit column count")
            width = ncols
        self.nrows = len(data)
        self.ncols = width
        self._rows = data
        self._hash: int | None = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [tuple(as_rational(x) for x in col) for col in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise DimensionError("ragged columns")
        else:
            if nrows is None:
                raise DimensionError("a zero-column matrix needs an explicit row count")
            height = nrows
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)], ncols=len(cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major entry tuple; also the canonical sort key among equal shapes."""
        return tuple(x for row in self._rows for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nrows, self.ncols, self._rows))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self._rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def integer_rows(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """The rows of rationals (Fraction or int) times their common denominator
    L, as integers, and L itself (1 when there are no entries)."""
    rows = [list(row) for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def integer_array(values, bound: int) -> np.ndarray:
    """values as an integer array: int64 when bound is at most 2^63 - 1,
    Python integers (dtype=object) otherwise.

    bound must bound the magnitude of every entry and of every intermediate
    the caller computes from the array, so int64 arithmetic never overflows.
    """
    return np.array(values, dtype=np.int64 if bound <= _INT64_MAX else object)


def fraction_free_elimination(rows: list[list[int]]) -> list[int]:
    """Eliminate an integer matrix in place by fraction-free elimination
    (Bareiss 1968) with row swaps; every division is exact.

    Returns the pivot columns, which are the columns that are not
    combinations of the columns before them; afterwards rows[i][pivots[i]]
    is nonzero. The entries below a pivot are not cleared.
    """
    height = len(rows)
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    previous = 1
    for c in range(width):
        r = len(pivots)
        if r == height:
            break
        if not rows[r][c]:
            swap = next((i for i in range(r + 1, height) if rows[i][c]), None)
            if swap is None:
                continue
            rows[r], rows[swap] = rows[swap], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for row in rows[r + 1:]:
            lead = row[c]
            for j in range(c + 1, width):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // previous
        previous = pivot
        pivots.append(c)
    return pivots
