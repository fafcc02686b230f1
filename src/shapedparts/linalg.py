"""Exact rational scalars and matrices.

Every scalar is a ``fractions.Fraction``: arbitrary precision, always stored
reduced with a positive denominator, so arithmetic and comparisons are exact.
Problem entries, part-sum matrices and objective values are all exact
rationals, which is why there is no floating-point mode. The generic-sign
kernel in ``generic.py`` and the hull test in ``hull.py`` work in integers of
their own.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, ProblemError

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


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


def format_rational(value: Fraction) -> str:
    """Canonical text form: "6" for integers, reduced "a/b" otherwise.

    Raises ProblemError when the numerator or denominator has more digits than
    Python's integer-string limit (``sys.get_int_max_str_digits()``) allows.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise ProblemError(
            f"a reported value has more than {sys.get_int_max_str_digits()} digits, "
            "the integer-string limit"
        ) from exc


class Matrix:
    """Immutable dense matrix of exact rationals.

    Zero-row matrices are supported (the column count must then be given
    explicitly), because lifting a 0 x n matrix is well defined.
    """

    __slots__ = ("nrows", "ncols", "_rows")

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

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.ncols)]

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
        return hash((self.nrows, self.ncols, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self._rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

