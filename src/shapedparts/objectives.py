"""Convex objective oracles evaluated exactly at part-sum matrices.

Built-in kinds cover the standard instances (linear functionals, diagonal
power sums, column power sums, cut counting); arbitrary objectives run as an
external subprocess speaking a line-delimited protocol: one query line holding
the matrix as a JSON array of rows (entries are integers or "a/b" strings),
one reply line holding a single rational (integer, decimal string, or "a/b"
string). Replies are converted exactly; a missing or malformed reply raises
OracleError. An objective is a pure function of the queried matrix, so an
ExternalOracle keeps every reply and asks its subprocess once per distinct
matrix; a repeated matrix is answered from that record, but only while the
subprocess is still running. Convexity of external oracles is trusted, not
verified; a non-convex oracle voids the optimality guarantee.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, OracleError
from .linalg import Matrix, as_rational, format_rational

_STDERR_TAIL = 500  # characters of a dead oracle's stderr quoted in the error


class Objective:
    """Base class: a pure function of the queried matrix."""

    def evaluate(self, matrix: Matrix) -> Fraction:
        raise NotImplementedError

    def check_compatible(self, a: Matrix, p: int) -> None:
        """Raise DimensionError if this objective cannot be used with (a, p)."""

    def close(self) -> None:
        """Release resources; a no-op for built-in kinds."""


class LinearObjective(Objective):
    """Inner product with a fixed cost matrix: sum of C[i][j] * X[i][j]."""

    def __init__(self, cost: Matrix):
        self.cost = cost

    def evaluate(self, matrix: Matrix) -> Fraction:
        if matrix.shape != self.cost.shape:
            raise DimensionError(f"cost is {self.cost.shape}, matrix is {matrix.shape}")
        total = Fraction(0)
        for i in range(matrix.nrows):
            for j in range(matrix.ncols):
                total += self.cost.entry(i, j) * matrix.entry(i, j)
        return total

    def check_compatible(self, a: Matrix, p: int) -> None:
        if self.cost.shape != (a.nrows, p):
            raise DimensionError(
                f"linear cost must be {a.nrows}x{p}, got {self.cost.nrows}x{self.cost.ncols}"
            )


class DiagonalPowerObjective(Objective):
    """Sum over i of |X[i][i]| ** q for a square matrix; q is an integer >= 1."""

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 1:
            raise DimensionError(f"diagonal power needs an integer q >= 1, got {q!r}")
        self.q = q

    def evaluate(self, matrix: Matrix) -> Fraction:
        if matrix.nrows != matrix.ncols:
            raise DimensionError("diagonal power sum needs a square matrix (k = p)")
        return sum((abs(matrix.entry(i, i)) ** self.q for i in range(matrix.nrows)), Fraction(0))

    def check_compatible(self, a: Matrix, p: int) -> None:
        if a.nrows != p:
            raise DimensionError(f"diagonal power sum needs k = p, got k={a.nrows}, p={p}")


class ColumnPowerObjective(Objective):
    """Sum over all entries of |X[i][j]| ** q; q is a positive even integer."""

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2 or q % 2:
            raise DimensionError(f"column power needs a positive even integer q, got {q!r}")
        self.q = q

    def evaluate(self, matrix: Matrix) -> Fraction:
        return sum((x ** self.q for x in matrix.flatten()), Fraction(0))


class MaxCutObjective(Objective):
    """Number of edges cut by the first part, read off an indicator matrix.

    Requires the attribute matrix to be the n x n identity with p = 2, so the
    queried matrices have a 0/1 first column indicating part membership.
    """

    def __init__(self, edges: Sequence[Sequence[int]]):
        normalized = []
        seen = set()
        for edge in edges:
            u, v = (int(x) for x in edge)
            if u == v:
                raise DimensionError(f"loop edge {edge!r} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DimensionError(f"duplicate edge {edge!r}")
            seen.add(key)
            normalized.append(key)
        self.edges = tuple(normalized)

    def evaluate(self, matrix: Matrix) -> Fraction:
        indicator = matrix.column(0)
        if any(x != 0 and x != 1 for x in indicator):
            raise DimensionError("cut counting needs a 0/1 first column")
        cut = sum(1 for u, v in self.edges if indicator[u - 1] != indicator[v - 1])
        return Fraction(cut)

    def check_compatible(self, a: Matrix, p: int) -> None:
        if p != 2:
            raise DimensionError(f"cut objective needs p = 2, got p={p}")
        if a != Matrix.identity(a.ncols):
            raise DimensionError("cut objective needs the identity attribute matrix")
        for u, v in self.edges:
            if not (1 <= u <= a.ncols and 1 <= v <= a.ncols):
                raise DimensionError(f"edge ({u},{v}) outside [1, {a.ncols}]")


def encode_wire_scalar(value: Fraction):
    """An int for an integer, else its "a/b" string.

    Raises ProblemError past the integer-string digit limit, as
    format_rational does.
    """
    text = format_rational(value)
    return value.numerator if value.denominator == 1 else text


def parse_wire_scalar(text: str) -> Fraction:
    """Parse one reply line: a JSON scalar, or a bare rational literal."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty reply")
    try:
        decoded = json.loads(stripped, parse_float=str)
    except json.JSONDecodeError:
        decoded = stripped
    if isinstance(decoded, bool) or not isinstance(decoded, (int, str)):
        raise ValueError(f"reply is not a rational scalar: {text!r}")
    return as_rational(decoded)


class ExternalOracle(Objective):
    """Objective values supplied by a subprocess, one query per distinct matrix."""

    def __init__(self, command: Sequence[str]):
        if not command:
            raise DimensionError("external oracle needs a non-empty command line")
        self.command = tuple(str(c) for c in command)
        self._process: subprocess.Popen | None = None
        self._stderr = None
        self._replies: dict[tuple, Fraction] = {}  # queried matrix rows -> reply

    def _ensure_process(self) -> subprocess.Popen:
        """The oracle process, started on first use and never restarted.

        An oracle that exits between queries fails the next query instead of
        being replaced, so a query's outcome cannot depend on when it exited.
        A repeated matrix sends no query: it fails only if the exit has
        already been seen, so an oracle must serve until its stdin closes.
        """
        if self._process is not None:
            if self._process.poll() is not None:
                raise OracleError(
                    f"oracle {self.command} exited before the next query{self._death_note()}"
                )
            return self._process
        # A file, not a pipe: nothing reads the oracle's stderr while it
        # runs, so a full pipe buffer would block the oracle mid-reply.
        self._stderr = tempfile.TemporaryFile()
        try:
            self._process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
            )
        except OSError as exc:
            self._close_stderr()
            raise OracleError(f"cannot start oracle {self.command}: {exc}") from exc
        return self._process

    def evaluate(self, matrix: Matrix) -> Fraction:
        process = self._ensure_process()
        known = self._replies.get(matrix.rows())
        if known is not None:
            return known
        query = json.dumps(
            [[encode_wire_scalar(x) for x in row] for row in matrix.rows()],
            separators=(",", ":"),
        )
        try:
            process.stdin.write(query + "\n")
            process.stdin.flush()
            reply = process.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise OracleError(f"oracle {self.command} pipe failed: {exc}") from exc
        if not reply:
            detail = self._death_note()
            raise OracleError(f"oracle {self.command} gave no reply{detail}")
        try:
            value = parse_wire_scalar(reply)
        except ValueError as exc:
            raise OracleError(f"oracle {self.command} replied with garbage: {reply!r}") from exc
        self._replies[matrix.rows()] = value
        return value

    def _death_note(self) -> str:
        if self._process is None:
            return ""
        try:
            # The oracle has exited or closed stdout, so it is exiting; let it finish.
            code = self._process.wait(timeout=1)
        except subprocess.TimeoutExpired:
            return ""
        stderr = ""
        try:
            size = self._stderr.seek(0, os.SEEK_END)
            # 4 bytes per character covers any UTF-8 text of _STDERR_TAIL chars.
            self._stderr.seek(max(0, size - 4 * _STDERR_TAIL))
            stderr = self._stderr.read().decode("utf-8", errors="replace")
        except (ValueError, OSError):
            pass
        note = f" (exited with code {code}"
        if stderr.strip():
            note += f", stderr: {stderr.strip()[-_STDERR_TAIL:]}"
        return note + ")"

    def _close_stderr(self) -> None:
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def close(self) -> None:
        if self._process is not None:
            try:
                if self._process.stdin:
                    self._process.stdin.close()
                self._process.terminate()
                self._process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self._process.kill()
            self._process = None
        self._close_stderr()

    def __enter__(self) -> "ExternalOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
