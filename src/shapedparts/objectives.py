"""Convex objective oracles evaluated exactly at part-sum matrices.

An objective is a pure function of the queried matrix. `evaluate` gives its
value at one Matrix; `evaluate_keys` gives its values at the part-sum
matrices of a sequence of integer keys, in order. A key is the format of
`partitions.PartSums`: a matrix with p columns, its entries in row-major order
times a positive scale. `solve` and `brute_solve` evaluate through
`evaluate_keys` only.

The built-in kinds cover the standard instances (linear functionals, diagonal
power sums, column power sums, cut counting). Each computes the value at a
key by Python integer arithmetic on the key's entries, which cannot
overflow, and divides once, into one Fraction per key; its `evaluate` is the
one-key case, with the key and scale of `linalg.integer_rows`. The tests
hold these against the Fraction definitions.

Every other objective, a user subclass or an external oracle, needs only
`evaluate`: the base class builds the Matrix of each distinct key once and
calls `evaluate` once per key, in the given order. Arbitrary objectives run
as an external subprocess speaking a line-delimited protocol: one query line
holding the matrix as a JSON array of rows (entries are integers or "a/b"
strings), one reply line holding a single rational (integer, decimal string,
or "a/b" string). Replies are converted exactly; a missing or malformed reply
raises OracleError. An ExternalOracle keeps every reply and asks its
subprocess once per distinct matrix; a repeated matrix is answered from that
record, whether or not the subprocess still runs. Its `evaluate_keys` sends
the new matrices of a batch of keys in first-occurrence order, as many query
lines per write as fit in `select.PIPE_BUF` bytes, and reads their replies
before the next write; then it calls `evaluate` once per key, as the default
does. The record is keyed by the Matrix, whose hash is kept, so the Matrix
that `evaluate_keys` builds once per distinct key is hashed once however
often its key repeats. Convexity of external oracles is trusted, not
verified; a non-convex oracle voids the optimality guarantee.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import tempfile
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionError, OracleError, ProblemError
from .linalg import Matrix, as_integer, as_rational, format_rational, integer_rows
from .partitions import _key_matrix

_STDERR_TAIL = 500  # characters of a dead oracle's stderr quoted in the error

Key = tuple[int, ...]


class Objective:
    """Base class: a pure function of the queried matrix."""

    def evaluate(self, matrix: Matrix) -> Fraction:
        raise NotImplementedError

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        """The values at the part-sum matrices of keys, in order.

        This default builds the Matrix of each distinct key once and calls
        evaluate once per key, in the given order.
        """
        matrices = _key_matrices(keys, scale, p)
        return [self.evaluate(matrices[key]) for key in keys]

    def check_compatible(self, a: Matrix, p: int) -> None:
        """Raise DimensionError if this objective cannot be used with (a, p)."""

    def close(self) -> None:
        """Release resources; a no-op for built-in kinds."""


def _key_matrices(keys: Sequence[Key], scale: int, p: int) -> dict[Key, Matrix]:
    """The Matrix of each distinct key, built once, in first-occurrence order."""
    matrices: dict[Key, Matrix] = {}
    for key in keys:
        if key not in matrices:
            matrices[key] = _key_matrix(key, scale, p)
    return matrices


class _IntegerObjective(Objective):
    """A built-in kind: evaluate_keys computes on the keys as Python
    integers, which cannot overflow, and evaluate is its one-key case."""

    def evaluate(self, matrix: Matrix) -> Fraction:
        integral, scale = integer_rows(matrix.rows())
        key = tuple(x for row in integral for x in row)
        return self.evaluate_keys([key], scale, matrix.ncols)[0]


def _exponent(q) -> int:
    """q as an int, or 0, which no power objective admits, if q is not an integer."""
    try:
        return as_integer(q)
    except ValueError:
        return 0


class LinearObjective(_IntegerObjective):
    """Inner product with a fixed cost matrix: sum of C[i][j] * X[i][j].

    The cost is held as integers times its common denominator, so a key's
    value is one integer dot product over scale times that denominator.
    """

    def __init__(self, cost: Matrix):
        self.cost = cost
        weights, self._denominator = integer_rows(cost.rows())
        self._weights = [w for row in weights for w in row]

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        weights = self._weights
        if keys and (p != self.cost.ncols or len(keys[0]) != len(weights)):
            raise DimensionError(
                f"cost is {self.cost.nrows}x{self.cost.ncols}, "
                f"matrix has {len(keys[0])} entries in rows of {p}"
            )
        denominator = scale * self._denominator
        return [Fraction(sum(map(mul, weights, key)), denominator) for key in keys]

    def check_compatible(self, a: Matrix, p: int) -> None:
        if self.cost.shape != (a.nrows, p):
            raise DimensionError(
                f"linear cost must be {a.nrows}x{p}, got {self.cost.nrows}x{self.cost.ncols}"
            )


class DiagonalPowerObjective(_IntegerObjective):
    """Sum over i of |X[i][i]| ** q for a square matrix; q is an integer >= 1."""

    def __init__(self, q: int):
        self.q = _exponent(q)
        if self.q < 1:
            raise DimensionError(f"diagonal power needs an integer q >= 1, got {q!r}")

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        if keys and len(keys[0]) != p * p:
            raise DimensionError("diagonal power sum needs a square matrix (k = p)")
        q = self.q
        denominator = scale ** q
        return [Fraction(sum(abs(x) ** q for x in key[::p + 1]), denominator) for key in keys]

    def check_compatible(self, a: Matrix, p: int) -> None:
        if a.nrows != p:
            raise DimensionError(f"diagonal power sum needs k = p, got k={a.nrows}, p={p}")


class ColumnPowerObjective(_IntegerObjective):
    """Sum over all entries of |X[i][j]| ** q; q is a positive even integer."""

    def __init__(self, q: int):
        self.q = _exponent(q)
        if self.q < 2 or self.q % 2:
            raise DimensionError(f"column power needs a positive even integer q, got {q!r}")

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        q = self.q
        denominator = scale ** q
        return [Fraction(sum(x ** q for x in key), denominator) for key in keys]


class MaxCutObjective(_IntegerObjective):
    """Number of edges cut by the first part, read off an indicator matrix.

    Requires the attribute matrix to be the n x n identity with p = 2, so the
    queried matrices have a 0/1 first column indicating part membership: each
    first-column key entry is 0 or scale.
    """

    def __init__(self, edges: Sequence[Sequence[int]]):
        normalized = []
        seen = set()
        for edge in edges:
            u, v = (as_integer(x) for x in edge)
            if u == v:
                raise DimensionError(f"loop edge {edge!r} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DimensionError(f"duplicate edge {edge!r}")
            seen.add(key)
            normalized.append(key)
        self.edges = tuple(normalized)

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        ends = [(u - 1, v - 1) for u, v in self.edges]
        indicator = {0, scale}
        values = []
        for key in keys:
            column = key[::p]
            if not indicator.issuperset(column):
                raise DimensionError("cut counting needs a 0/1 first column")
            values.append(Fraction(sum([column[u] != column[v] for u, v in ends])))
        return values

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
    except RecursionError as exc:
        raise ValueError("reply nests past the JSON decoder's depth limit") from exc
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
        self._replies: dict[Matrix, Fraction] = {}  # queried matrix -> reply

    def _ensure_process(self) -> subprocess.Popen:
        """The oracle process, started on first use and never restarted.

        It is asked for before each batch of new queries only. An oracle
        that exits between batches fails the next batch instead of being
        replaced, and a matrix already answered is answered from the record
        whenever the oracle exits.
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
        except (OSError, ValueError) as exc:  # ValueError: a NUL or an unencodable argument
            self._close_stderr()
            raise OracleError(f"cannot start oracle {self.command}: {exc}") from exc
        return self._process

    def evaluate(self, matrix: Matrix) -> Fraction:
        known = self._replies.get(matrix)
        if known is None:
            self._ask([matrix])
            known = self._replies[matrix]
        return known

    def evaluate_keys(self, keys: Sequence[Key], scale: int, p: int) -> list[Fraction]:
        """The values at the part-sum matrices of keys, in order.

        The matrices not yet answered are asked in batches first, in the
        order they first occur; then evaluate is called once per key, as the
        default does, and answers from the record.
        """
        matrices = _key_matrices(keys, scale, p)
        self._ask([m for m in matrices.values() if m not in self._replies])
        return [self.evaluate(matrices[key]) for key in keys]

    def _ask(self, matrices: Sequence[Matrix]) -> None:
        """Record the oracle's replies to matrices, which it has not answered.

        The query lines go in batches: as many whole lines as fit in
        PIPE_BUF bytes, a longer line alone. Each batch is one write, and its
        replies are all read before the next batch is written. By then the
        oracle has read every earlier line, so the pipe is empty and a write
        of at most PIPE_BUF bytes completes at once, however much the oracle
        writes back; the oracle reads exactly the lines that one query per
        matrix would send, in the same order.
        """
        batch: list[tuple[Matrix, str]] = []
        size = 0
        for matrix in matrices:
            try:
                line = json.dumps(
                    [[encode_wire_scalar(x) for x in row] for row in matrix.rows()],
                    separators=(",", ":"),
                ) + "\n"
            except ProblemError:
                # the matrices before it are asked, as one query at a time would
                self._exchange(batch)
                raise
            # ASCII, so its length is its size in bytes
            if batch and size + len(line) > select.PIPE_BUF:
                self._exchange(batch)
                batch, size = [], 0
            batch.append((matrix, line))
            size += len(line)
        self._exchange(batch)

    def _exchange(self, batch: Sequence[tuple[Matrix, str]]) -> None:
        """Write the query lines of batch at once, then record their replies in order."""
        if not batch:
            return
        process = self._ensure_process()
        try:
            process.stdin.write("".join(line for _, line in batch))
            process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise OracleError(f"oracle {self.command} pipe failed: {exc}") from exc
        for matrix, _ in batch:
            try:
                reply = process.stdout.readline()
            except OSError as exc:
                raise OracleError(f"oracle {self.command} pipe failed: {exc}") from exc
            if not reply:
                detail = self._death_note()
                raise OracleError(f"oracle {self.command} gave no reply{detail}")
            try:
                value = parse_wire_scalar(reply)
            except ValueError as exc:
                raise OracleError(f"oracle {self.command} replied with garbage: {reply!r}") from exc
            self._replies[matrix] = value

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
                self._process.wait()  # SIGKILL cannot be ignored; reap the process
            self._process.stdout.close()
            self._process = None
        self._close_stderr()

    def __enter__(self) -> "ExternalOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
