"""Output checks applied to every command of every run, outside the timed region.

They read only the report a command wrote and the instance the benchmark
generated; exact arithmetic uses `fractions.Fraction`, not the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def _matrix(raw) -> list[list[Fraction]]:
    return [[Fraction(str(x)) for x in row] for row in raw]


def _part_sums(a: list[list[Fraction]], blocks) -> list[list[Fraction]]:
    """The k x p matrix whose column j sums the columns of `a` in block j (1-based)."""
    return [[sum((row[i - 1] for i in block), Fraction(0)) for block in blocks] for row in a]


def _check_shape(report: dict, a: list[list[Fraction]], p: int) -> str | None:
    if (report.get("k"), report.get("n"), report.get("p")) != (len(a), len(a[0]), p):
        return f"report is for k, n, p = {report.get('k')}, {report.get('n')}, {report.get('p')}"
    return None


def check_vertices(report: dict, a: list[list[Fraction]], p: int) -> str | None:
    """Every witness partition sums back to its vertex, and the count matches."""
    problem = _check_shape(report, a, p)
    if problem:
        return problem
    vertices = report.get("vertices", [])
    if report["counts"]["vertices"] != len(vertices) or not vertices:
        return "vertex count disagrees with the vertex list"
    n = len(a[0])
    for index, vertex in enumerate(vertices):
        matrix = _matrix(vertex["matrix"])
        witnesses = vertex.get("partitions")
        if not witnesses:
            return f"vertex {index} has no witness partition"
        for blocks in witnesses:
            if len(blocks) != p or sorted(i for b in blocks for i in b) != list(range(1, n + 1)):
                return f"vertex {index}: witness {blocks} is not a {p}-partition of 1..{n}"
            if _part_sums(a, blocks) != matrix:
                return f"vertex {index}: witness {blocks} does not sum to the vertex"
    return None


def check_solve(report: dict, a: list[list[Fraction]], p: int,
                best: Fraction | None) -> str | None:
    """The optimum is the sum of squares of its re-summed matrix, and equals `best` if known."""
    problem = _check_shape(report, a, p)
    if problem:
        return problem
    matrix = _part_sums(a, report["best_partition"])
    if matrix != _matrix(report["best_matrix"]):
        return "best_partition does not sum to best_matrix"
    value = Fraction(report["best_value"])
    if value != sum((x * x for row in matrix for x in row), Fraction(0)):
        return "best_value is not the sum of squares of best_matrix"
    if best is not None and value != best:
        return f"best_value {value} differs from the brute-force optimum {best}"
    return None


def check_check(report: dict) -> str | None:
    if report.get("status") != "ok" or report.get("instances") != 1:
        return f"check reported status {report.get('status')!r}"
    return None


def check_output(command: str, data: bytes, a, p: int, best: Fraction | None,
                 digest: str | None) -> str | None:
    """None if the report bytes of one command are right, else what is wrong."""
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        return "report bytes differ from the recorded SHA-256"
    try:
        report = json.loads(data)
        if command == "vertices":
            return check_vertices(report, a, p)
        if command == "solve":
            return check_solve(report, a, p, best)
        return check_check(report)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
