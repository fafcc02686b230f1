"""Brute-force ground truth at tiny scale.

Partitions are enumerated exhaustively as assignment vectors, with no use of
the generic-enumeration machinery; the only nontrivial code shared with the
fast path is the exact convex-position test, fed through `integer_rows`.
Hard guards keep accidental exponential runs from happening; pass force=True
to override them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator

from .errors import CapacityError, DimensionError
from .hull import extreme_point_indices
from .linalg import Matrix, integer_rows
from .objectives import Objective
from .partitions import Partition, ShapeFamily, partition_matrix

MAX_BRUTE_N = 9
MAX_BRUTE_P = 4


def _check_guard(n: int, p: int, force: bool) -> None:
    if force:
        return
    if n > MAX_BRUTE_N:
        raise CapacityError("brute-force-n", MAX_BRUTE_N, n)
    if p > MAX_BRUTE_P:
        raise CapacityError("brute-force-p", MAX_BRUTE_P, p)


def enumerate_all_partitions(
    n: int, p: int, family: ShapeFamily, force: bool = False
) -> Iterator[Partition]:
    """Every ordered p-partition of [n] with an admissible shape, exactly once.

    Deterministic order: partitions appear by their assignment vector (the
    part index of each element) in lexicographic order.
    """
    _check_guard(n, p, force)
    for assignment in product(range(p), repeat=n):
        shape = [0] * p
        for part in assignment:
            shape[part] += 1
        if not family.contains(tuple(shape)):
            continue
        blocks: list[list[int]] = [[] for _ in range(p)]
        for element, part in enumerate(assignment, start=1):
            blocks[part].append(element)
        yield Partition(tuple(tuple(b) for b in blocks), n)


def brute_vertices(
    a: Matrix, p: int, family: ShapeFamily, force: bool = False
) -> list[Matrix]:
    """Vertices of the hull of all admissible part-sum matrices, in canonical order."""
    unique: dict[tuple, Matrix] = {}
    for pi in enumerate_all_partitions(a.ncols, p, family, force):
        matrix = partition_matrix(a, pi)
        unique.setdefault(matrix.flatten(), matrix)
    ordered = [unique[key] for key in sorted(unique)]
    keep = extreme_point_indices(*integer_rows(m.flatten() for m in ordered))
    return [ordered[i] for i in keep]


def brute_solve(
    a: Matrix, p: int, family: ShapeFamily, objective: Objective, force: bool = False
) -> Fraction:
    """Exact maximum of the objective over all admissible partitions."""
    best: Fraction | None = None
    for pi in enumerate_all_partitions(a.ncols, p, family, force):
        value = objective.evaluate(partition_matrix(a, pi))
        if best is None or value > best:
            best = value
    if best is None:
        raise DimensionError("shape family admits no partition")
    return best
