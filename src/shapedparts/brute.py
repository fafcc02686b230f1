"""Brute-force ground truth at tiny scale.

Every assignment of the n elements to the p parts is tried, in lexicographic
order of the assignment vectors, as one chunked walk over integer arrays: a
chunk is an (N, n) digit array and its (N, p, n) 0/1 block array, which
`ShapeFamily.admitted` filters with one verdict dict for the whole walk, so
the family is asked once per distinct shape. Each distinct part-sum matrix
is kept as its integer key of `partitions.PartSums`. `brute_vertices`
returns the vertex keys in a `BruteVertices` report, which builds their
Matrix objects on first read, so `check` compares keys with the fast path's
(both made by `PartSums(a, p)`) and builds matrices only for a mismatch.

The walk uses none of the generic-enumeration machinery (no perturbation, no
separating hyperplanes, no assembly) and none of the admissible stage of
`polytope`. It shares with the fast path what `partitions` owns (shape
admission through `ShapeFamily`, the part-sum keys of `PartSums`, the block
arrays of `blocks_from_labels` and `partitions_from_blocks`, and their chunk
budget), the exact convex-position test of `hull` and the objective's
`evaluate_keys`, both of which take the keys as they are.

Hard guards keep accidental exponential runs from happening; pass force=True
to override them. Either way a chunk holds at most _CHUNK_ELEMENTS block
entries (or a single assignment, when p * n exceeds that), so the walk needs
little memory beyond the distinct part-sum matrices it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice, product
from typing import Iterator

import numpy as np

from .errors import CapacityError, DimensionError
from .hull import extreme_point_indices
from .linalg import Matrix
from .objectives import Objective
from .partitions import (_CHUNK_ELEMENTS, Partition, PartSums, ShapeFamily, blocks_from_labels,
                         partitions_from_blocks)

MAX_BRUTE_N = 9
MAX_BRUTE_P = 4


def _check_guard(n: int, p: int, force: bool) -> None:
    if force:
        return
    if n > MAX_BRUTE_N:
        raise CapacityError("brute-force-n", MAX_BRUTE_N, n)
    if p > MAX_BRUTE_P:
        raise CapacityError("brute-force-p", MAX_BRUTE_P, p)


@cache
def _low_digits(p: int, m: int) -> np.ndarray:
    """The p^m assignments of m elements to p parts, in lexicographic order,
    as a read-only (p^m, m) digit array, built once per (p, m).
    _assignment_chunks keeps m * p^m within _CHUNK_ELEMENTS // p, so for
    p >= 2, m is at most 11 and a table at most 256 KB; at p = 1 it is one
    row of zeros."""
    low = np.array(list(product(range(p), repeat=m)), dtype=np.int64).reshape(p ** m, m)
    low.flags.writeable = False
    return low


def _assignment_chunks(n: int, p: int) -> Iterator[np.ndarray]:
    """Every assignment of n elements to p parts, in lexicographic order, as
    (N, n) digit arrays of at most _CHUNK_ELEMENTS // (p * n) rows.

    The last m elements take all p^m values within a chunk, and a chunk
    runs through consecutive values of the first n - m; the prefixes are
    Python tuples, so no assignment number has to fit a machine word.
    """
    step = max(1, _CHUNK_ELEMENTS // max(1, p * n))
    m = 0
    while m < n and p ** (m + 1) <= step:
        m += 1
    low = _low_digits(p, m)
    prefixes = product(range(p), repeat=n - m)
    while batch := list(islice(prefixes, step // len(low))):
        digits = np.empty((len(batch), len(low), n), dtype=np.int64)
        digits[:, :, :n - m] = np.array(batch, dtype=np.int64).reshape(len(batch), 1, n - m)
        digits[:, :, n - m:] = low
        yield digits.reshape(len(batch) * len(low), n)


def _admissible_blocks(n: int, p: int, family: ShapeFamily, force: bool) -> Iterator[np.ndarray]:
    """The assignments with an admissible shape, in lexicographic order, as
    chunks of (N, p, n) 0/1 block arrays; the family is asked once per
    distinct shape. The guard is checked before the family."""
    _check_guard(n, p, force)
    family.check(n, p)
    verdicts: dict[bytes, bool] = {}
    for digits in _assignment_chunks(n, p):
        blocks = blocks_from_labels(digits, p)
        yield blocks[family.admitted(blocks, verdicts)]


def enumerate_all_partitions(
    n: int, p: int, family: ShapeFamily, force: bool = False
) -> Iterator[Partition]:
    """Every ordered p-partition of [n] with an admissible shape, exactly once.

    Deterministic order: partitions appear by their assignment vector (the
    part index of each element) in lexicographic order.
    """
    for blocks in _admissible_blocks(n, p, family, force):
        yield from partitions_from_blocks(blocks)


def _part_sum_keys(
    a: Matrix, p: int, family: ShapeFamily, force: bool
) -> tuple[list[tuple[int, ...]], PartSums]:
    """The distinct part-sum keys of the admissible partitions, sorted, and
    the PartSums that made them."""
    sums = PartSums(a, p)
    found: set[tuple[int, ...]] = set()
    for blocks in _admissible_blocks(a.ncols, p, family, force):
        found.update(sums.keys(blocks))
    return sorted(found), sums


@dataclass(frozen=True, eq=False)
class BruteVertices:
    """The vertices that `brute_vertices` found, as their part-sum keys under
    `sums`, in canonical order; len() counts them. `vertices`, their Matrix
    objects, are built on first read."""

    keys: list[tuple[int, ...]]
    sums: PartSums

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def vertices(self) -> tuple[Matrix, ...]:
        return tuple(map(self.sums.matrix, self.keys))


def brute_vertices(
    a: Matrix, p: int, family: ShapeFamily, force: bool = False
) -> BruteVertices:
    """Vertices of the hull of all admissible part-sum matrices, in canonical
    order, as keys of `PartSums(a, p)`."""
    keys, sums = _part_sum_keys(a, p, family, force)
    return BruteVertices([keys[i] for i in extreme_point_indices(keys, sums.scale, p)], sums)


def brute_solve(
    a: Matrix, p: int, family: ShapeFamily, objective: Objective, force: bool = False
) -> Fraction:
    """Exact maximum of the objective over all admissible partitions.

    The objective is a pure function of the part-sum matrix, so it is
    evaluated once per distinct matrix, through one `evaluate_keys` call on
    the sorted distinct keys. The objective is checked against (a, p) before
    the walk, as `solve` checks it."""
    objective.check_compatible(a, p)
    keys, sums = _part_sum_keys(a, p, family, force)
    if not keys:
        raise DimensionError("shape family admits no partition")
    return max(objective.evaluate_keys(keys, sums.scale, p))
