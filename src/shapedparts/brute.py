"""Brute-force ground truth at tiny scale.

Every assignment of the n elements to the p parts is tried, in lexicographic
order of the assignment vectors, as one chunked walk over integer arrays: a
chunk is an (N, n) digit array and its (N, p, n) 0/1 block array, the shapes
are the block array's row sums, and the family is asked once per distinct
shape. The part sums are one integer matrix product per chunk, over the
attribute matrix times the common denominator of its entries, and each
distinct part-sum matrix is kept as its row-major integer key.

The walk uses none of the generic-enumeration machinery (no perturbation, no
separating hyperplanes, no assembly) and none of the admissible stage of
`polytope`. What it shares with the fast path is the integer conversion of
`linalg` (`integer_rows`, `integer_array`) and the exact convex-position test
of `hull`, which takes the keys as they are.

Hard guards keep accidental exponential runs from happening; pass force=True
to override them. Either way a chunk holds at most _CHUNK_ELEMENTS block
entries (or a single assignment, when p * n exceeds that), so the walk needs
little memory beyond the distinct part-sum matrices it keeps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice, product
from typing import Iterator

import numpy as np

from .errors import CapacityError, DimensionError
from .hull import extreme_point_indices
from .linalg import Matrix, integer_array, integer_rows
from .objectives import Objective
from .partitions import Partition, ShapeFamily

MAX_BRUTE_N = 9
MAX_BRUTE_P = 4

# block-array entries per chunk of assignments
_CHUNK_ELEMENTS = 1 << 12


def _check_guard(n: int, p: int, force: bool) -> None:
    if force:
        return
    if n > MAX_BRUTE_N:
        raise CapacityError("brute-force-n", MAX_BRUTE_N, n)
    if p > MAX_BRUTE_P:
        raise CapacityError("brute-force-p", MAX_BRUTE_P, p)


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
    low = np.array(list(product(range(p), repeat=m)), dtype=np.int64).reshape(p ** m, m)
    prefixes = product(range(p), repeat=n - m)
    while batch := list(islice(prefixes, step // len(low))):
        digits = np.empty((len(batch), len(low), n), dtype=np.int64)
        digits[:, :, :n - m] = np.array(batch, dtype=np.int64).reshape(len(batch), 1, n - m)
        digits[:, :, n - m:] = low
        yield digits.reshape(len(batch) * len(low), n)


def _admissible_blocks(n: int, p: int, family: ShapeFamily, force: bool) -> Iterator[np.ndarray]:
    """The assignments with an admissible shape, in lexicographic order, as
    chunks of (N, p, n) 0/1 block arrays; the family is asked once per
    distinct shape."""
    _check_guard(n, p, force)
    verdicts: dict[tuple[int, ...], bool] = {}
    parts = np.arange(p)[:, None]
    for digits in _assignment_chunks(n, p):
        blocks = (digits[:, None, :] == parts).view(np.uint8)
        admitted = []
        for shape in map(tuple, blocks.sum(axis=2).tolist()):
            if shape not in verdicts:
                verdicts[shape] = family.contains(shape)
            admitted.append(verdicts[shape])
        yield blocks[np.array(admitted, dtype=bool)]


def enumerate_all_partitions(
    n: int, p: int, family: ShapeFamily, force: bool = False
) -> Iterator[Partition]:
    """Every ordered p-partition of [n] with an admissible shape, exactly once.

    Deterministic order: partitions appear by their assignment vector (the
    part index of each element) in lexicographic order.
    """
    elements = range(1, n + 1)
    for blocks in _admissible_blocks(n, p, family, force):
        for rows in blocks.tolist():
            yield Partition(tuple(tuple(compress(elements, row)) for row in rows), n)


def _part_sum_keys(
    a: Matrix, p: int, family: ShapeFamily, force: bool
) -> tuple[list[tuple[int, ...]], int]:
    """The distinct part-sum matrices of the admissible partitions, each in
    row-major order times the common denominator L of a's entries, sorted;
    and L. A positive L keeps the order, so the keys sort as the matrices."""
    k, n = a.nrows, a.ncols
    integral, scale = integer_rows(a.rows())
    bound = max((sum(map(abs, row)) for row in integral), default=0)
    scaled = integer_array(integral, bound).reshape(k, n)
    found: set[tuple[int, ...]] = set()
    for blocks in _admissible_blocks(n, p, family, force):
        sums = scaled @ blocks.astype(scaled.dtype).transpose(0, 2, 1)  # (N, k, p)
        found.update(map(tuple, sums.reshape(len(sums), k * p).tolist()))
    return sorted(found), scale


def _key_matrix(key: tuple[int, ...], scale: int, p: int) -> Matrix:
    return Matrix([[Fraction(x, scale) for x in key[r:r + p]] for r in range(0, len(key), p)],
                  ncols=p)


def brute_vertices(
    a: Matrix, p: int, family: ShapeFamily, force: bool = False
) -> list[Matrix]:
    """Vertices of the hull of all admissible part-sum matrices, in canonical order."""
    keys, scale = _part_sum_keys(a, p, family, force)
    return [_key_matrix(keys[i], scale, p) for i in extreme_point_indices(keys, scale)]


def brute_solve(
    a: Matrix, p: int, family: ShapeFamily, objective: Objective, force: bool = False
) -> Fraction:
    """Exact maximum of the objective over all admissible partitions.

    The objective is a pure function of the part-sum matrix, so it is
    evaluated once per distinct matrix."""
    keys, scale = _part_sum_keys(a, p, family, force)
    if not keys:
        raise DimensionError("shape family admits no partition")
    return max(objective.evaluate(_key_matrix(key, scale, p)) for key in keys)
