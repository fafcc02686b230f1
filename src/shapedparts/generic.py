"""Moment-curve perturbation and enumeration of generic partitions.

The perturbation is symbolic: column i of a d x n base matrix is read as
``base^i + eps * (i, i^2, ..., i^d)`` for an infinitesimal eps > 0, but eps is
never instantiated. Every decision reduces to the sign of a determinant
polynomial in eps, which equals the sign of its first nonzero coefficient.
Coefficients are recovered exactly by evaluating the determinant at the
integer nodes eps = 0, 1, ..., d and solving the (always nonsingular)
Vandermonde system, so no tolerance is ever tuned.

Two-partitions come from separator triples: a sorted d-subset I spans an
oriented hyperplane of the perturbed configuration, splitting the remaining
columns by sign, and each two-sided split of I itself yields two associated
ordered 2-partitions. p-partitions are assembled from one 2-partition per
part pair, intersecting candidate blocks and keeping the assemblies whose
blocks cover the ground set; the pairs are applied level by level and each
distinct partial assembly is expanded once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .errors import CapacityError, DimensionError
from .linalg import Matrix, determinant, solve_vandermonde
from .partitions import Partition, ordered_partition


@dataclass(frozen=True)
class EnumerationLimits:
    """Caps that abort enumeration with a CapacityError instead of running unbounded."""

    max_two_partitions: int = 100_000
    max_assembly_nodes: int = 5_000_000
    max_candidates: int = 100_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise DimensionError(f"limit {name} must be nonnegative, got {value}")


DEFAULT_LIMITS = EnumerationLimits()


@dataclass(frozen=True)
class GenericPartitionSet:
    """Deduplicated set of generic partitions, sorted by blocks."""

    partitions: tuple[Partition, ...]
    d: int
    n: int
    p: int

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __contains__(self, pi: Partition) -> bool:
        at = bisect_left(self.partitions, pi.blocks, key=lambda q: q.blocks)
        return at < len(self.partitions) and self.partitions[at] == pi


class PerturbedMatrix:
    """A base matrix accessed only through generic-sign queries.

    The moment-curve dimension always equals the base row count, so a lifted
    matrix is perturbed in lifted space.
    """

    def __init__(self, base: Matrix):
        if base.nrows < 1:
            raise DimensionError("perturbation needs at least one row")
        self.base = base
        self.d = base.nrows
        self.n = base.ncols
        self._node_columns: dict[int, list[tuple[Fraction, ...]]] = {}

    def _columns_at_node(self, node: int) -> list[tuple[Fraction, ...]]:
        """Lifted perturbed columns (prepended 1) evaluated at eps = node."""
        cached = self._node_columns.get(node)
        if cached is not None:
            return cached
        cols = []
        for i in range(1, self.n + 1):
            moment = 1
            col = [Fraction(1)]
            for r in range(self.d):
                moment *= i
                col.append(self.base.entry(r, i - 1) + node * moment)
            cols.append(tuple(col))
        self._node_columns[node] = cols
        return cols


def generic_orientation(perturbed: PerturbedMatrix, column_indices: Sequence[int]) -> int:
    """Sign, for all sufficiently small eps > 0, of the lifted determinant
    whose columns are the perturbed columns listed (in the given order).

    The determinant is a polynomial of degree d in eps whose leading
    coefficient is a Vandermonde determinant at the distinct listed indices,
    hence nonzero; an all-zero coefficient vector is therefore impossible and
    raises AssertionError.
    """
    d, n = perturbed.d, perturbed.n
    cols = tuple(column_indices)
    if len(cols) != d + 1:
        raise DimensionError(f"need {d + 1} column indices, got {len(cols)}")
    if len(set(cols)) != len(cols):
        raise DimensionError(f"column indices must be distinct: {cols}")
    if any(not (1 <= c <= n) for c in cols):
        raise DimensionError(f"column index outside [1, {n}]: {cols}")
    values = []
    for node in range(d + 1):
        at_node = perturbed._columns_at_node(node)
        values.append(determinant(Matrix.from_columns([at_node[c - 1] for c in cols])))
    coefficients = solve_vandermonde(values)
    for c in coefficients:
        if c > 0:
            return 1
        if c < 0:
            return -1
    raise AssertionError(
        f"determinant polynomial vanished identically for columns {cols}; "
        "the Vandermonde leading coefficient makes this impossible"
    )


def generic_sign(perturbed: PerturbedMatrix, subset: Sequence[int], i: int) -> int:
    """Side of column i relative to the oriented hyperplane spanned by subset.

    subset is taken in increasing order (the fixed orientation convention);
    i must not belong to it.
    """
    ordered = tuple(sorted(subset))
    if len(ordered) != perturbed.d:
        raise DimensionError(f"subset must have {perturbed.d} indices, got {len(ordered)}")
    if i in ordered:
        raise DimensionError(f"index {i} lies on the separating subset {ordered}")
    return generic_orientation(perturbed, ordered + (i,))


def split_by_hyperplane(
    perturbed: PerturbedMatrix, subset: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition the columns outside subset by generic sign: (negative, positive)."""
    ordered = tuple(sorted(subset))
    below: list[int] = []
    above: list[int] = []
    for i in range(1, perturbed.n + 1):
        if i in ordered:
            continue
        if generic_sign(perturbed, ordered, i) < 0:
            below.append(i)
        else:
            above.append(i)
    return tuple(below), tuple(above)


def _block_mask(block: Sequence[int]) -> int:
    mask = 0
    for i in block:
        mask |= 1 << (i - 1)
    return mask


def _mask_block(mask: int) -> tuple[int, ...]:
    block = []
    i = 1
    while mask:
        if mask & 1:
            block.append(i)
        mask >>= 1
        i += 1
    return tuple(block)


def _two_partition_masks(perturbed: PerturbedMatrix, limits: EnumerationLimits) -> list[int]:
    """Generic 2-partitions as first-block bitmasks, sorted and deduplicated.

    When n <= d the perturbed columns are affinely independent, so every
    2-partition qualifies. Otherwise each sorted d-subset is split once and
    all two-sided splits of it contribute both associated partitions.
    """
    d, n = perturbed.d, perturbed.n
    full = (1 << n) - 1
    if n <= d:
        count = 1 << n
        if count > limits.max_two_partitions:
            raise CapacityError("two-partitions", limits.max_two_partitions, count)
        return list(range(count))
    masks: set[int] = set()
    for subset in combinations(range(1, n + 1), d):
        i_below, _ = split_by_hyperplane(perturbed, subset)
        below_mask = _block_mask(i_below)
        members = list(subset)
        for choice in range(1 << d):
            j_below = 0
            for pos, element in enumerate(members):
                if choice >> pos & 1:
                    j_below |= 1 << (element - 1)
            first = below_mask | j_below
            masks.add(first)
            masks.add(full ^ first)
            if len(masks) > limits.max_two_partitions:
                raise CapacityError("two-partitions", limits.max_two_partitions)
    return sorted(masks)


def enumerate_generic_p_partitions(
    perturbed: PerturbedMatrix,
    p: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
    two_partition_masks: list[int] | None = None,
) -> GenericPartitionSet:
    """All generic p-partitions, assembled level by level over part pairs.

    A state holds, per part, the elements it may still take. Level l applies
    pair (r, s): a 2-partition mask keeps its first block for part r and its
    second block for part s. Distinct states are kept in a set per level, so
    masks that lead to the same child are expanded once. A mask survives only
    if every element stays in some block: of the elements no other part can
    take, those s cannot take must lie in the first block and those r cannot
    take must lie outside it. The states left after the last pair are exactly
    the covering assemblies. Every (state, mask) pair examined counts as one
    node against limits.max_assembly_nodes.
    """
    d, n = perturbed.d, perturbed.n
    if p < 1:
        raise DimensionError(f"need p >= 1, got p={p}")
    if p == 1:
        whole = ordered_partition([range(1, n + 1)], n)
        return GenericPartitionSet((whole,), d, n, 1)

    masks = (
        two_partition_masks
        if two_partition_masks is not None
        else _two_partition_masks(perturbed, limits)
    )
    pairs = list(combinations(range(p), 2))
    full = (1 << n) - 1
    states: set[tuple[int, ...]] = {(full,) * p}
    nodes = 0
    for level, (r, s) in enumerate(pairs, start=1):
        children: set[tuple[int, ...]] = set()
        # Each child comes from one examined pair, so the node cap also caps
        # the state set of every level.
        for allowed in states:
            nodes += len(masks)
            if nodes > limits.max_assembly_nodes:
                raise CapacityError(
                    "assembly-nodes", limits.max_assembly_nodes,
                    reached=f"pair level {level} of {len(pairs)}, part pair ({r + 1}, {s + 1})",
                )
            allowed_r, allowed_s = allowed[r], allowed[s]
            free = full
            for t, mask in enumerate(allowed):
                if t != r and t != s:
                    free &= ~mask
            # need_r and the rest of need are disjoint: every element of a
            # state lies in some part.
            need_r = free & ~allowed_s
            need = need_r | (free & ~allowed_r)
            head, middle, tail = allowed[:r], allowed[r + 1:s], allowed[s + 1:]
            for new_r, new_s in {
                (allowed_r & first, allowed_s & ~first)
                for first in masks
                if first & need == need_r
            }:
                children.add(head + (new_r,) + middle + (new_s,) + tail)
        states = children

    partitions = sorted(
        (Partition(tuple(_mask_block(m) for m in vec), n) for vec in states),
        key=lambda pi: pi.blocks,
    )
    return GenericPartitionSet(tuple(partitions), d, n, p)
