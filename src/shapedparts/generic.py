"""Moment-curve perturbation and enumeration of generic partitions.

The perturbation is symbolic: column i of a d x n base matrix is read as
``base^i + eps * (i, i^2, ..., i^d)`` for an infinitesimal eps > 0, but eps is
never instantiated. Every decision is the sign of a lifted determinant (the
columns with a 1 prepended), a polynomial of degree d in eps whose sign for
small eps is that of its first nonzero coefficient. Its leading coefficient is
a Vandermonde determinant at distinct column indices, so it never vanishes.
This is the symbolic perturbation of Edelsbrunner and Muecke's "Simulation of
Simplicity" (1990).

The sign kernel works in integers only. The base is scaled once by the common
denominator L of its entries; reading eps as L * eps multiplies every lifted
determinant by L^d > 0, so no sign changes. For each sorted d-subset the
cofactor vector of its lifted columns is computed at the nodes eps = 0..d by
the fraction-free elimination of ``linalg.py`` (Bareiss 1968), after which
the determinant of the subset with any other column is one dot product per
node. The fixed integer matrix d! * V^-1 turns those node values into d!
times the polynomial's coefficients. No tolerance is tuned and no rational is built.

Two-partitions come from separator triples: a sorted d-subset I spans an
oriented hyperplane of the perturbed configuration, splitting the remaining
columns by sign, and each two-sided split of I itself yields two associated
ordered 2-partitions. p-partitions are assembled from one 2-partition per
part pair, intersecting candidate blocks and keeping the assemblies whose
blocks cover the ground set; the pairs are applied level by level and each
distinct partial assembly is expanded once.

The assembly is whole-array numpy work. A partial assembly is a (p, W)
uint64 array, each block a bitmask of W = ceil(n / 64) words, so every n
takes the same path. A level tests all 2-partition masks against a bounded
chunk of states at a time, builds the children with bitwise and, and drops
duplicate rows with a lexsort and a row diff. These words stay inside the
assembly: the covering assemblies are decoded once into an (N, p, n) 0/1
block array and put in canonical order (sorted by blocks), and
`GenericPartitionSet` keeps that array, building Partition objects only when
they are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DimensionError
from .linalg import Matrix, fraction_free_elimination, integer_rows
from .partitions import Partition, partitions_from_blocks


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


def _cofactors(columns: Sequence[Sequence[int]]) -> list[int]:
    """Cofactors along the last column of the square matrix [columns | x].

    columns are d integer vectors of length d + 1; the determinant of the
    matrix with x as its last column is the dot product of x with the result.
    """
    d = len(columns)
    rows = list(zip(*columns))
    cofactors = []
    for r in range(d + 1):
        minor = [list(row) for row in rows[:r] + rows[r + 1:]]
        pivots, sign = fraction_free_elimination(minor)
        cofactors.append((-1) ** (r + d) * sign * minor[-1][-1] if len(pivots) == d else 0)
    return cofactors


def _interpolation_weights(d: int) -> list[list[int]]:
    """d! times the inverse of the Vandermonde matrix V[e][j] = e^j, e, j = 0..d.

    By Lagrange interpolation at the nodes 0..d, row j, column e is
    (-1)^(d-e) * C(d, e) * [x^j] prod_{m != e} (x - m): an integer matrix that
    maps a polynomial's values at the nodes to d! times its coefficients.
    """
    weights = [[0] * (d + 1) for _ in range(d + 1)]
    for e in range(d + 1):
        product = [1]  # coefficients of prod_{m != e} (x - m), lowest first
        for m in range(d + 1):
            if m != e:
                product = [high - m * low for high, low in zip([0] + product, product + [0])]
        scale = (-1) ** (d - e) * comb(d, e)
        for j, coefficient in enumerate(product):
            weights[j][e] = scale * coefficient
    return weights


class PerturbedMatrix:
    """A base matrix accessed only through the signs of its perturbed lifted
    determinants.

    The moment-curve dimension always equals the base row count, so a lifted
    matrix is perturbed in lifted space.
    """

    def __init__(self, base: Matrix):
        if base.nrows < 1:
            raise DimensionError("perturbation needs at least one row")
        self.d = d = base.nrows
        self.n = n = base.ncols
        integral, _ = integer_rows(base.rows())
        # _nodes[e][c]: lifted column c (0-based) of L * base at eps = e.
        self._nodes = [
            [
                (1,) + tuple(integral[r][c] + e * (c + 1) ** (r + 1) for r in range(d))
                for c in range(n)
            ]
            for e in range(d + 1)
        ]
        self._weights = _interpolation_weights(d)

    def below_mask(self, subset: Sequence[int]) -> int:
        """Bitmask of the columns on the negative side of the hyperplane that
        the sorted d-subset of 0-based column indices spans.

        Column c outside subset lies there when the lifted determinant with
        the subset's columns in increasing order, then c, is negative for all
        sufficiently small eps > 0. An all-zero determinant polynomial is
        impossible (its leading coefficient is a Vandermonde determinant at
        distinct indices) and raises AssertionError.
        """
        node_cofactors = [_cofactors([node[i] for i in subset]) for node in self._nodes]
        mask = 0
        for c in range(self.n):
            if c in subset:
                continue
            values = [
                sum(map(mul, cofactors, node[c]))
                for cofactors, node in zip(node_cofactors, self._nodes)
            ]
            for weights in self._weights:
                lead = sum(map(mul, weights, values))
                if lead:
                    break
            else:
                raise AssertionError(
                    f"determinant polynomial vanished identically for columns {subset} and {c}; "
                    "the Vandermonde leading coefficient makes this impossible"
                )
            if lead < 0:
                mask |= 1 << c
        return mask


_WORD_BITS = 64
# Bound on the states x masks x words elements of one chunk of the mask test.
_CHUNK_ELEMENTS = 1 << 12


def _words(masks: Sequence[int], width: int) -> np.ndarray:
    """(len(masks), width) uint64 array; word w of a row holds bits 64w to
    64w + 63 of its mask."""
    low = (1 << _WORD_BITS) - 1
    return np.array(
        [[(mask >> (_WORD_BITS * w)) & low for w in range(width)] for mask in masks],
        dtype=np.uint64,
    ).reshape(len(masks), width)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(..., n) 0/1 uint8 array of the masks held as (..., width) words:
    entry c is bit c, that is, element c + 1."""
    bits = np.empty(words.shape[:-1] + (n,), dtype=np.uint8)
    for c in range(n):
        word = words[..., c // _WORD_BITS] >> np.uint64(c % _WORD_BITS)
        bits[..., c] = word & np.uint64(1)
    return bits


def _sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts the rows of a 2-d array lexicographically,
    and a flag per sorted row: whether it differs from the row before it."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return order, new


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array, in lexicographic order."""
    order, new = _sort_rows(rows)
    return rows[order[new]]


@dataclass(frozen=True, eq=False)
class GenericPartitionSet:
    """Deduplicated set of generic partitions in canonical order (sorted by blocks).

    blocks is the (N, p, n) uint8 array of the set: blocks[i, j, c] is 1 iff
    element c + 1 lies in block j of partition i. Partition objects are built
    on first use of `partitions` or iteration, and by `select`.
    """

    blocks: np.ndarray
    d: int
    n: int
    p: int

    def __len__(self) -> int:
        return len(self.blocks)

    def select(self, rows) -> tuple[Partition, ...]:
        """The partitions at the given positions (any index of blocks' first
        axis), built now."""
        return tuple(partitions_from_blocks(self.blocks[rows]))

    @cached_property
    def partitions(self) -> tuple[Partition, ...]:
        return self.select(slice(None))

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)


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
    for index, subset in enumerate(combinations(range(n), d), start=1):
        below_mask = perturbed.below_mask(subset)
        for choice in range(1 << d):
            j_below = 0
            for pos, element in enumerate(subset):
                if choice >> pos & 1:
                    j_below |= 1 << element
            first = below_mask | j_below
            masks.add(first)
            masks.add(full ^ first)
            if len(masks) > limits.max_two_partitions:
                raise CapacityError("two-partitions", limits.max_two_partitions,
                                    reached=f"d-subset {index} of {comb(n, d)}")
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
    second block for part s. The distinct states of a level are kept, so
    masks that lead to the same child are expanded once. A mask survives only
    if every element stays in some block: of the elements no other part can
    take, those s cannot take must lie in the first block and those r cannot
    take must lie outside it. The states left after the last pair are exactly
    the covering assemblies. Each level charges its states times the masks,
    every (state, mask) pair it examines, to limits.max_assembly_nodes before
    it runs.
    """
    d, n = perturbed.d, perturbed.n
    if p < 1:
        raise DimensionError(f"need p >= 1, got p={p}")
    width = max(1, -(-n // _WORD_BITS))
    full = _words([(1 << n) - 1], width)[0]
    if p == 1:
        return GenericPartitionSet(np.ones((1, 1, n), dtype=np.uint8), d, n, 1)

    first = _words(
        two_partition_masks
        if two_partition_masks is not None
        else _two_partition_masks(perturbed, limits),
        width,
    )
    second = full & ~first
    pairs = list(combinations(range(p), 2))
    states = np.tile(full, (1, p, 1))
    # masks tested against one chunk of states: a bounded temporary
    step = max(1, _CHUNK_ELEMENTS // max(1, len(first) * width))
    nodes = 0
    for level, (r, s) in enumerate(pairs, start=1):
        nodes += len(states) * len(first)
        if nodes > limits.max_assembly_nodes:
            raise CapacityError(
                "assembly-nodes", limits.max_assembly_nodes,
                reached=f"pair level {level} of {len(pairs)}, part pair ({r + 1}, {s + 1})",
            )
        others = [t for t in range(p) if t != r and t != s]
        free = full & ~np.bitwise_or.reduce(states[:, others], axis=1)
        # need_r and the rest of need are disjoint: every element of a state
        # lies in some part.
        need_r = free & ~states[:, s]
        need = need_r | (free & ~states[:, r])
        children = [np.empty((0, p * width), dtype=np.uint64)]
        for start in range(0, len(states), step):
            chunk = slice(start, start + step)
            fits = ((first & need[chunk, None]) == need_r[chunk, None]).all(axis=2)
            state_at, mask_at = np.nonzero(fits)
            child = states[chunk][state_at]
            child[:, r] &= first[mask_at]
            child[:, s] &= second[mask_at]
            children.append(_distinct_rows(child.reshape(len(child), p * width)))
        states = _distinct_rows(np.concatenate(children)).reshape(-1, p, width)

    blocks = _bits(states, n)
    if len(blocks) > 1:
        # Position c of a block reads 1 if element c + 1 is in it, 2 if not but
        # a later element is, and 0 if no element at or past it is. Comparing
        # these codes position by position compares the blocks' sorted tuples,
        # a proper prefix first, so one lexsort puts the partitions in block order.
        at_or_past = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
        codes = (2 * at_or_past - blocks).reshape(len(blocks), p * n)
        blocks = blocks[np.lexsort(codes.T[::-1])]
    return GenericPartitionSet(blocks, d, n, p)
