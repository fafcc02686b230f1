"""Ordered partitions, shapes, shape families, and part-sum matrices.

This module owns what the pipeline and the brute-force reference share: the
(N, p, n) 0/1 block array of a set of partitions (`blocks_from_labels`
writes it from part labels, `partitions_from_blocks` reads it back), the
integer part-sum keys (`PartSums`, taken in chunks; `_key_matrix` reads one
back, for `objectives` too) and shape admission (`ShapeFamily.check`, then
`admitted`, which admits every row of the all-shapes family without asking
and asks any other family once per distinct shape).

Element indices are 1-based everywhere a user can see them, matching the
ground set {1, ..., n}. A shape is a plain tuple of p nonnegative block sizes
summing to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError
from .linalg import Matrix, as_integer, integer_array, integer_rows

Shape = tuple[int, ...]

# block entries per integer matrix product in PartSums.keys, and per chunk
# of the brute-force walk
_CHUNK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class Partition:
    """Ordered tuple of disjoint index blocks covering {1, ..., n}.

    Blocks may be empty. Each block is stored sorted, so equal partitions
    compare and hash equal, and tuples of partitions sort deterministically.
    """

    blocks: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        seen: set[int] = set()
        total = 0
        for block in self.blocks:
            if list(block) != sorted(block):
                raise DimensionError("partition blocks must be stored sorted")
            for i in block:
                if not (1 <= i <= self.n):
                    raise DimensionError(f"element {i} outside ground set [1, {self.n}]")
                seen.add(i)
            total += len(block)
        if total != self.n or len(seen) != self.n:
            raise DimensionError("blocks must be disjoint and cover the ground set")

    @property
    def p(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition({body})"


def ordered_partition(blocks: Iterable[Iterable[int]], n: int) -> Partition:
    """Build a Partition from any iterable of index iterables."""
    return Partition(tuple(tuple(sorted(b)) for b in blocks), n)


def shape_of(pi: Partition) -> Shape:
    """The tuple of block cardinalities."""
    return tuple(len(b) for b in pi.blocks)


def partition_matrix(a: Matrix, pi: Partition) -> Matrix:
    """Column-sum matrix of a partition: column j sums the a-columns of block j.

    Empty blocks contribute a zero column.
    """
    if pi.n != a.ncols:
        raise DimensionError(f"partition over [{pi.n}] does not match {a.ncols} columns")
    zero = Fraction(0)
    cols = []
    for block in pi.blocks:
        col = [zero] * a.nrows
        for i in block:
            for r in range(a.nrows):
                col[r] += a.entry(r, i - 1)
        cols.append(col)
    return Matrix.from_columns(cols, nrows=a.nrows)


class PartSums:
    """The part sums of partitions over an attribute matrix, as integers.

    The attribute matrix is held times the common denominator `scale` of
    its entries: int64 when no part sum can overflow it, Python integers
    (dtype=object) otherwise. A part-sum matrix is held as its key, its
    row-major entries times scale. A positive scale keeps the lexicographic
    order, so sorting the keys sorts the matrices. `partition_matrix` is the
    Fraction definition these keys are checked against.
    """

    def __init__(self, a: Matrix, p: int):
        integral, self.scale = integer_rows(a.rows())
        bound = max((sum(map(abs, row)) for row in integral), default=0)
        self.scaled = integer_array(integral, bound).reshape(a.nrows, a.ncols)
        self.p = p

    def keys(self, blocks: np.ndarray) -> list[tuple[int, ...]]:
        """The key of each partition of an (N, p, n) 0/1 block array, by one
        integer matrix product per chunk of at most _CHUNK_ELEMENTS entries."""
        k, n = self.scaled.shape
        step = max(1, _CHUNK_ELEMENTS // max(1, self.p * n))
        found: list[tuple[int, ...]] = []
        for start in range(0, len(blocks), step):
            chunk = blocks[start:start + step].astype(self.scaled.dtype)
            sums = self.scaled @ chunk.transpose(0, 2, 1)  # (N, k, p)
            found += map(tuple, sums.reshape(len(sums), k * self.p).tolist())
        return found

    def matrix(self, key: Sequence[int]) -> Matrix:
        """The part-sum matrix of a key."""
        return _key_matrix(key, self.scale, self.p)


def _key_matrix(key: Sequence[int], scale: int, p: int) -> Matrix:
    """The matrix with p columns whose row-major entries times scale are key."""
    return Matrix([[Fraction(x, scale) for x in key[r:r + p]] for r in range(0, len(key), p)],
                  ncols=p)


def blocks_from_labels(labels: np.ndarray, p: int) -> np.ndarray:
    """The (N, p, n) 0/1 uint8 block array of an (N, n) array of 0-based part
    labels: element c + 1 lies in block j of partition i iff labels[i, c] is j."""
    return (labels[:, None, :] == np.arange(p, dtype=labels.dtype)[:, None]).view(np.uint8)


def partitions_from_blocks(blocks: np.ndarray) -> list[Partition]:
    """The partitions of an (N, p, n) 0/1 block array: element c + 1 lies in
    block j of partition i iff blocks[i, j, c] is 1."""
    n, p = blocks.shape[2], blocks.shape[1]
    # the elements of every block in turn, cut at the running block sizes
    elements = (np.nonzero(blocks)[2] + 1).tolist()
    ends = np.cumsum(blocks.sum(axis=2).ravel()).tolist()
    flat = [tuple(elements[start:end]) for start, end in zip([0] + ends, ends)]
    return [Partition(tuple(flat[i:i + p]), n) for i in range(0, len(flat), p)]


def lift(a: Matrix) -> Matrix:
    """Append the index row (1, 2, ..., n), making all columns distinct."""
    index_row = [Fraction(i) for i in range(1, a.ncols + 1)]
    return Matrix(list(a.rows()) + [index_row], ncols=a.ncols)


def compositions(n: int, p: int) -> Iterator[Shape]:
    """All p-tuples of nonnegative integers summing to n, in lexicographic order."""
    return (c for c in product(range(n + 1), repeat=p) if sum(c) == n)


class ShapeFamily:
    """The admissible-shape set, queryable by membership.

    Four kinds: every shape ("all"), an explicit list ("list"), componentwise
    bounds ("bounds"), and an arbitrary membership predicate ("predicate") for
    callers that want the pure oracle model. Only the first three can appear
    in problem files. Each constructor validates its input and builds the one
    membership callable `admits`; families are validated nonempty, except the
    predicate kind, which cannot be inspected.
    """

    def __init__(self, kind: str, n: int, p: int, admits: Callable[[Shape], bool]):
        self.kind = kind
        self.n = n
        self.p = p
        self.admits = admits

    @classmethod
    def all_shapes(cls, n: int, p: int) -> "ShapeFamily":
        n, p = _check_dims(n, p)
        return cls("all", n, p, _every_shape)

    @classmethod
    def explicit(cls, shapes: Iterable[Sequence[int]], n: int, p: int) -> "ShapeFamily":
        n, p = _check_dims(n, p)
        normalized = frozenset(tuple(as_integer(x) for x in s) for s in shapes)
        if not normalized:
            raise DimensionError("an explicit shape family must be nonempty")
        for s in normalized:
            _check_shape(s, n, p)
        return cls("list", n, p, normalized.__contains__)

    @classmethod
    def bounds(cls, lower: Sequence[int], upper: Sequence[int], n: int) -> "ShapeFamily":
        lo = tuple(as_integer(x) for x in lower)
        hi = tuple(as_integer(x) for x in upper)
        if len(lo) != len(hi):
            raise DimensionError("lower and upper bounds differ in arity")
        n, p = _check_dims(n, len(lo))
        if any(l < 0 for l in lo) or any(l > u for l, u in zip(lo, hi)):
            raise DimensionError("bounds must satisfy 0 <= lower <= upper")
        if sum(lo) > n or sum(hi) < n:
            raise DimensionError("bounds admit no shape: need sum(lower) <= n <= sum(upper)")
        return cls("bounds", n, p, lambda s: all(l <= x <= u for l, x, u in zip(lo, s, hi)))

    @classmethod
    def from_predicate(cls, predicate: Callable[[Shape], bool], n: int, p: int) -> "ShapeFamily":
        """A family decided by predicate(shape). The predicate must be pure:
        `admitted` asks it once per distinct shape and applies the answer to
        every partition of that shape."""
        n, p = _check_dims(n, p)
        return cls("predicate", n, p, predicate)

    def contains(self, shape: Sequence[int]) -> bool:
        """Membership verdict for a p-shape of n; wrong arity or total is an error."""
        s = tuple(as_integer(x) for x in shape)
        _check_shape(s, self.n, self.p)
        return bool(self.admits(s))

    def check(self, n: int, p: int) -> None:
        """Raise DimensionError unless the family is over the p-shapes of n."""
        if (self.n, self.p) != (n, p):
            raise DimensionError(
                f"shape family over n={self.n}, p={self.p} does not match n={n}, p={p}")

    def admitted(self, blocks: np.ndarray, verdicts: dict[bytes, bool]) -> np.ndarray:
        """One bool per partition of an (N, p, n) 0/1 block array over the
        family's n and p (see `check`): whether its shape is admitted. The
        shapes are not validated. A family whose admits is the one that
        `all_shapes` installs admits every row without asking it. Otherwise
        verdicts memoizes the answers across calls, keyed by the bytes of
        each int64 shape; admits is asked for each shape not in it, in order
        of first occurrence."""
        if self.admits is _every_shape:
            return np.ones(len(blocks), dtype=bool)
        rows = blocks.sum(axis=2, dtype=np.int64).view(f"V{8 * self.p}").ravel().tolist()
        for row in dict.fromkeys(rows):
            if row not in verdicts:
                verdicts[row] = bool(self.admits(tuple(np.frombuffer(row, np.int64).tolist())))
        return np.fromiter(map(verdicts.__getitem__, rows), dtype=bool, count=len(rows))

    def __repr__(self) -> str:
        return f"ShapeFamily({self.kind}, n={self.n}, p={self.p})"


def _every_shape(shape: Shape) -> bool:
    """The membership callable of `ShapeFamily.all_shapes`."""
    return True


def _check_dims(n: int, p: int) -> tuple[int, int]:
    """n and p as ints, checked: n >= 0 and p >= 1."""
    n, p = as_integer(n), as_integer(p)
    if n < 0 or p < 1:
        raise DimensionError(f"need n >= 0 and p >= 1, got n={n}, p={p}")
    return n, p


def _check_shape(shape: Shape, n: int, p: int) -> None:
    if len(shape) != p:
        raise DimensionError(f"shape {shape} has {len(shape)} parts, expected {p}")
    if any(x < 0 for x in shape):
        raise DimensionError(f"shape {shape} has a negative entry")
    if sum(shape) != n:
        raise DimensionError(f"shape {shape} sums to {sum(shape)}, expected {n}")
