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
determinant by L^d > 0, so no sign changes. Entry (r, c) of the lifted matrix
is then ``column + eps * shift``: the integer lifted entry, and the shift
(c + 1)^r of the 0-based column c (row 0, the ones, has shift 0). One function,
`_determinant_polynomials`, computes the determinant polynomials of a chunk of
sorted d-subsets with every column at once, truncated at a given degree: an
expansion by minors of the subsets' columns in which every product of an entry
and a smaller minor also adds the shift times the minor's coefficient one
degree below, then one integer matrix product with all the columns. It runs in
int64 when a proven bound allows and in Python integers otherwise.
`_two_partition_masks` runs it at degree 0 on every chunk, where the eps^0
coefficient decides almost every sign, and once more at degree d on the
subsets that have an eps^0 zero outside themselves, such as repeated or
collinear columns; there the sign is that of the first nonzero coefficient. No
tolerance is tuned, no rational is built and no polynomial is interpolated.

Two-partitions come from separator triples: a sorted d-subset I spans an
oriented hyperplane of the perturbed configuration, splitting the remaining
columns by sign, and each two-sided split of I itself yields two associated
ordered 2-partitions. A 2-partition is held as a 0/1 row over the elements,
1 for the first block. The rows of a chunk of subsets are formed as one
uint8 array, and the bytes of each row or of its complement, whichever holds
element 1, are kept in a set. The 2-partitions are closed under complements,
as the separable 2-partitions of Alon and Onn ("Separable partitions",
1999) are.

A generic p-partition is an ordered partition whose every part pair r < s is
separated by a 2-partition holding block r in its first block and block s in
its second. At p = 2 these are the 2-partitions themselves. For larger p they
are assembled element by element: a prefix state places elements 1..e, and
a child places element e + 1 in some part r. Each state keeps, per part, the
bitsets over the 2-partitions that hold all of the block or none of it, so
a pair's witnesses are one bitwise and; the child is tested on the pairs of
r only, since no other pair changes. The complements make the order of a
pair immaterial: a 2-partition holding B_s and none of B_r exists iff its
complement holds B_r and none of B_s, so each pair is tested one way, on
the masks that hold all of block r and none of block s. The test is
monotone, so a prefix without a witness for some pair is dropped with
everything below it, and every kept prefix is a distinct ordered partition.
The work is whole-array numpy on (p, V, N) uint64 arrays, V words of
2-partition bits per bitset and N prefixes, tested in bounded chunks. The
2-partitions enter as their (M, n) 0/1 array, one row per 2-partition, and
are packed into those bitsets once. The finished labels are decoded once
into an (N, p, n) 0/1 block array and put in canonical order (sorted by
blocks), and `GenericPartitionSet` keeps that array, building Partition
objects only when they are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, islice
from math import comb, factorial, prod
from typing import Iterator

import numpy as np

from .errors import CapacityError, DimensionError
from .linalg import Matrix, as_integer, integer_array, integer_rows
from .partitions import Partition, blocks_from_labels, partitions_from_blocks


@dataclass(frozen=True)
class EnumerationLimits:
    """Caps that abort enumeration with a CapacityError instead of running unbounded."""

    max_two_partitions: int = 100_000
    max_assembly_nodes: int = 5_000_000
    max_candidates: int = 100_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if as_integer(value) < 0:
                raise DimensionError(f"limit {name} must be nonnegative, got {value}")


DEFAULT_LIMITS = EnumerationLimits()


class PerturbedMatrix:
    """A base matrix accessed only through the signs of its perturbed lifted
    determinants.

    The moment-curve dimension always equals the base row count, so a lifted
    matrix is perturbed in lifted space. _lifted holds the d + 1 rows of the
    lifted columns of L * base and _shifts the d + 1 rows of their moment-curve
    shifts: row 0 is 0 and row r holds (c + 1)^r for the 0-based column c.
    """

    def __init__(self, base: Matrix):
        if base.nrows < 1:
            raise DimensionError("perturbation needs at least one row")
        self.d = base.nrows
        self.n = base.ncols
        integral, _ = integer_rows(base.rows())
        self._lifted = [[1] * self.n] + integral
        self._shifts = [[(c + 1) ** r if r else 0 for c in range(self.n)]
                        for r in range(self.d + 1)]


_WORD_BITS = 64
# Bound on the elements of one chunk's temporaries in the assembly test:
# prefixes x parts x p x mask words.
_CHUNK_ELEMENTS = 1 << 12


@dataclass(frozen=True, eq=False)
class GenericPartitionSet:
    """Deduplicated set of generic partitions in canonical order (sorted by blocks).

    blocks is the (N, p, n) uint8 array of the set: blocks[i, j, c] is 1 iff
    element c + 1 lies in block j of partition i. Partition objects are built
    on first use of `partitions` or iteration, and by `select`.
    two_partition_count is the number of 2-partitions the set was assembled
    from, or None at p = 1 when none were computed or given.
    """

    blocks: np.ndarray
    n: int
    p: int
    two_partition_count: int | None

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


# Bound on the elements of the arrays one chunk of the mask stage holds: per
# d-subset, n values, at most (d + 1) * 2^(d + 1) minors or products, and
# 2^d mask rows of n bytes, ceil(n / 8) elements each. The degree-d pass
# holds d + 1 times the values, minors and products for the subsets it takes.
_SUBSET_CHUNK_ELEMENTS = 1 << 16


@cache
def _expansion(d: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Index tables of the expansion by minors of d columns of d + 1 rows.

    Entry j serves column j: for the row sets of size j + 1 in lexicographic
    order, the (C, j + 1) array of their rows, the position of each row set
    less one of its rows among the row sets of size j, and the (j + 1, 1)
    signs (-1)^(t + j) of expanding along column j at row position t.
    """
    tables = []
    position = {(): 0}
    for j in range(d):
        sets = list(combinations(range(d + 1), j + 1))
        smaller = [[position[rows[:t] + rows[t + 1:]] for t in range(j + 1)] for rows in sets]
        signs = np.array([[(-1) ** (t + j)] for t in range(j + 1)], dtype=np.int64)
        tables.append((np.array(sets), np.array(smaller), signs))
        position = {rows: i for i, rows in enumerate(sets)}
    return tables


def _determinant_polynomials(
    columns: np.ndarray, shifts: np.ndarray | None, subsets: np.ndarray, degree: int
) -> np.ndarray:
    """(degree + 1, S, n) array whose entry (t, s, c) is the eps^t coefficient
    of the lifted determinant with the columns of subsets[s] in order, then
    column c, where entry (r, c) is columns[r, c] + eps * shifts[r, c].

    columns and shifts are (d + 1, n) integer arrays of one dtype and subsets
    an (S, d) array of column indices. shifts is not read at degree 0, which
    gives the determinants at eps = 0. The minors of each subset's columns are
    expanded one column at a time, all subsets at once: the minor on a row
    set R and the first |R| columns is a signed sum of |R| products of an
    entry a + eps * b and a smaller minor, with no division, and coefficient
    t of such a product is a times the minor's coefficient t plus b times
    its coefficient t - 1. Coefficients above degree are dropped, which
    changes none below it. The last column, c, is one matrix product with
    the cofactors per coefficient.

    Bounds: write |P| for the sum of the magnitudes of a polynomial's
    coefficients, so |P + Q| <= |P| + |Q|, |P Q| <= |P| |Q| and every
    coefficient of P is at most |P| in magnitude.

    Degree d. Let R_r = max_c (|columns[r, c]| + |shifts[r, c]|), so every
    entry of row r has |.| <= R_r. By induction on j, the minor on a row
    set R of size j and the first j columns has |.| <= j! prod_{r in R} R_r:
    it is a signed sum over the rows t of R of the entry of row t times the
    minor on R - {t}, and each such product has |.| <= R_t (j - 1)!
    prod_{R - {t}} R_r = (j - 1)! prod_R R_r. The code forms coefficient i
    of the minor as a sum, over the rows u of R, of the terms a_u m_u[i] and
    b_u m_u[i - 1], where a_u + eps b_u is the entry of row u and m_u the
    coefficients of the minor on R - {u} (the signs only flip terms). Since
    |m_u[i]| and |m_u[i - 1]| are at most |m_u|, every term, every partial
    sum of them in any order, and the coefficient itself is at most
    sum_u (|a_u| + |b_u|) |m_u| <= j! prod_R R_r; a coefficient above
    degree is dropped and enters nothing. The product with
    column c is the same step with R all d + 1 rows and the cofactors, the
    signed minors on d rows, in place of the smaller minors, so
    (d + 1)! prod_(r = 0..d) R_r bounds every minor, product, partial sum
    and value. Each R_r is at least 1 (row 0 holds ones, and the shift of
    row r >= 1 is at least 1), so it bounds every entry as well.

    Degree 0. Let N be the largest column 1-norm of columns. A minor on j
    columns expanded along its last column is a sum of entries of that
    column times minors on j - 1 columns, so by induction every minor, and
    every product and partial sum that forms it, is at most N^j; the
    product with column c is the step j = d + 1, so N^(d + 1) bounds every
    intermediate.
    """
    d = subsets.shape[1]
    minors = np.zeros((degree + 1, 1, len(subsets)), dtype=columns.dtype)
    minors[0] = 1
    for j, (rows, smaller, signs) in enumerate(_expansion(d)):
        at = rows[..., None], subsets[:, j]
        terms = signs * minors[:, smaller]  # (degree + 1, C, j + 1, S)
        minors = (columns[at] * terms).sum(axis=2)
        if degree:
            minors[1:] += (shifts[at] * terms[:-1]).sum(axis=2)
    # The row sets of size d omit rows d, d - 1, ..., 0 in turn; the cofactor
    # of row r is (-1)^(r + d) times the minor that omits it.
    parity = np.array([[(-1) ** (r + d)] for r in range(d + 1)])
    cofactors = (minors[:, ::-1] * parity).swapaxes(1, 2)  # (degree + 1, S, d + 1)
    values = cofactors @ columns
    if degree:
        values[1:] += cofactors[:-1] @ shifts
    return values


def _two_partition_masks(perturbed: PerturbedMatrix, limits: EnumerationLimits) -> np.ndarray:
    """The distinct generic 2-partitions as an (M, n) 0/1 uint8 array in
    lexicographic row order: entry (i, c) is 1 iff element c + 1 lies in the
    first block of 2-partition i. The rows are closed under complements.

    When n <= d the perturbed columns are affinely independent, so every
    2-partition qualifies. Otherwise each sorted d-subset is split once and
    all two-sided splits of it contribute both associated partitions.

    The sorted d-subsets are taken in lexicographic chunks. A chunk's splits
    come from `_determinant_polynomials` at degree 0, where a nonzero eps^0
    coefficient is the sign, and at degree d on the subsets of the chunk
    with an eps^0 zero outside themselves, where the first nonzero
    coefficient is. Each pass holds its integers as int64 when its bound
    fits (N^(d + 1) and (d + 1)! prod_r R_r, see `_determinant_polynomials`),
    as Python integers otherwise; the degree-d arrays are built on first use.
    Only a subset's own columns may have an all-zero polynomial: any other
    raises AssertionError, since the eps^d coefficient is a Vandermonde
    determinant at distinct column indices. A chunk's rows repeat each below
    row once per split of its d-subset, with the d-subset's own columns set
    from the split. A row and its complement form a pair, which the set
    holds as the bytes of the member that holds element 1; the complements
    are appended at the end. More than limits.max_two_partitions distinct
    masks, twice the pairs, raise CapacityError naming the first d-subset,
    in lexicographic order, after which the count exceeds the limit.
    """
    d, n = perturbed.d, perturbed.n
    if n <= d:
        count = 1 << n
        if count > limits.max_two_partitions:
            raise CapacityError("two-partitions", limits.max_two_partitions, count)
        # row i holds the binary digits of i, element 1 the most significant
        return (np.arange(count)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)
    lifted, shifts = perturbed._lifted, perturbed._shifts
    norm = max(sum(map(abs, column)) for column in zip(*lifted))
    columns = integer_array(lifted, norm ** (d + 1))
    wide = None  # the lifted columns and shifts for the degree-d pass
    # choices[i, pos]: split i of a d-subset puts its element pos below
    choices = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
    per = 1 << d  # splits per d-subset
    total = comb(n, d)
    step = max(1, _SUBSET_CHUNK_ELEMENTS // (n + (2 * d + 2 + -(-n // 8)) * per))
    remaining = combinations(range(n), d)
    pairs: set[bytes] = set()  # each complement pair by its member that holds element 1
    for start in range(0, total, step):
        subsets = np.array(list(islice(remaining, step)), dtype=np.intp)
        values = _determinant_polynomials(columns, None, subsets, 0)[0]
        below = values < 0
        # A subset's own d columns always give 0; any other 0 needs degree d.
        again = np.flatnonzero((values == 0).sum(axis=1) > d)
        if len(again):
            if wide is None:
                # R_r of every row: the shifts are nonnegative
                rows = (max(abs(a) + b for a, b in zip(*pair)) for pair in zip(lifted, shifts))
                wide = integer_array([lifted, shifts], factorial(d + 1) * prod(rows))
            polynomials = _determinant_polynomials(*wide, subsets[again], d)
            nonzero = polynomials != 0
            # Only a subset's own d columns may have an all-zero polynomial.
            live = nonzero.any(axis=0).sum(axis=1)
            if live.min() < n - d:
                raise AssertionError(
                    "determinant polynomial vanished identically for d-subset "
                    f"{subsets[again[live.argmin()]].tolist()} and a column outside it; "
                    "the Vandermonde leading coefficient makes this impossible"
                )
            leading = np.take_along_axis(polynomials, nonzero.argmax(axis=0)[None], axis=0)[0]
            below[again] = leading < 0
        first = np.repeat(below[:, None].view(np.uint8), per, axis=1)  # (S, 2^d, n)
        for pos in range(d):
            first[np.arange(len(subsets)), :, subsets[:, pos]] = choices[:, pos]
        first ^= first[..., :1] ^ 1  # the member of each pair that holds element 1
        # each row as one n-byte void item, which tolist gives as bytes
        found = first.view(f"V{n}").ravel().tolist()
        for offset in range(len(subsets)):
            pairs.update(found[offset * per:(offset + 1) * per])
            if 2 * len(pairs) > limits.max_two_partitions:
                raise CapacityError("two-partitions", limits.max_two_partitions,
                                    reached=f"d-subset {start + offset + 1} of {total}")
    ones = np.frombuffer(b"".join(sorted(pairs)), dtype=np.uint8).reshape(len(pairs), n)
    # complementing reverses the order, and every complement starts with 0
    return np.concatenate([1 - ones[::-1], ones])


def _assemble(held: np.ndarray, p: int, limits: EnumerationLimits) -> np.ndarray:
    """The (N, n) part labels of every ordered p-partition whose blocks B
    have, for each part pair r < s, a mask that holds all of B_r and none
    of B_s; label c is the 0-based part of element c + 1. held is the
    (masks, n) 0/1 array of the masks, which must be closed under
    complements: held[f, c] is 1 iff mask f holds element c + 1.

    Elements are placed one at a time. A prefix state holds, per part t, the
    bitsets of the masks that hold all of block t (within) and none of it
    (apart), V words each, stored (p, V, N) so that every operation runs
    along the prefixes. A mask holding B_s and none of B_r exists iff its
    complement holds B_r and none of B_s, so the pair {r, s} is witnessed,
    in either order, by the masks in within_r & apart_s. Placing the next
    element in part r narrows only within_r and apart_r, so a child is
    tested on the pairs of r alone, each one way. A pair that has no
    witness keeps none as blocks grow, so every prefix with a witness for
    each pair is kept and every other one dropped. Distinct label rows are
    distinct partitions, so there is nothing to deduplicate.
    Before each element the prefixes times p times (p - 1) times V, every
    (child, other part, mask word) triple the element tests, are charged to
    limits.max_assembly_nodes. The prefixes' bitsets are built only once
    that charge has passed, and nothing of size p is built before the first
    charge has. The tests run in (parts r, p, V, prefixes) tiles of at most
    max(_CHUNK_ELEMENTS, p V) words: one part r and one prefix when p V is
    larger.
    """
    count, n = held.shape
    # row 0: every mask; row c + 1: the masks that hold element c + 1
    table = np.zeros((n + 1, -(-count // _WORD_BITS) * _WORD_BITS), dtype=np.uint8)
    table[0, :count] = 1
    table[1:, :count] = held.T
    table = np.packbits(table, axis=1, bitorder="little").view("<u8")[..., None]  # (n + 1, V, 1)
    words = table.shape[1]
    labels = np.zeros((1, n), dtype=np.min_scalar_type(p - 1))
    # The empty prefix enters as the one child of narrowing its block 0 by
    # every mask, which changes nothing. Its state is one part's (1, V, 1),
    # broadcast to p parts only once element 1's charge has passed.
    within = apart = table[:1]
    inside = outside = table[0]
    part = state = [0]
    # tile sides: prefixes, then parts r
    step = max(1, _CHUNK_ELEMENTS // (p * p * words))
    rows = min(p, max(1, _CHUNK_ELEMENTS // (p * words * step)))
    nodes = 0
    for e in range(n):
        nodes += len(labels) * p * (p - 1) * words
        if nodes > limits.max_assembly_nodes:
            raise CapacityError("assembly-nodes", limits.max_assembly_nodes,
                                reached=f"element {e + 1} of {n}")
        # the children of the last element, now that their charge has passed
        child = np.arange(len(state))
        within = np.broadcast_to(within, (p, words, within.shape[2]))[..., state]
        within[part, :, child] &= inside[:, 0]
        apart = np.broadcast_to(apart, (p, words, apart.shape[2]))[..., state]
        apart[part, :, child] &= outside[:, 0]
        inside = table[e + 1]  # the masks that hold the element
        outside = ~inside
        fits = np.ones((p, len(labels)), dtype=bool)
        for start in range(0, len(labels), step):
            chunk = slice(start, start + step)
            away = apart[..., chunk]
            for r0 in range(0, p, rows):
                r = slice(r0, r0 + rows)
                # entry [r, s]: the witnesses of pair (r, s) once the element is in r
                witnesses = (within[r, :, chunk] & inside)[:, None] & away
                found = np.bitwise_or.reduce(witnesses, axis=2) != 0
                own = np.arange(len(found))
                found[own, own + r0] = True  # no pair (r, r)
                fits[r, chunk] &= found.all(axis=1)
        part, state = np.nonzero(fits)
        labels = labels[state]
        labels[:, e] = part
    return labels


def _block_order(blocks: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts the (N, p, n) 0/1 block array by
    blocks: block 1 as a sorted tuple first, then block 2, and so on.

    Position c of a block reads 1 if element c + 1 is in it, 2 if not but a
    later element is, and 0 if no element at or past it is. Comparing these
    codes position by position compares the blocks' sorted tuples, a proper
    prefix first, so one lexsort on the p * n code columns, the first most
    significant, orders the partitions. The loop that forms the codes runs
    over positions, each step over all partitions at once.
    """
    codes = blocks.copy()  # first 1 where the block has an element at or past c
    for c in range(blocks.shape[-1] - 2, -1, -1):
        np.maximum(codes[..., c], codes[..., c + 1], out=codes[..., c])
    codes *= 2
    codes -= blocks
    return np.lexsort(codes.reshape(len(blocks), -1).T[::-1])


def enumerate_generic_p_partitions(
    perturbed: PerturbedMatrix,
    p: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
    two_partition_masks: np.ndarray | None = None,
) -> GenericPartitionSet:
    """All generic p-partitions: the ordered p-partitions whose every part
    pair r < s is separated by a generic 2-partition, block r in its first
    block and block s in its second.

    two_partition_masks, if given, stands in for the 2-partitions of
    perturbed: an (M, n) 0/1 array of distinct first blocks, closed under
    complements, as `_two_partition_masks` returns it. At p = 2 these are
    the 2-partitions themselves, one per mask, charged one assembly node
    each. For p > 2 `_assemble` places the elements one at a time. The set's
    two_partition_count is the number of masks computed or given; at p = 1
    none are computed, so it is None unless masks are given.
    """
    n = perturbed.n
    if p < 1:
        raise DimensionError(f"need p >= 1, got p={p}")
    masks = two_partition_masks
    if masks is None and p > 1:
        masks = _two_partition_masks(perturbed, limits)
    count = None if masks is None else len(masks)
    if p == 1:
        return GenericPartitionSet(np.ones((1, 1, n), dtype=np.uint8), n, 1, count)
    if p == 2:
        if len(masks) > limits.max_assembly_nodes:
            raise CapacityError("assembly-nodes", limits.max_assembly_nodes, len(masks))
        labels = 1 - masks  # an element outside the mask goes to part 2
    else:
        labels = _assemble(masks, p, limits)
    blocks = blocks_from_labels(labels, p)
    if len(blocks) > 1:
        blocks = blocks[_block_order(blocks)]
    return GenericPartitionSet(blocks, n, p, count)
