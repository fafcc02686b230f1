"""Vertex enumeration of the shaped partition polytope.

Pipeline: lift the attribute matrix by the index row, enumerate the generic
partitions of the lifted configuration, keep the ones with an admissible
shape, map each survivor to its part-sum matrix over the original attribute
matrix, deduplicate, and finally filter the candidates down to the true
vertices with the exact convex-position test. Every vertex of the polytope is
guaranteed to appear among the candidates, so the filter is the whole story.

The admissible filter, the part sums and their grouping form one stage,
`admissible_partitions`, which `solver.solve` shares. It works on the
generic set's bitmask array: shapes are popcounts, part sums are one integer
matrix product per chunk of partitions, and Partition objects are built only
for the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DimensionError
from .generic import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    _CHUNK_ELEMENTS,
    _bits,
    _sort_rows,
    _two_partition_masks,
    enumerate_generic_p_partitions,
)
from .hull import extreme_point_indices
from .linalg import Matrix
from .partitions import Partition, ShapeFamily, lift


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated candidate matrices with their generating partitions.

    members are in row-major lexicographic order; witnesses[i] holds every
    admissible generic partition whose part-sum matrix equals members[i], in
    the generic set's order (sorted by blocks).
    """

    members: tuple[Matrix, ...]
    witnesses: tuple[tuple[Partition, ...], ...]
    two_partition_count: int
    generic_count: int
    admissible_count: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Matrix]:
        return iter(self.members)


@dataclass(frozen=True)
class VertexReport:
    """Vertices in canonical order, their witnesses, and the candidate set
    they were filtered from (which holds the earlier pipeline counts)."""

    vertices: tuple[Matrix, ...]
    witnesses: tuple[tuple[Partition, ...], ...]
    candidates: CandidateSet

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class AdmissiblePartitions:
    """The admissible generic partitions, in canonical order, grouped by
    part-sum matrix.

    rows[i] is the position of admissible partition i in `generic`;
    group[i] numbers its part-sum matrix by first occurrence, and
    matrices[g] is matrix number g.
    """

    generic: GenericPartitionSet
    rows: np.ndarray
    group: list[int]
    matrices: list[Matrix]

    def __len__(self) -> int:
        return len(self.group)

    def partitions(self, indices: Sequence[int] | slice = slice(None)) -> tuple[Partition, ...]:
        """The admissible partitions at the given indices, built now."""
        return self.generic.select(self.rows[indices])


def check_family(a: Matrix, p: int, family: ShapeFamily) -> None:
    if family.n != a.ncols or family.p != p:
        raise DimensionError(
            f"shape family over n={family.n}, p={family.p} does not match "
            f"matrix with {a.ncols} columns and p={p}"
        )


def admissible_partitions(
    a: Matrix, generic: GenericPartitionSet, family: ShapeFamily
) -> AdmissiblePartitions:
    """Keep the generic partitions of lift(a) with an admissible shape and
    group them by part-sum matrix over a.

    The family is asked once per distinct shape, in lexicographic order of
    the shapes. Part sums are taken over a scaled by the common denominator
    of its entries, so they are exact integers: int64 when no sum can
    overflow it, Python integers (dtype=object) otherwise.
    """
    p = generic.p
    bits = _bits(generic.states, a.ncols)

    shapes = bits.sum(axis=2)
    order, new = _sort_rows(shapes)
    starts = np.flatnonzero(new).tolist()
    admitted = np.zeros(len(shapes), dtype=bool)
    for start, stop in zip(starts, starts[1:] + [len(order)]):
        if family.contains(tuple(shapes[order[start]].tolist())):
            admitted[order[start:stop]] = True
    rows = np.flatnonzero(admitted)

    k = a.nrows
    scale = lcm(*(x.denominator for x in a.flatten()))
    columns = [[x.numerator * (scale // x.denominator) for x in col] for col in a.columns()]
    bound = max((sum(map(abs, row)) for row in zip(*columns)), default=0)
    dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
    scaled = np.array(columns, dtype=dtype).reshape(a.ncols, k)
    group: list[int] = []
    keys: dict[tuple, int] = {}
    step = max(1, _CHUNK_ELEMENTS // max(1, p * a.ncols))
    for start in range(0, len(rows), step):
        sums = bits[rows[start:start + step]].astype(dtype) @ scaled
        for key in map(tuple, sums.reshape(len(sums), p * k).tolist()):
            group.append(keys.setdefault(key, len(keys)))
    matrices = [
        Matrix([[Fraction(key[j * k + r], scale) for j in range(p)] for r in range(k)], ncols=p)
        for key in keys
    ]
    return AdmissiblePartitions(generic, rows, group, matrices)


def candidate_vertices(
    a: Matrix,
    p: int,
    family: ShapeFamily,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> CandidateSet:
    """Matrices of admissible generic partitions of the lifted configuration.

    The returned set provably contains every vertex of the shaped partition
    polytope of (a, family).
    """
    check_family(a, p, family)
    perturbed = PerturbedMatrix(lift(a))
    masks = _two_partition_masks(perturbed, limits)
    generic = enumerate_generic_p_partitions(perturbed, p, limits, two_partition_masks=masks)
    admissible = admissible_partitions(a, generic, family)
    matrices = admissible.matrices
    if len(matrices) > limits.max_candidates:
        raise CapacityError("candidates", limits.max_candidates)
    grouped: list[list[Partition]] = [[] for _ in matrices]
    for pi, g in zip(admissible.partitions(), admissible.group):
        grouped[g].append(pi)

    order = sorted(range(len(matrices)), key=lambda g: matrices[g].flatten())
    return CandidateSet(
        members=tuple(matrices[g] for g in order),
        witnesses=tuple(tuple(grouped[g]) for g in order),
        two_partition_count=len(masks),
        generic_count=len(generic),
        admissible_count=len(admissible),
    )


def enumerate_vertices(
    a: Matrix,
    p: int,
    family: ShapeFamily,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> VertexReport:
    """All vertices of the shaped partition polytope, with witness partitions."""
    candidates = candidate_vertices(a, p, family, limits)
    keep = extreme_point_indices([m.flatten() for m in candidates.members])
    return VertexReport(
        vertices=tuple(candidates.members[i] for i in keep),
        witnesses=tuple(candidates.witnesses[i] for i in keep),
        candidates=candidates,
    )
