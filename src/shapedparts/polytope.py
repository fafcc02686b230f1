"""Vertex enumeration of the shaped partition polytope.

Pipeline: lift the attribute matrix by the index row, enumerate the generic
partitions of the lifted configuration, keep the ones with an admissible
shape, map each survivor to its part-sum matrix over the original attribute
matrix, deduplicate, and finally filter the candidates down to the true
vertices with the exact convex-position test. Every vertex of the polytope is
guaranteed to appear among the candidates, so the filter is the whole story.

The admissible filter, the part sums and their grouping form one stage,
`admissible_partitions`, which `solver.solve` shares and whose one result,
a `CandidateSet`, `candidate_vertices` returns as it is. The stage works on
the generic set's 0/1 block array and leaves both steps to `partitions`:
shape admission to `ShapeFamily.admitted`, which asks the family once per
distinct shape in order of first occurrence in the canonical order, and the
chunked part sums to `PartSums.keys`. Each distinct part-sum matrix is held
as one integer key, which the hull filter takes as it is, and a vertex is
reported by its candidate number. Matrix objects for the vertices and
Partition objects for their witnesses are built only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .generic import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    _two_partition_masks,
    enumerate_generic_p_partitions,
)
from .hull import extreme_point_indices
from .linalg import Matrix
from .partitions import Partition, PartSums, ShapeFamily, lift


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The admissible generic partitions, in canonical order, grouped by
    part-sum matrix; the distinct matrices are the candidates.

    rows[i] is the position of admissible partition i in `generic`, and
    group[i] numbers its part-sum matrix. keys[g] is the key of candidate
    number g under `sums`; the keys are distinct and in lexicographic order,
    which is also the order of the matrices. len() counts the candidates;
    members, the candidate matrices in that order, are built on first use.
    """

    generic: GenericPartitionSet
    rows: np.ndarray
    group: list[int]
    keys: list[tuple[int, ...]]
    sums: PartSums

    @property
    def two_partition_count(self) -> int | None:
        return self.generic.two_partition_count

    @property
    def generic_count(self) -> int:
        return len(self.generic)

    @property
    def admissible_count(self) -> int:
        return len(self.group)

    def __len__(self) -> int:
        return len(self.keys)

    def matrix(self, g: int) -> Matrix:
        """Candidate matrix number g, built now."""
        return self.sums.matrix(self.keys[g])

    @cached_property
    def members(self) -> tuple[Matrix, ...]:
        return tuple(map(self.matrix, range(len(self))))


@dataclass(frozen=True, eq=False)
class VertexReport:
    """The vertices, as the candidate numbers the hull filter kept, in
    canonical order, and the candidate set they were filtered from, with the
    earlier counts. vertices[i], the matrix of candidate numbers[i], and
    witnesses[i], every admissible generic partition with that part-sum
    matrix in the generic set's order, are built on first read."""

    candidates: CandidateSet
    numbers: list[int]

    @property
    def vertex_count(self) -> int:
        return len(self.numbers)

    @cached_property
    def vertices(self) -> tuple[Matrix, ...]:
        return tuple(map(self.candidates.matrix, self.numbers))

    @cached_property
    def witnesses(self) -> tuple[tuple[Partition, ...], ...]:
        """Built in one selection from the generic set."""
        candidates = self.candidates
        witnesses: dict[int, list[Partition]] = {g: [] for g in self.numbers}
        chosen = [i for i, g in enumerate(candidates.group) if g in witnesses]
        for i, pi in zip(chosen, candidates.generic.select(candidates.rows[chosen])):
            witnesses[candidates.group[i]].append(pi)
        return tuple(tuple(witnesses[g]) for g in self.numbers)


def admissible_partitions(
    a: Matrix,
    generic: GenericPartitionSet,
    family: ShapeFamily,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> CandidateSet:
    """Keep the generic partitions of lift(a) with an admissible shape and
    group them by part-sum matrix over a; the candidate set of both
    `candidate_vertices` and `solver.solve`.

    The family, which must be over a.ncols and generic.p, is asked once per
    distinct shape, in order of first occurrence among the generic
    partitions. More than limits.max_candidates distinct part-sum matrices
    raise CapacityError.
    """
    rows = np.flatnonzero(family.admitted(generic.blocks, {}))
    sums = PartSums(a, generic.p)
    found = sums.keys(generic.blocks[rows])
    keys = sorted(set(found))
    if len(keys) > limits.max_candidates:
        raise CapacityError("candidates", limits.max_candidates, len(keys))
    number = {key: g for g, key in enumerate(keys)}
    return CandidateSet(generic, rows, [number[key] for key in found], keys, sums)


def candidate_vertices(
    a: Matrix,
    p: int,
    family: ShapeFamily,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> CandidateSet:
    """The `admissible_partitions` of the generic p-partitions of lift(a).

    The candidates provably include every vertex of the shaped partition
    polytope of (a, family). The masks are passed on at every p, so the
    2-partition count is set at p = 1 too.
    """
    family.check(a.ncols, p)
    perturbed = PerturbedMatrix(lift(a))
    masks = _two_partition_masks(perturbed, limits)
    generic = enumerate_generic_p_partitions(perturbed, p, limits, two_partition_masks=masks)
    return admissible_partitions(a, generic, family, limits)


def enumerate_vertices(
    a: Matrix,
    p: int,
    family: ShapeFamily,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> VertexReport:
    """All vertices of the shaped partition polytope, with witness partitions.

    The hull filter runs on the integer keys; the report keeps the numbers of
    the candidates it returns and builds matrices and witnesses when read."""
    candidates = candidate_vertices(a, p, family, limits)
    sums = candidates.sums
    return VertexReport(candidates, extreme_point_indices(candidates.keys, sums.scale, sums.p))
