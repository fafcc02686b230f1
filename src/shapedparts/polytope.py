"""Vertex enumeration of the shaped partition polytope.

Pipeline: lift the attribute matrix by the index row, enumerate the generic
partitions of the lifted configuration, keep the ones with an admissible
shape, map each survivor to its part-sum matrix over the original attribute
matrix, deduplicate, and finally filter the candidates down to the true
vertices with the exact convex-position test. Every vertex of the polytope is
guaranteed to appear among the candidates, so the filter is the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError, DimensionError
from .generic import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    PerturbedMatrix,
    _two_partition_masks,
    enumerate_generic_p_partitions,
)
from .hull import extreme_point_indices
from .linalg import Matrix
from .partitions import Partition, ShapeFamily, lift, partition_matrix, shape_of


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
    if family.n != a.ncols or family.p != p:
        raise DimensionError(
            f"shape family over n={family.n}, p={family.p} does not match "
            f"matrix with {a.ncols} columns and p={p}"
        )
    perturbed = PerturbedMatrix(lift(a))
    masks = _two_partition_masks(perturbed, limits)
    generic_set = enumerate_generic_p_partitions(perturbed, p, limits, two_partition_masks=masks)
    admissible = [pi for pi in generic_set if family.contains(shape_of(pi))]

    grouped: dict[tuple, tuple[Matrix, list[Partition]]] = {}
    for pi in admissible:
        matrix = partition_matrix(a, pi)
        key = matrix.flatten()
        if key in grouped:
            grouped[key][1].append(pi)
        else:
            grouped[key] = (matrix, [pi])
            if len(grouped) > limits.max_candidates:
                raise CapacityError("candidates", limits.max_candidates)

    ordered_keys = sorted(grouped)
    members = tuple(grouped[key][0] for key in ordered_keys)
    witnesses = tuple(tuple(grouped[key][1]) for key in ordered_keys)
    return CandidateSet(
        members=members,
        witnesses=witnesses,
        two_partition_count=len(masks),
        generic_count=len(generic_set),
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
