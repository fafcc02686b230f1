"""Exact maximization of a convex objective over shape-admissible partitions.

The convexity of the objective guarantees an optimum at a vertex of the
shaped partition polytope, and every vertex arises from a generic partition
of the lifted configuration, so scanning the admissible generic partitions
and evaluating the objective at each one's part-sum matrix finds a global
maximizer. Ties go to the first maximizer in canonical enumeration order.

The admissible generic partitions and their part-sum matrices come from
`polytope.admissible_partitions`, as the `CandidateSet` that
`candidate_vertices` returns too. It holds each distinct part-sum matrix as
an integer key. solve hands the key of every admissible partition, in
canonical order, to the objective's `evaluate_keys` in one call. The
report keeps the winner's 0/1 block row and part-sum key, not the candidate
set, and builds the winner's Matrix and Partition objects on first read, so
a caller that reads only `best_value`, as `check` does, builds neither. How
each kind of objective computes that batch is described in `objectives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .generic import DEFAULT_LIMITS, EnumerationLimits, PerturbedMatrix, enumerate_generic_p_partitions
from .linalg import Matrix
from .objectives import Objective
from .partitions import Partition, PartSums, ShapeFamily, lift, partitions_from_blocks
from .polytope import admissible_partitions


@dataclass(frozen=True, eq=False)
class SolveReport:
    """The maximum, `best_value`, and the number of admissible partitions
    scanned, `evaluations`. The winner is kept as its (p, n) 0/1 block row
    and its part-sum key under `sums`; `best_partition` and `best_matrix`
    are built from them on first read."""

    best_value: Fraction
    evaluations: int
    best_blocks: np.ndarray
    best_key: tuple[int, ...]
    sums: PartSums

    @cached_property
    def best_partition(self) -> Partition:
        return partitions_from_blocks(self.best_blocks[None])[0]

    @cached_property
    def best_matrix(self) -> Matrix:
        return self.sums.matrix(self.best_key)


def solve(
    a: Matrix,
    p: int,
    family: ShapeFamily,
    objective: Objective,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> SolveReport:
    """Return a shape-admissible partition maximizing the objective.

    The objective is evaluated once per admissible generic partition, in
    canonical order, through one `evaluate_keys` call; `evaluations` counts
    those partitions. The objective is a function of the part-sum matrix, so
    the winner is picked among the first partition of each matrix. More than
    limits.max_candidates distinct part-sum matrices raise CapacityError.
    """
    family.check(a.ncols, p)
    objective.check_compatible(a, p)
    generic = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p, limits)
    candidates = admissible_partitions(a, generic, family, limits)
    if not candidates.admissible_count:
        raise DimensionError("shape family admits no partition")
    keys, group = candidates.keys, candidates.group
    values = objective.evaluate_keys([keys[g] for g in group], candidates.sums.scale, p)
    # Partitions with one part-sum matrix share its value, so only the first
    # of each is compared. The firsts are inserted in canonical order, and
    # max keeps the first maximizer.
    first_at: dict[int, int] = {}
    for i, g in enumerate(group):
        first_at.setdefault(g, i)
    best_at = max(first_at.values(), key=values.__getitem__)
    return SolveReport(
        best_value=values[best_at],
        evaluations=candidates.admissible_count,
        # a copy, so the report keeps no view of the generic block array
        best_blocks=generic.blocks[candidates.rows[best_at]].copy(),
        best_key=keys[group[best_at]],
        sums=candidates.sums,
    )
