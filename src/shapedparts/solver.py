"""Exact maximization of a convex objective over shape-admissible partitions.

The convexity of the objective guarantees an optimum at a vertex of the
shaped partition polytope, and every vertex arises from a generic partition
of the lifted configuration, so scanning the admissible generic partitions
and evaluating the objective at each one's part-sum matrix finds a global
maximizer. Ties go to the first maximizer in canonical enumeration order.

The admissible generic partitions and their part-sum matrices come from
`polytope.admissible_partitions`, the stage `candidate_vertices` uses too.
It holds each distinct part-sum matrix as an integer key. solve hands the
key of every admissible partition, in canonical order, to the objective's
`evaluate_keys` in one call, and builds a Matrix and a Partition object for
the winner only. How each kind of objective computes that batch is
described in `objectives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .generic import DEFAULT_LIMITS, EnumerationLimits, PerturbedMatrix, enumerate_generic_p_partitions
from .linalg import Matrix
from .objectives import Objective
from .partitions import Partition, ShapeFamily, lift
from .polytope import admissible_partitions, check_family


@dataclass(frozen=True)
class SolveReport:
    best_partition: Partition
    best_matrix: Matrix
    best_value: Fraction
    evaluations: int


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
    check_family(a, p, family)
    objective.check_compatible(a, p)
    generic = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p, limits)
    admissible = admissible_partitions(a, generic, family, limits)
    if not admissible:
        raise DimensionError("shape family admits no partition")
    keys = admissible.keys
    values = objective.evaluate_keys([keys[g] for g in admissible.group], admissible.sums.scale, p)
    # Partitions with one part-sum matrix share its value, so only the first
    # of each is compared. The firsts are inserted in canonical order, and
    # max keeps the first maximizer.
    first_at: dict[int, int] = {}
    for i, g in enumerate(admissible.group):
        first_at.setdefault(g, i)
    best_at = max(first_at.values(), key=values.__getitem__)
    return SolveReport(
        best_partition=generic.select(admissible.rows[[best_at]])[0],
        best_matrix=admissible.matrix(admissible.group[best_at]),
        best_value=values[best_at],
        evaluations=len(admissible),
    )
