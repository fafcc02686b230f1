"""Exact maximization of a convex objective over shape-admissible partitions.

The convexity of the objective guarantees an optimum at a vertex of the
shaped partition polytope, and every vertex arises from a generic partition
of the lifted configuration, so scanning the admissible generic partitions
and evaluating the objective at each one's part-sum matrix finds a global
maximizer. Ties go to the first maximizer in canonical enumeration order.

The admissible generic partitions and their part-sum matrices come from
`polytope.admissible_partitions`, the stage `candidate_vertices` uses too:
one Matrix per distinct part-sum matrix, and a Partition object only for
the winner.
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
    canonical order, one at a time; `evaluations` counts those partitions.
    Partitions with equal part sums share one part-sum matrix, built once.
    """
    check_family(a, p, family)
    objective.check_compatible(a, p)
    generic = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p, limits)
    admissible = admissible_partitions(a, generic, family)
    if not admissible:
        raise DimensionError("shape family admits no partition")
    best_value = None
    for at, g in enumerate(admissible.group):
        value = objective.evaluate(admissible.matrices[g])
        if best_value is None or value > best_value:
            best_at, best_value = at, value
    return SolveReport(
        best_partition=admissible.partitions([best_at])[0],
        best_matrix=admissible.matrices[admissible.group[best_at]],
        best_value=best_value,
        evaluations=len(admissible),
    )
