"""Exact maximization of a convex objective over shape-admissible partitions.

The convexity of the objective guarantees an optimum at a vertex of the
shaped partition polytope, and every vertex arises from a generic partition
of the lifted configuration, so scanning the admissible generic partitions
and querying the oracle once per candidate finds a global maximizer. Ties go
to the first maximizer in canonical enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .generic import DEFAULT_LIMITS, EnumerationLimits, PerturbedMatrix, enumerate_generic_p_partitions
from .linalg import Matrix
from .objectives import Objective
from .partitions import Partition, ShapeFamily, lift, partition_matrix, shape_of


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

    One query is spent per admissible generic partition, in canonical order,
    one at a time.
    """
    if family.n != a.ncols or family.p != p:
        raise DimensionError(
            f"shape family over n={family.n}, p={family.p} does not match "
            f"matrix with {a.ncols} columns and p={p}"
        )
    objective.check_compatible(a, p)
    perturbed = PerturbedMatrix(lift(a))
    generic_set = enumerate_generic_p_partitions(perturbed, p, limits)
    admissible = [pi for pi in generic_set if family.contains(shape_of(pi))]
    if not admissible:
        raise AssertionError(
            "no admissible generic partition found; impossible for a nonempty shape family"
        )
    matrices = [partition_matrix(a, pi) for pi in admissible]
    values = [objective.evaluate(m) for m in matrices]

    best_index = 0
    for i in range(1, len(values)):
        if values[i] > values[best_index]:
            best_index = i
    return SolveReport(
        best_partition=admissible[best_index],
        best_matrix=matrices[best_index],
        best_value=values[best_index],
        evaluations=len(admissible),
    )
