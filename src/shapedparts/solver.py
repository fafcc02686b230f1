"""Exact maximization of a convex objective over shape-admissible partitions.

The convexity of the objective guarantees an optimum at a vertex of the
shaped partition polytope, and every vertex arises from a generic partition
of the lifted configuration, so scanning the admissible generic partitions
and evaluating the objective at each one's part-sum matrix finds a global
maximizer. Ties go to the first maximizer in canonical enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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

    The objective is evaluated once per admissible generic partition, in
    canonical order, one at a time; `evaluations` counts those partitions.
    Partitions with equal part sums share one part-sum matrix, built once.
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
    # Part sums of scale * a are exact integer keys for the part-sum matrices.
    scale = lcm(*(x.denominator for x in a.flatten()))
    columns = [tuple(x.numerator * (scale // x.denominator) for x in col) for col in a.columns()]
    zero = (0,) * a.nrows
    matrices: dict[tuple, Matrix] = {}

    best_value = None
    for pi in admissible:
        key = tuple(
            tuple(map(sum, zip(zero, *(columns[i - 1] for i in block)))) for block in pi.blocks
        )
        matrix = matrices.get(key)
        if matrix is None:
            matrix = matrices[key] = partition_matrix(a, pi)
        value = objective.evaluate(matrix)
        if best_value is None or value > best_value:
            best_partition, best_matrix, best_value = pi, matrix, value
    return SolveReport(
        best_partition=best_partition,
        best_matrix=best_matrix,
        best_value=best_value,
        evaluations=len(admissible),
    )
