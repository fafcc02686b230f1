"""Exact enumeration and optimization over shaped partition polytopes.

Given a k x n rational attribute matrix, a part count p, and a family of
admissible block-size shapes, this package enumerates all vertices of the
polytope spanned by the part-sum matrices of admissible ordered partitions,
and maximizes convex objective oracles over those partitions. All arithmetic
is exact; a brute-force reference oracle provides ground truth at tiny scale.
"""

from .brute import BruteResult, brute_report, brute_solve, brute_vertices, enumerate_all_partitions
from .errors import CapacityError, DimensionError, OracleError, ProblemError, SingularMatrixError
from .generic import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    SeparatorTriple,
    enumerate_generic_2partitions,
    enumerate_generic_p_partitions,
    generic_sign,
    partitions_from_triple,
    split_by_hyperplane,
)
from .linalg import (
    Matrix,
    Rational,
    as_rational,
    determinant,
    format_rational,
    rank,
    solve_linear,
    solve_vandermonde,
)
from .objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    Objective,
)
from .partitions import (
    Partition,
    Shape,
    ShapeFamily,
    enumerate_shapes,
    lift,
    ordered_partition,
    partition_matrix,
    shape_of,
)
from .polytope import CandidateSet, VertexReport, candidate_vertices, enumerate_vertices, is_vertex
from .problems import Problem, load_problem, problem_from_dict, random_problem
from .solver import SolveReport, solve

__version__ = "0.1.0"

__all__ = [
    "BruteResult",
    "CandidateSet",
    "CapacityError",
    "ColumnPowerObjective",
    "DEFAULT_LIMITS",
    "DiagonalPowerObjective",
    "DimensionError",
    "EnumerationLimits",
    "ExternalOracle",
    "GenericPartitionSet",
    "LinearObjective",
    "Matrix",
    "MaxCutObjective",
    "Objective",
    "OracleError",
    "Partition",
    "PerturbedMatrix",
    "Problem",
    "ProblemError",
    "Rational",
    "SeparatorTriple",
    "Shape",
    "ShapeFamily",
    "SingularMatrixError",
    "SolveReport",
    "VertexReport",
    "as_rational",
    "brute_report",
    "brute_solve",
    "brute_vertices",
    "candidate_vertices",
    "determinant",
    "enumerate_all_partitions",
    "enumerate_generic_2partitions",
    "enumerate_generic_p_partitions",
    "enumerate_shapes",
    "enumerate_vertices",
    "format_rational",
    "generic_sign",
    "is_vertex",
    "lift",
    "load_problem",
    "ordered_partition",
    "partition_matrix",
    "partitions_from_triple",
    "problem_from_dict",
    "random_problem",
    "rank",
    "shape_of",
    "solve",
    "solve_linear",
    "solve_vandermonde",
    "split_by_hyperplane",
]
