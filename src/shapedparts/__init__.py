"""Exact enumeration and optimization over shaped partition polytopes.

Given a k x n rational attribute matrix, a part count p, and a family of
admissible block-size shapes, this package enumerates all vertices of the
polytope spanned by the part-sum matrices of admissible ordered partitions,
and maximizes convex objective oracles over those partitions. All arithmetic
is exact; a brute-force reference oracle provides ground truth at tiny scale.
"""

from .brute import BruteVertices, brute_solve, brute_vertices, enumerate_all_partitions
from .errors import CapacityError, DimensionError, OracleError, ProblemError
from .generic import (
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    enumerate_generic_p_partitions,
)
from .linalg import Matrix
from .objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    Objective,
)
from .partitions import Partition, ShapeFamily, lift, ordered_partition, partition_matrix, shape_of
from .polytope import CandidateSet, VertexReport, candidate_vertices, enumerate_vertices
from .problems import Problem, load_problem, problem_from_dict
from .solver import SolveReport, solve

__version__ = "0.1.0"

__all__ = [
    "BruteVertices",
    "CandidateSet",
    "CapacityError",
    "ColumnPowerObjective",
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
    "ShapeFamily",
    "SolveReport",
    "VertexReport",
    "brute_solve",
    "brute_vertices",
    "candidate_vertices",
    "enumerate_all_partitions",
    "enumerate_generic_p_partitions",
    "enumerate_vertices",
    "lift",
    "load_problem",
    "ordered_partition",
    "partition_matrix",
    "problem_from_dict",
    "shape_of",
    "solve",
]
