"""Command-line front end.

Subcommands: vertices, solve, count, check. Reports are JSON by default
(stable key order, canonical rational strings, 1-based indices); vertex
matrices can also be emitted as CSV, one row per vertex with row-major
entries. Exit codes: 0 ok, 2 input error, 3 capacity guard, 4 external oracle
failure, 5 self-check mismatch, 6 internal error (any other exception; a bug).
Each failure prints one "error:" line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .brute import brute_solve, brute_vertices
from .errors import CapacityError, DimensionError, OracleError, ProblemError
from .generic import EnumerationLimits
from .linalg import Matrix, format_rational
from .partitions import Partition
from .polytope import VertexReport, enumerate_vertices
from .problems import Problem, load_problem, problem_from_dict, random_instance_dict
from .solver import solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_ORACLE = 4
EXIT_MISMATCH = 5
EXIT_INTERNAL = 6


def matrix_payload(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.rows()]


def partition_payload(pi: Partition) -> list[list[int]]:
    return [list(block) for block in pi.blocks]


def _counts_payload(report: VertexReport) -> dict:
    candidates = report.candidates
    return {
        "two_partitions": candidates.two_partition_count,
        "generic_partitions": candidates.generic_count,
        "admissible_partitions": candidates.admissible_count,
        "candidates": len(candidates),
        "vertices": report.vertex_count,
    }


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ProblemError(f"cannot write {output}: {exc}") from exc


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(
        max_two_partitions=args.max_two_partitions,
        max_assembly_nodes=args.max_assembly_nodes,
        max_candidates=args.max_candidates,
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    defaults = EnumerationLimits()
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--max-two-partitions", type=int, default=defaults.max_two_partitions,
                        metavar="N", help="cap on enumerated generic 2-partitions")
    parser.add_argument("--max-candidates", type=int, default=defaults.max_candidates,
                        metavar="N", help="cap on enumerated candidate sets")
    parser.add_argument("--max-assembly-nodes", type=int, default=defaults.max_assembly_nodes,
                        metavar="N",
                        help="cap on (partial assembly, other part, word of 64 "
                             "2-partitions) tests during p-partition assembly")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state
    between calls (each returns a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="shapedparts",
        description="Exact vertex enumeration and convex maximization over "
                    "shaped partition polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vertices = sub.add_parser("vertices", help="enumerate all polytope vertices")
    p_vertices.add_argument("problem", help="problem file (JSON)")
    p_vertices.add_argument("--format", choices=("json", "csv"), default="json")
    p_vertices.add_argument("--with-partitions", action="store_true",
                            help="include witness partitions per vertex")
    _add_common_flags(p_vertices)

    p_solve = sub.add_parser("solve", help="maximize the objective over admissible partitions")
    p_solve.add_argument("problem", help="problem file (JSON) with an objective")
    _add_common_flags(p_solve)

    p_count = sub.add_parser("count", help="report enumeration and vertex counts")
    p_count.add_argument("problem", help="problem file (JSON)")
    _add_common_flags(p_count)

    p_check = sub.add_parser("check", help="cross-check the fast path against brute force")
    p_check.add_argument("problem", nargs="?", help="problem file (JSON)")
    p_check.add_argument("--random", type=int, metavar="COUNT",
                         help="check COUNT generated instances instead of a file")
    p_check.add_argument("--seed", type=int, default=0, metavar="N",
                         help="seed for the random-instance generator")
    p_check.add_argument("--force", action="store_true",
                         help="override the brute-force size guards")
    _add_common_flags(p_check)

    return parser


def _cmd_vertices(args) -> int:
    if args.format == "csv" and args.with_partitions:
        raise ProblemError("--with-partitions needs --format json")
    problem = load_problem(args.problem)
    report = enumerate_vertices(problem.matrix, problem.p, problem.family, _limits(args))
    if args.format == "csv":
        lines = [",".join(format_rational(x) for x in m.flatten()) for m in report.vertices]
        _emit("".join(line + "\n" for line in lines), args.output)
        return EXIT_OK
    payload = {
        "k": problem.k,
        "n": problem.n,
        "p": problem.p,
        "counts": _counts_payload(report),
        "vertices": [{"matrix": matrix_payload(m)} for m in report.vertices],
    }
    if args.with_partitions:
        for entry, witnesses in zip(payload["vertices"], report.witnesses):
            entry["partitions"] = [partition_payload(pi) for pi in witnesses]
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    if problem.objective is None:
        raise ProblemError("solve needs a problem file with an objective")
    try:
        report = solve(problem.matrix, problem.p, problem.family, problem.objective,
                       _limits(args))
    finally:
        problem.objective.close()
    payload = {
        "k": problem.k,
        "n": problem.n,
        "p": problem.p,
        "best_value": format_rational(report.best_value),
        "best_partition": partition_payload(report.best_partition),
        "best_matrix": matrix_payload(report.best_matrix),
        "evaluations": report.evaluations,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_count(args) -> int:
    problem = load_problem(args.problem)
    report = enumerate_vertices(problem.matrix, problem.p, problem.family, _limits(args))
    payload = {
        "k": problem.k,
        "n": problem.n,
        "p": problem.p,
        "counts": _counts_payload(report),
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _check_one(problem: Problem, args) -> dict:
    limits = _limits(args)
    report = enumerate_vertices(problem.matrix, problem.p, problem.family, limits)
    reference = brute_vertices(problem.matrix, problem.p, problem.family, force=args.force)

    scale = report.candidates.admissible.sums.scale
    candidate_keys = set(report.candidates.admissible.keys)
    # both sides share the PartSums scale, so every denominator divides it
    superset_ok = all(
        tuple(x.numerator * (scale // x.denominator) for x in m.flatten()) in candidate_keys
        for m in reference
    )
    vertices_ok = list(report.vertices) == reference

    result = {
        "k": problem.k,
        "n": problem.n,
        "p": problem.p,
        "vertices": report.vertex_count,
        "brute_vertices": len(reference),
        "vertices_match": vertices_ok,
        "candidates_cover_brute": superset_ok,
    }
    if not vertices_ok:
        brute_set, fast_set = set(reference), set(report.vertices)
        result["missing_from_fast"] = [
            matrix_payload(m) for m in reference if m not in fast_set
        ]
        result["extra_in_fast"] = [
            matrix_payload(m) for m in report.vertices if m not in brute_set
        ]
    if problem.objective is not None:
        try:
            fast_best = solve(problem.matrix, problem.p, problem.family,
                              problem.objective, limits).best_value
            brute_best = brute_solve(problem.matrix, problem.p, problem.family,
                                     problem.objective, force=args.force)
        finally:
            problem.objective.close()
        result["optimum"] = format_rational(fast_best)
        result["brute_optimum"] = format_rational(brute_best)
        result["optimum_match"] = fast_best == brute_best
    result["match"] = (
        vertices_ok and superset_ok and result.get("optimum_match", True)
    )
    return result


def _cmd_check(args) -> int:
    if (args.problem is None) == (args.random is None):
        raise ProblemError("check needs exactly one of: a problem file, or --random COUNT")
    results = []
    if args.problem is not None:
        results.append(_check_one(load_problem(args.problem), args))
    else:
        if args.random < 1:
            raise ProblemError("--random needs a positive count")
        for index in range(args.random):
            instance = random_instance_dict(args.seed, index)
            result = _check_one(problem_from_dict(instance), args)
            result["index"] = index
            results.append(result)
    all_match = all(r["match"] for r in results)
    payload = {
        "instances": len(results),
        "results": results,
        "status": "ok" if all_match else "mismatch",
    }
    _emit_json(payload, args.output)
    return EXIT_OK if all_match else EXIT_MISMATCH


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "vertices": _cmd_vertices,
        "solve": _cmd_solve,
        "count": _cmd_count,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ProblemError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
