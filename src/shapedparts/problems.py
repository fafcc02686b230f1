"""Problem files: parsing, validation, and the seeded instance generator.

A problem is one JSON document:

    {
      "matrix":    [[...], ...],          k rows of n exact scalars
      "p":         2,
      "shapes":    {"type": "all"}
                   | {"type": "list", "shapes": [[...], ...]}
                   | {"type": "bounds", "lower": [...], "upper": [...]},
      "objective": optional, one of
                   {"type": "linear", "cost": [[...], ...]}
                   | {"type": "sum_diag_pow", "q": 2}
                   | {"type": "sum_column_norm_pow", "q": 2}
                   | {"type": "max_cut", "edges": [[1,2], ...]}
                   | {"type": "external", "cmd": ["prog", "arg", ...]}
    }

Scalars are integers, decimal strings ("0.6" parses to 3/5 exactly), or "a/b"
strings. JSON floats are re-read as decimal strings so nothing ever rounds.
All element indices are 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionError, ProblemError
from .linalg import Matrix, decode_json
from .objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    Objective,
)
from .partitions import ShapeFamily, compositions


@dataclass
class Problem:
    matrix: Matrix
    p: int
    family: ShapeFamily
    objective: Objective | None

    @property
    def k(self) -> int:
        return self.matrix.nrows

    @property
    def n(self) -> int:
        return self.matrix.ncols


def _parse_matrix(raw, what: str) -> Matrix:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ProblemError(f"{what} must be a non-empty array of rows")
    try:
        return Matrix(raw)
    except (ValueError, DimensionError) as exc:
        raise ProblemError(f"bad {what}: {exc}") from exc


def _parse_shapes(raw, n: int, p: int) -> ShapeFamily:
    if not isinstance(raw, dict) or "type" not in raw:
        raise ProblemError('shapes must be an object with a "type" key')
    kind = raw["type"]
    try:
        if kind == "all":
            return ShapeFamily.all_shapes(n, p)
        if kind == "list":
            shapes = raw.get("shapes")
            if not isinstance(shapes, list):
                raise ProblemError('shapes of type "list" need a "shapes" array')
            return ShapeFamily.explicit(shapes, n, p)
        if kind == "bounds":
            lower, upper = raw.get("lower"), raw.get("upper")
            if not isinstance(lower, list) or not isinstance(upper, list):
                raise ProblemError('shapes of type "bounds" need "lower" and "upper" arrays')
            if len(lower) != p or len(upper) != p:
                raise ProblemError(f"bounds must have {p} entries")
            return ShapeFamily.bounds(lower, upper, n)
    except ProblemError:
        raise
    except (ValueError, TypeError) as exc:  # DimensionError, or a bad entry
        raise ProblemError(f"bad shape family: {exc}") from exc
    raise ProblemError(f"unknown shape family type {kind!r}")


def _parse_objective(raw) -> Objective:
    if not isinstance(raw, dict) or "type" not in raw:
        raise ProblemError('objective must be an object with a "type" key')
    kind = raw["type"]
    try:
        if kind == "linear":
            return LinearObjective(_parse_matrix(raw.get("cost"), "objective cost"))
        if kind == "sum_diag_pow":
            return DiagonalPowerObjective(raw.get("q"))
        if kind == "sum_column_norm_pow":
            return ColumnPowerObjective(raw.get("q"))
        if kind == "max_cut":
            edges = raw.get("edges")
            if not isinstance(edges, list):
                raise ProblemError('objective "max_cut" needs an "edges" array')
            return MaxCutObjective(edges)
        if kind == "external":
            cmd = raw.get("cmd")
            if not isinstance(cmd, list) or not cmd or not all(isinstance(c, str) for c in cmd):
                raise ProblemError('objective "external" needs a non-empty "cmd" array of strings')
            return ExternalOracle(cmd)
    except ProblemError:
        raise
    except (ValueError, TypeError) as exc:  # DimensionError, or a bad edge
        raise ProblemError(f"bad objective: {exc}") from exc
    raise ProblemError(f"unknown objective type {kind!r}")


def problem_from_dict(raw: dict) -> Problem:
    if not isinstance(raw, dict):
        raise ProblemError("problem document must be a JSON object")
    for key in ("matrix", "p", "shapes"):
        if key not in raw:
            raise ProblemError(f'problem is missing the "{key}" key')
    matrix = _parse_matrix(raw["matrix"], "matrix")
    p = raw["p"]
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ProblemError(f'"p" must be a positive integer, got {p!r}')
    family = _parse_shapes(raw["shapes"], matrix.ncols, p)
    objective = None
    if raw.get("objective") is not None:
        objective = _parse_objective(raw["objective"])
        try:
            objective.check_compatible(matrix, p)
        except DimensionError as exc:
            raise ProblemError(f"objective incompatible with instance: {exc}") from exc
    return Problem(matrix=matrix, p=p, family=family, objective=objective)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = decode_json(handle.read())
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, bad UTF-8, and integer literals past Python's
        # digit limit all surface as ValueError; nesting past the
        # decoder's depth limit as RecursionError.
        raise ProblemError(f"{path} is not valid JSON: {exc}") from exc
    return problem_from_dict(raw)


def random_instance_dict(seed: int, index: int) -> dict:
    """One deterministic random instance in problem-file form.

    Sizes stay within the brute-force guards (k <= 2, n <= 7, p <= 3), entries
    are integers in [-5, 5], and the shape family cycles through all three
    declarative kinds. Objectives alternate between a random linear functional
    and an even column power sum.
    """
    rng = random.Random(seed * 1_000_003 + index)
    k = rng.randint(1, 2)
    n = rng.randint(2, 7)
    p = rng.choice([1, 2, 2, 3, 3])
    matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]

    kind = ("all", "list", "bounds")[index % 3]
    if kind == "all":
        shapes: dict = {"type": "all"}
    elif kind == "list":
        all_shapes = list(compositions(n, p))
        count = rng.randint(1, min(4, len(all_shapes)))
        chosen = sorted(rng.sample(all_shapes, count))
        shapes = {"type": "list", "shapes": [list(s) for s in chosen]}
    else:
        base = sorted(rng.sample(list(compositions(n, p)), 1))[0]
        lower = [max(0, x - rng.randint(0, 2)) for x in base]
        upper = [x + rng.randint(0, 2) for x in base]
        shapes = {"type": "bounds", "lower": lower, "upper": upper}

    instance = {"matrix": matrix, "p": p, "shapes": shapes}
    if index % 2 == 0:
        cost = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(k)]
        instance["objective"] = {"type": "linear", "cost": cost}
    else:
        instance["objective"] = {"type": "sum_column_norm_pow", "q": rng.choice([2, 4])}
    return instance
