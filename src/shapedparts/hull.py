"""Exact convex-position tests.

Membership of a point in the convex hull of finitely many generators is
decided exactly over the rationals. The decision procedure is certificate
based: a floating-point phase-one simplex proposes either a support for a
convex combination (membership) or a Farkas functional (separation), and the
proposal is then verified in exact arithmetic. When a proposed certificate
fails to verify, an exact phase-one simplex with Bland's rule settles the
question outright. Floats therefore only influence speed, never verdicts.

Vertex filtering starts from a float proposal: the points that maximize one
of a fixed set of directions (the coordinate axes both ways and a seeded
random set). The proposal only orders the work; every point is kept or
discarded by the exact membership test above.

Verification of separating functionals multiplies every point by the common
denominator of the whole point set, so the strict inequalities are checked
on integers: int64 matmuls when magnitude bounds allow, Python integers
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

import numpy as np

from .linalg import Matrix, solve_consistent

Point = tuple[Fraction, ...]

_FUNCTIONAL_SCALE = 1 << 24
_FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
_INT64_GUARD = 1 << 62
_DIRECTION_SEED = 20240611


def lift_point(point: Sequence[Fraction]) -> Point:
    """Prepend the coordinate 1, so affine combinations become linear ones."""
    return (Fraction(1),) + tuple(point)


def _safe_float(x) -> float:
    """Clamped float view; garbage proposals just fail verification later."""
    try:
        return float(x)
    except OverflowError:
        return 1e300 if x > 0 else -1e300


def exact_membership(target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Phase-one simplex with Bland's rule: is target in conv(generators)?

    Solves  sum_i mu_i * lifted(g_i) = lifted(target), mu >= 0  exactly; the
    lifted leading coordinate forces sum mu = 1. Always terminates.
    """
    if not generators:
        return False
    rhs = list(lift_point(target))
    columns = [list(lift_point(g)) for g in generators]
    m = len(rhs)
    for col in columns:
        if len(col) != m:
            raise ValueError("generator dimension mismatch")

    # Flip rows so the right-hand side is nonnegative; artificials form the basis.
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            for col in columns:
                col[i] = -col[i]

    ng = len(columns)
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        [columns[j][i] for j in range(ng)]
        + [one if t == i else zero for t in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    # Phase-one reduced-cost row; artificials start basic with zero reduced cost.
    obj = [-sum(tableau[i][j] for i in range(m)) for j in range(ng)] + [zero] * m
    obj_value = sum(rhs)
    basis = [ng + i for i in range(m)]

    while True:
        enter = next((j for j in range(ng + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][ng + m] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-one simplex cannot be unbounded")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for c in range(ng + m + 1):
            pivot_row[c] /= pivot
        for i in range(m):
            if i != leave and tableau[i][enter]:
                factor = tableau[i][enter]
                row = tableau[i]
                for c in range(ng + m + 1):
                    row[c] -= factor * pivot_row[c]
        factor = obj[enter]
        for c in range(ng + m):
            obj[c] -= factor * pivot_row[c]
        obj_value += factor * pivot_row[ng + m]
        basis[leave] = enter

    return obj_value == 0


def _float_phase_one(acols: np.ndarray, rhs: np.ndarray):
    """Float phase-one simplex on  A x = b, x >= 0  with b >= 0.

    Returns ("feasible", x) with a basic solution, ("infeasible", y) with a
    Farkas functional satisfying y.A <= 0 < y.b approximately, or None when
    the iteration cap or numerics give up.
    """
    m, ng = acols.shape
    tableau = np.hstack([acols, np.eye(m), rhs[:, None]])
    cost = np.concatenate([np.zeros(ng), np.ones(m)])
    basis = list(range(ng, ng + m))
    for _ in range(60 + 12 * m):
        reduced = cost[: ng + m] - cost[basis] @ tableau[:, : ng + m]
        enter = int(np.argmin(reduced))
        if reduced[enter] >= -_PIVOT_TOL:
            if cost[basis] @ tableau[:, -1] < _FEASIBILITY_TOL:
                x = np.zeros(ng)
                for row, var in enumerate(basis):
                    if var < ng:
                        x[var] = tableau[row, -1]
                return "feasible", x
            return "infeasible", cost[basis] @ tableau[:, ng: ng + m]
        col = tableau[:, enter]
        positive = col > _PIVOT_TOL
        if not positive.any():
            return None
        ratios = np.where(positive, tableau[:, -1] / np.where(positive, col, 1.0), np.inf)
        leave = int(np.argmin(ratios))
        tableau[leave] /= tableau[leave, enter]
        eliminate = tableau[:, enter].copy()
        eliminate[leave] = 0.0
        tableau -= np.outer(eliminate, tableau[leave])
        basis[leave] = enter
    return None


class _HullContext:
    """Shared exact and float views of one point set.

    lifted: per point, the Fraction tuple with a leading 1.
    float_rows: the same as a float array (certificate and vertex proposals).
    int_rows: the lifted points scaled by their common denominator, so that
        separation certificates are verified with integer arithmetic; held as
        an int64 array too when the products cannot overflow.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = list(points)
        self.lifted = [lift_point(p) for p in self.points]
        self.m = len(self.lifted[0]) if self.lifted else 1
        self.float_rows = np.array([[_safe_float(x) for x in lp] for lp in self.lifted]) \
            if self.lifted else np.zeros((0, self.m))
        common = lcm(*(x.denominator for lp in self.lifted for x in lp))
        self.int_rows = [
            tuple(x.numerator * (common // x.denominator) for x in lp) for lp in self.lifted
        ]
        max_scaled = max((abs(v) for row in self.int_rows for v in row), default=0)
        self._int_matrix: np.ndarray | None = None
        if max_scaled * _FUNCTIONAL_SCALE * self.m < _INT64_GUARD:
            self._int_matrix = np.array(self.int_rows, dtype=np.int64)

    def _verify_support(self, target: int, generator_indices: Sequence[int],
                        support: Sequence[int]) -> bool:
        if not support:
            return False
        columns = [self.lifted[generator_indices[i]] for i in support]
        mu = solve_consistent(Matrix.from_columns(columns), self.lifted[target])
        return mu is not None and all(x >= 0 for x in mu)

    def _verify_separation(self, target: int, generator_indices: Sequence[int],
                           functional: Sequence[int]) -> bool:
        if self._int_matrix is not None:
            weights = np.array(functional, dtype=np.int64)
            score = int(self._int_matrix[target] @ weights)
            others = self._int_matrix[np.asarray(generator_indices)] @ weights
            return score > int(others.max(initial=-(1 << 62)))
        score = sum(c * x for c, x in zip(functional, self.int_rows[target]))
        for g in generator_indices:
            if sum(c * x for c, x in zip(functional, self.int_rows[g])) >= score:
                return False
        return True

    def membership(self, target: int, generator_indices: Sequence[int]) -> bool:
        """Exact verdict: is point[target] in the hull of the indexed generators?"""
        if not generator_indices:
            return False
        gen_idx = list(generator_indices)
        rhs = self.float_rows[target].copy()
        acols = self.float_rows[gen_idx].T.copy()
        flip = rhs < 0
        rhs[flip] = -rhs[flip]
        acols[flip] = -acols[flip]

        # Overflow and NaN in the float proposal only spoil a certificate,
        # which then fails verification; numpy need not warn about them. The
        # state is set here so that every caller of membership is covered.
        with np.errstate(all="ignore"):
            outcome = _float_phase_one(acols, rhs)
        if outcome is not None:
            status, payload = outcome
            if status == "feasible":
                support = [int(i) for i in np.nonzero(payload > 1e-9)[0]]
                if self._verify_support(target, gen_idx, support):
                    return True
            else:
                farkas = np.where(flip, -payload, payload)
                peak = float(np.abs(farkas).max(initial=0.0))
                if peak > 0 and np.isfinite(peak):
                    functional = [round(float(x) * _FUNCTIONAL_SCALE / peak) for x in farkas]
                    if self._verify_separation(target, gen_idx, functional):
                        return False
        return exact_membership(
            self.points[target], [self.points[g] for g in gen_idx]
        )


@lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """The fixed proposal directions in R^dim: the coordinate axes both ways,
    then 64 * dim + 64 seeded Gaussian directions."""
    axes = np.eye(dim)
    rng = np.random.default_rng(_DIRECTION_SEED)
    return np.vstack([axes, -axes, rng.standard_normal((64 * dim + 64, dim))])


def _propose_vertices(coords: np.ndarray) -> list[int]:
    """Float guess at the hull vertices: each point that maximizes one of the
    fixed directions. Correctness never depends on it."""
    directions = _directions(coords.shape[1])
    picks: set[int] = set()
    if len(coords):
        # 64 directions at a time, so the score array stays small for big sets.
        for start in range(0, len(directions), 64):
            picks.update(np.argmax(coords @ directions[start:start + 64].T, axis=0).tolist())
    return sorted(picks)


def extreme_point_indices(points: Sequence[Point]) -> list[int]:
    """Indices of the points that are vertices of the convex hull of all points.

    The points that maximize a fixed direction are proposed as vertices; every
    other point is then discarded only with an exactly verified
    convex-combination certificate against the current survivors, and a final
    exact purge pass removes any proposed point that is not extreme after all.
    The output is exact and independent of the proposal.
    """
    context = _HullContext(list(points))
    with np.errstate(all="ignore"):
        proposed = _propose_vertices(context.float_rows[:, 1:])
    in_survivors = set(proposed)
    survivors: list[int] = list(proposed)
    for idx in range(len(points)):
        if idx in in_survivors:
            continue
        if not context.membership(idx, survivors):
            survivors.append(idx)
            in_survivors.add(idx)
    return sorted(
        v for v in survivors
        if not context.membership(v, [w for w in survivors if w != v])
    )
