"""Exact convex-position tests.

Membership of a point in the convex hull of finitely many generators is
decided exactly over the rationals. The decision procedure is certificate
based: a floating-point phase-one simplex proposes either a support for a
convex combination (membership) or a Farkas functional (separation), and the
proposal is then verified in exact arithmetic. When a proposed certificate
fails to verify, an exact phase-one simplex with Bland's rule settles the
question outright. Floats therefore only influence speed, never verdicts.

Verification of separating functionals multiplies every point by the common
denominator of the whole point set, so the strict inequalities are checked
on integers (via int64 matmuls when magnitude bounds allow, arbitrary
precision otherwise).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

try:
    from scipy.spatial import ConvexHull as _ConvexHull
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _ConvexHull = None

from .linalg import Matrix, solve_consistent

Point = tuple[Fraction, ...]

_FUNCTIONAL_SCALE = 1 << 24
_FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
_DENOMINATOR_CAP = 1 << 60
_INT64_GUARD = 1 << 62


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
    float_rows: the same as a float array (certificate proposals).
    int_rows: the lifted points scaled by their common denominator, when that
        denominator stays small enough; lets separation certificates be
        verified with integer arithmetic.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = list(points)
        self.lifted = [lift_point(p) for p in self.points]
        self.m = len(self.lifted[0]) if self.lifted else 1
        self.float_rows = np.array([[_safe_float(x) for x in lp] for lp in self.lifted]) \
            if self.lifted else np.zeros((0, self.m))
        self.int_rows: list[tuple[int, ...]] | None = None
        self._int_matrix: np.ndarray | None = None
        self._max_scaled = 0
        common = 1
        for lp in self.lifted:
            for x in lp:
                common = lcm(common, x.denominator)
                if common > _DENOMINATOR_CAP:
                    return
        self.int_rows = [tuple(int(x * common) for x in lp) for lp in self.lifted]
        self._max_scaled = max((max(abs(v) for v in row) for row in self.int_rows), default=0)
        if self.int_rows and self._max_scaled * _FUNCTIONAL_SCALE * self.m < _INT64_GUARD:
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
        rows = self.int_rows if self.int_rows is not None else self.lifted
        score = sum(c * x for c, x in zip(functional, rows[target]))
        for g in generator_indices:
            if sum(c * x for c, x in zip(functional, rows[g])) >= score:
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


def _propose_vertices(coords: np.ndarray) -> list[int]:
    """Float guess at the hull vertices; correctness never depends on it.

    The points are projected onto their (numerically estimated) affine span
    so the hull code sees a full-dimensional input. Any failure degrades to
    proposing everything.
    """
    count = coords.shape[0]
    if count <= 4 or _ConvexHull is None:
        return list(range(count))
    centered = coords - coords.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(singular.max(initial=0.0)))
    dim = int((singular > 1e-9 * scale).sum())
    if dim == 0:
        return [0]
    projected = centered @ vt[:dim].T
    if dim == 1:
        line = projected[:, 0]
        return sorted({int(np.argmin(line)), int(np.argmax(line))})
    try:
        try:
            hull = _ConvexHull(projected)
        except Exception:
            hull = _ConvexHull(projected, qhull_options="QJ")
        return sorted(int(v) for v in hull.vertices)
    except Exception:
        return list(range(count))


def extreme_point_indices(points: Sequence[Point]) -> list[int]:
    """Indices of the points that are vertices of the convex hull of all points.

    A float hull proposes the vertex set; every other point is then discarded
    only with an exactly verified convex-combination certificate against the
    current survivors, and a final exact purge pass removes any proposed
    point that is not extreme after all. The output is exact and independent
    of the proposal.
    """
    context = _HullContext(list(points))
    with np.errstate(all="ignore"):
        proposed = _propose_vertices(np.array([[_safe_float(x) for x in p] for p in points]))
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
