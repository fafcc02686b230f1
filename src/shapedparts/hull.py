"""Exact convex-position tests.

Membership of a point in the convex hull of finitely many generators is
decided by one exact procedure: a phase-one simplex with Bland's rule on
integers (``_integer_phase_one``). Every point set is lifted straight to
integer rows, the coordinates with a leading 1 times the common denominator
of the whole set, so no rational arithmetic is needed.

Floats only propose. A float phase-one simplex proposes either the support of
a convex combination, on whose columns alone the integer simplex then runs,
or a Farkas functional, whose strict separation is checked with one integer
matmul (int64 when magnitude bounds allow, Python integers otherwise). When
neither proposal holds, the integer simplex runs on all generators. Floats
therefore only influence speed, never verdicts.

Vertex filtering starts from a float proposal too: the points that maximize
one of a fixed set of directions (the coordinate axes both ways and a seeded
random set). The proposal only orders the work; every point is kept or
discarded by the exact membership test above.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

import numpy as np

Point = tuple[Fraction, ...]

_FUNCTIONAL_SCALE = 1 << 24
_FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
_INT64_GUARD = 1 << 62
_DIRECTION_SEED = 20240611


def _safe_float(x) -> float:
    """Clamped float view; garbage proposals just fail verification later."""
    try:
        return float(x)
    except OverflowError:
        return 1e300 if x > 0 else -1e300


def _integer_phase_one(rhs: Sequence[int], columns: Sequence[Sequence[int]]) -> bool:
    """Phase-one simplex with Bland's rule: is rhs a nonnegative combination
    of the columns? With lifted points this is hull membership, since the
    leading coordinate forces the weights to sum to 1. Always terminates.

    The tableau is fraction-free (Edmonds 1967, Bareiss 1968): every stored
    entry is denom times the true one, where denom is the absolute determinant
    of the current basis, so each pivot divides exactly and every sign test is
    a sign test on the true entry. One artificial column per row starts the
    basis; the last row holds the phase-one reduced costs and, in its last
    entry, minus the sum of the artificials.
    """
    m, ng = len(rhs), len(columns)
    width = ng + m
    rows = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1  # flip rows so the right-hand side is nonnegative
        rows.append([sign * col[i] for col in columns] + [0] * m + [sign * rhs[i]])
        rows[i][ng + i] = 1
    # Phase-one reduced costs; the artificials start basic with reduced cost 0.
    totals = [sum(col) for col in zip(*rows)]
    rows.append([-t for t in totals[:ng]] + [0] * m + [-totals[width]])
    basis = list(range(ng, width))
    denom = 1
    while True:
        enter = next((j for j in range(width) if rows[m][j] < 0), None)
        if enter is None:
            return rows[m][width] == 0
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # compare the ratios rhs / coeff by cross-multiplying (coeffs > 0)
                ours = rows[i][width] * rows[leave][enter]
                theirs = rows[leave][width] * coeff
                if ours < theirs or (ours == theirs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one simplex cannot be unbounded")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        for i, row in enumerate(rows):
            if i != leave:
                factor = row[enter]
                rows[i] = [(x * pivot - factor * y) // denom for x, y in zip(row, pivot_row)]
        denom = pivot
        basis[leave] = enter


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
    """Integer and float views of one point set.

    int_rows: per point, the coordinates with a leading 1, all multiplied by
        the common denominator of the whole set. The integer simplex decides
        on these rows, and separating functionals are verified on them.
    float_rows: the same rows unscaled as floats, from which the float simplex
        proposes supports and separating functionals and the direction scan
        proposes vertices.
    """

    def __init__(self, points: Sequence[Point]):
        m = 1 + (len(points[0]) if points else 0)
        self.float_rows = np.array([[1.0] + [_safe_float(x) for x in p] for p in points]) \
            if points else np.zeros((0, m))
        common = lcm(*(x.denominator for p in points for x in p))
        self.int_rows = [
            (common,) + tuple(x.numerator * (common // x.denominator) for x in p) for p in points
        ]
        max_scaled = max((abs(v) for row in self.int_rows for v in row), default=0)
        small = max_scaled * _FUNCTIONAL_SCALE * m < _INT64_GUARD
        self._int_matrix = np.array(self.int_rows, dtype=np.int64 if small else object)

    def _verify_separation(self, target: int, generator_indices: Sequence[int],
                           functional: Sequence[int]) -> bool:
        weights = np.array(functional, dtype=self._int_matrix.dtype)
        scores = self._int_matrix[[target, *generator_indices]] @ weights
        return bool((scores[1:] < scores[0]).all())

    def _decide(self, target: int, generator_indices: Sequence[int]) -> bool:
        return _integer_phase_one(
            self.int_rows[target], [self.int_rows[g] for g in generator_indices]
        )

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
                support = [gen_idx[i] for i in np.nonzero(payload > 1e-9)[0]]
                if self._decide(target, support):
                    return True
            else:
                farkas = np.where(flip, -payload, payload)
                peak = float(np.abs(farkas).max(initial=0.0))
                if peak > 0 and np.isfinite(peak):
                    functional = [round(float(x) * _FUNCTIONAL_SCALE / peak) for x in farkas]
                    if self._verify_separation(target, gen_idx, functional):
                        return False
        return self._decide(target, gen_idx)


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
