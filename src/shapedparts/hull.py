"""Exact convex-position tests.

Membership of a point in the convex hull of finitely many generators is
decided by one exact procedure: a phase-one simplex with Bland's rule on
integers (``_integer_phase_one``). Points arrive as integer rows with one
common positive scale, the pair ``linalg.integer_rows`` returns, and each
point is its row divided by the scale. Every row is lifted by a leading
scale, so no rational arithmetic is needed. Only an exact basis of those
lifted columns is kept (affine-hull coordinates): the projection is injective
on the span of the lifted points, so it changes no verdict, and every simplex
and proposal runs without the redundant coordinates.

Floats only propose. ``_HullContext.inside`` tests many targets against one
set of generators at once, each target against the generators other than
itself. One float phase-one simplex, batched over the targets
(``_float_phase_one``), proposes per target either the support of a convex
combination, on whose columns alone the integer simplex then runs, or a
Farkas functional, whose strict separation is checked for all targets with
one integer matmul (int64 when magnitude bounds allow, Python integers
otherwise). The integer simplex on all generators decides the rest, so
floats only influence speed, never verdicts.

A set of affine dimension at most 2 needs neither floats nor a simplex: on
its kept integer coordinates, comparisons decide dimension 0 and 1, and
Andrew's monotone chain, with integer orientation tests, decides dimension 2.

From dimension 3 on, the vertices are the points outside the hull of the
others, one membership test per point, run in batches (Dulá and Helgason,
EJOR 1996). A float scan proposes the points that maximize one of a fixed
set of directions (a seeded random set and the coordinate axes both ways);
every other point is tested against the proposed ones, and the proposed
points, with the points found outside them, are then tested against each
other.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .linalg import fraction_free_elimination, integer_array

_FUNCTIONAL_SCALE = 1 << 24
_FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
_DIRECTION_SEED = 20240611
# Bound on the entries of one chunk of float tableaux or integer scores.
_CHUNK_ELEMENTS = 1 << 16


def _safe_ratio(x: int, scale: int) -> float:
    """Clamped float view of x / scale; garbage proposals just fail verification later."""
    try:
        return x / scale
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


def _float_phase_one(acols: np.ndarray, rhs: np.ndarray, excluded: np.ndarray) -> list:
    """Batched float phase-one simplex: for each row b of rhs, is A x = b,
    x >= 0 feasible, with A = acols, without the column excluded names for
    that row (an index into acols' columns, or -1 for none)?

    Returns one outcome per row: ("feasible", support) with the sorted column
    indices of a basic solution's positive entries, ("infeasible", y) with a
    Farkas functional satisfying y.A <= 0 < y.b approximately, or None when
    the iteration cap or numerics give up. Every row runs its own simplex: its
    own sign flips (so its right-hand side is nonnegative), basis and pivots
    (entering by the most negative reduced cost, leaving by the first smallest
    ratio). Rows that finish drop out, and the rows run in chunks of at most
    _CHUNK_ELEMENTS tableau entries.

    An excluded column is zero in its row's tableau, so it never enters, and
    the outcome is the one without the column; supports keep the column
    numbering of acols.
    """
    m, ng = acols.shape
    width = ng + m + 1
    outcomes: list = [None] * len(rhs)
    step = max(1, _CHUNK_ELEMENTS // ((m + 1) * width))
    for start in range(0, len(rhs), step):
        chunk = rhs[start:start + step]
        flip = np.where(chunk < 0, -1.0, 1.0)
        # Row m of each tableau holds the phase-one reduced costs and, in its
        # last entry, minus the sum of the artificials, which start basic.
        tableau = np.zeros((len(chunk), m + 1, width))
        tableau[:, :m, :ng] = flip[:, :, None] * acols
        tableau[:, :m, ng:ng + m] = np.eye(m)
        tableau[:, :m, -1] = flip * chunk
        skip = excluded[start:start + step]
        hit = np.flatnonzero(skip >= 0)
        tableau[hit, :m, skip[hit]] = 0.0
        tableau[:, m] = -tableau[:, :m].sum(axis=1)
        tableau[:, m, ng:ng + m] = 0.0
        basis = np.tile(np.arange(ng, ng + m), (len(chunk), 1))
        rows = np.arange(start, start + len(chunk))
        for _ in range(60 + 12 * m):
            if not len(rows):
                break
            at = np.arange(len(rows))
            reduced = tableau[:, m, :-1]
            enter = reduced.argmin(axis=1)
            done = reduced[at, enter] >= -_PIVOT_TOL
            for i in np.flatnonzero(done).tolist():
                if -tableau[i, m, -1] < _FEASIBILITY_TOL:
                    positive = (basis[i] < ng) & (tableau[i, :m, -1] > 1e-9)
                    outcomes[rows[i]] = ("feasible", np.sort(basis[i, positive]))
                else:
                    outcomes[rows[i]] = ("infeasible", flip[i] * (1.0 - tableau[i, m, ng:ng + m]))
            col = tableau[at, :m, enter]
            positive = col > _PIVOT_TOL
            ratios = np.where(positive, tableau[:, :m, -1] / np.where(positive, col, 1.0), np.inf)
            live = ~done & positive.any(axis=1)  # no positive entry: give up on the row
            if not live.all():
                tableau, basis, rows, flip = tableau[live], basis[live], rows[live], flip[live]
                enter, ratios = enter[live], ratios[live]
                at = np.arange(len(rows))
            leave = ratios.argmin(axis=1)
            pivot_row = tableau[at, leave] / tableau[at, leave, enter][:, None]
            factor = tableau[at, :, enter]
            factor[at, leave] = 0.0
            tableau -= factor[:, :, None] * pivot_row[:, None, :]
            tableau[at, leave] = pivot_row
            basis[at, leave] = enter
    return outcomes


class _HullContext:
    """Integer and float views of one point set, in affine-hull coordinates.

    Each integer row is lifted by a leading scale, which makes it the point's
    coordinates with a leading 1, times the scale. Of those lifted columns
    only an exact basis is kept: the pivot columns of the lifted rows' Gram
    matrix, which has the same column dependencies. Every dropped column is a
    fixed combination of the kept ones on the span of the lifted rows, so the
    projection is injective there and hull membership and strict separation
    are unchanged; the leading column is always kept.

    int_rows: per point, the kept integer coordinates. The integer simplex
        decides on these rows, and separating functionals are verified on them.
    float_rows: the same coordinates divided by the scale, as floats, from
        which the float simplex proposes supports and separating functionals
        and the direction scan proposes vertices.

    float_rows and the integer matrix that separations are verified on are
    built on first use: a point set of affine dimension at most 2 is decided
    on int_rows alone (`_low_dimensional_vertices`) and never builds them.
    """

    def __init__(self, rows: Sequence[Sequence[int]], scale: int):
        lifted = [[scale, *row] for row in rows]
        self._max_scaled = max((abs(v) for row in lifted for v in row), default=0)
        exact = integer_array(lifted, self._max_scaled ** 2 * len(lifted))
        self._pivots = fraction_free_elimination((exact.T @ exact).tolist())
        self.int_rows = [tuple(row[j] for j in self._pivots) for row in lifted]
        self._rows, self._scale = rows, scale

    @cached_property
    def float_rows(self) -> np.ndarray:
        return np.array([[1.0] + [_safe_ratio(x, self._scale) for x in row]
                         for row in self._rows])[:, self._pivots]

    @cached_property
    def _int_matrix(self) -> np.ndarray:
        return integer_array(self.int_rows,
                             self._max_scaled * _FUNCTIONAL_SCALE * len(self._pivots))

    def _verify_separation(self, targets: Sequence[int], generator_indices: Sequence[int],
                           functionals: np.ndarray) -> np.ndarray:
        """Per target, exactly: does its integer functional score it strictly
        above every generator other than the target itself?"""
        weights = np.asarray(functionals, dtype=np.int64).astype(self._int_matrix.dtype)
        generators = np.asarray(generator_indices, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        own = (self._int_matrix[targets] * weights).sum(axis=1)
        separated = np.empty(len(targets), dtype=bool)
        # targets at a time, so the score array stays within _CHUNK_ELEMENTS
        step = max(1, _CHUNK_ELEMENTS // max(1, len(generators)))
        for start in range(0, len(targets), step):
            part = slice(start, start + step)
            scores = self._int_matrix[generators] @ weights[part].T
            beaten = (scores >= own[part]) & (generators[:, None] != targets[None, part])
            separated[part] = ~beaten.any(axis=0)
        return separated

    def _decide(self, target: int, generator_indices: Sequence[int]) -> bool:
        return _integer_phase_one(
            self.int_rows[target], [self.int_rows[g] for g in generator_indices]
        )

    def inside(self, targets: Sequence[int], generator_indices: Sequence[int]) -> list[bool]:
        """Exact verdict per target: is it in the hull of the indexed
        generators other than itself?

        One batched float simplex proposes per target a support, which the
        integer simplex decides on its columns alone, or a Farkas functional,
        which _verify_separation checks for all targets at once. The integer
        simplex on the generators decides the rest. Where targets are
        generators too, their points must be distinct: a target found inside
        is then no vertex, so it leaves the generators of these last
        decisions without changing the hull or any verdict.
        """
        targets, generators = list(targets), list(generator_indices)
        verdicts = [False] * len(targets)
        if not targets or not generators:
            return verdicts
        column = {g: j for j, g in enumerate(generators)}
        excluded = np.array([column.get(t, -1) for t in targets])
        farkas = np.zeros((len(targets), self.float_rows.shape[1]))
        # Overflow and NaN in the float proposal only spoil a proposal, which
        # then fails its exact check; numpy need not warn about them.
        with np.errstate(all="ignore"):
            outcomes = _float_phase_one(self.float_rows[generators].T,
                                        self.float_rows[targets], excluded)
        for j, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            status, payload = outcome
            if status == "feasible":
                verdicts[j] = self._decide(targets[j], [generators[i] for i in payload])
            else:
                farkas[j] = payload
        # Every lifted point has the same leading coordinate, so it adds the
        # same score to all of them: left out, it takes no precision from the
        # rounding of the other entries.
        farkas[:, 0] = 0.0
        undecided = [j for j, sure in enumerate(verdicts) if not sure]
        separated = self._verify_separation([targets[j] for j in undecided], generators,
                                            _round_functionals(farkas[undecided]))
        found = {t for t, sure in zip(targets, verdicts) if sure}
        remaining = [g for g in generators if g not in found]
        for j, sure in zip(undecided, separated.tolist()):
            if not sure:
                target = targets[j]
                verdicts[j] = self._decide(target, [g for g in remaining if g != target])
                if verdicts[j]:
                    remaining = [g for g in remaining if g != target]
        return verdicts


def _round_functionals(vectors: np.ndarray) -> np.ndarray:
    """Each row scaled to a largest entry of _FUNCTIONAL_SCALE and rounded to
    integers (as floats); rows that are zero or not finite become zero."""
    with np.errstate(all="ignore"):
        peak = np.abs(vectors).max(axis=1, initial=0.0)
        usable = (peak > 0) & np.isfinite(peak)
        scaled = np.rint(vectors * (_FUNCTIONAL_SCALE / np.where(usable, peak, 1.0))[:, None])
    scaled[~usable] = 0.0
    return scaled


@lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """The fixed proposal directions in R^dim: 64 * dim + 64 seeded Gaussian
    directions, then the coordinate axes both ways. Only the set of points
    that maximize one of them is used, so their order does not matter."""
    axes = np.eye(dim)
    rng = np.random.default_rng(_DIRECTION_SEED)
    return np.vstack([rng.standard_normal((64 * dim + 64, dim)), axes, -axes])


def _propose_vertices(coords: np.ndarray) -> list[int]:
    """Float guess at the hull vertices: the sorted indices of the points
    that maximize one of the fixed directions. Correctness never depends
    on it."""
    directions = _directions(coords.shape[1])
    picks: set[int] = set()
    if len(coords):
        # 64 directions at a time, so the score array stays small for big sets.
        for start in range(0, len(directions), 64):
            picks.update(np.argmax(coords @ directions[start:start + 64].T, axis=0).tolist())
    return sorted(picks)


def _cross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """Twice the signed area of the triangle o, a, b: positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _low_dimensional_vertices(coords: Sequence[tuple[int, ...]],
                              indices: Sequence[int]) -> list[int]:
    """Sorted vertex indices among the indexed points, which are distinct and
    given by at most 2 integer coordinates that are affinely independent on
    the set (its affine dimension is the coordinate count).

    The points are sorted by their coordinates. At dimension 0 and 1 the
    vertices are the first and the last of them. At dimension 2 they come
    from Andrew's monotone chain ("Another efficient algorithm for convex
    hulls in two dimensions", 1979), which keeps strict turns only, so a
    point inside an edge is not a vertex.
    """
    ordered = sorted(indices, key=coords.__getitem__)
    if len(coords[ordered[0]]) < 2:
        return sorted({ordered[0], ordered[-1]})
    vertices = []
    for sweep in (ordered, ordered[::-1]):  # the lower chain, then the upper one
        chain: list[int] = []
        for i in sweep:
            while len(chain) >= 2 and _cross(coords[chain[-2]], coords[chain[-1]], coords[i]) <= 0:
                chain.pop()
            chain.append(i)
        vertices += chain[:-1]  # each chain's last point starts the other
    return sorted(vertices)


def _filter_vertices(context: _HullContext, indices: Sequence[int]) -> list[int]:
    """Sorted vertex indices among the indexed points, which are distinct:
    the float proposal, then two batched membership tests (see
    extreme_point_indices)."""
    with np.errstate(all="ignore"):
        picks = _propose_vertices(context.float_rows[indices, 1:])
    proposed = [indices[j] for j in picks]
    chosen = set(proposed)
    rest = [i for i in indices if i not in chosen]
    covered = context.inside(rest, proposed)
    survivors = proposed + [i for i, c in zip(rest, covered) if not c]
    return sorted(v for v, c in zip(survivors, context.inside(survivors, survivors)) if not c)


def extreme_point_indices(rows: Sequence[Sequence[int]], scale: int) -> list[int]:
    """Indices of the points that are vertices of the convex hull of all points,
    where point i is rows[i] / scale (integer rows, a positive integer scale).
    Of a set of equal points only the first takes part, so only it can be a
    vertex.

    The exact basis of the lifted coordinates gives the affine dimension of
    the set. Up to dimension 2 the kept integer coordinates decide alone, by
    integer comparisons and orientation tests (`_low_dimensional_vertices`):
    the projection onto them is injective on the affine hull, so the vertex
    set is the same.

    From dimension 3 on, the points that maximize a fixed direction are
    proposed as vertices, and every other point is tested against the
    proposed set (`_HullContext.inside`). A point inside is no vertex; the
    others join the proposed points as survivors, which therefore hold every
    vertex and span the same hull. A survivor is a vertex iff it is outside
    the hull of the other survivors, which one more batched test decides.
    The output is exact and independent of the proposal.
    """
    if not rows:
        return []
    context = _HullContext(rows, scale)
    first: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(context.int_rows):
        first.setdefault(row, i)
    distinct = list(first.values())
    if len(context.int_rows[0]) <= 3:
        return _low_dimensional_vertices([row[1:] for row in context.int_rows], distinct)
    return _filter_vertices(context, distinct)
