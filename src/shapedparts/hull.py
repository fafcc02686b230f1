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
floats only influence speed, never verdicts. A small batch, of at most
_SMALL_BATCH targets times generators, goes to the integer simplex alone:
there the float pass costs more than it saves.

A set of affine dimension at most 2 needs neither floats nor a simplex: on
its kept integer coordinates, comparisons decide dimension 0 and 1, and
Andrew's monotone chain, with integer orientation tests, decides dimension 2.

From dimension 3 on, the vertices are the points outside the hull of the
others, one membership test per point, run in batches (Dulá and Helgason,
EJOR 1996). A float scan proposes the points that maximize one of a fixed
set of directions (a seeded random set and the coordinate axes both ways);
every other point is tested against the proposed ones, and the proposed
points, with the points found outside them, are the survivors. A survivor
is certified a vertex when an integer functional scores it strictly above
every other survivor, which one integer matmul checks for all of them: the
rounded direction that proposed it, or the Farkas functional that proved it
outside the proposed points. Only the survivors no functional certifies are
tested against the others.

Rows that are k x p part-sum matrices in row-major order can have part
symmetries (Bremner, Dutour Sikirić and Schürmann, "Polyhedral
representation conversion up to symmetries", 2009). A permutation g of the
parts permutes the coordinates, a linear bijection; if it maps the point
set K onto itself, it maps conv(K) onto itself. For every x in K and every
union U of orbits of the group of such permutations, gU = U, so x lies in
conv(U - {x}) iff gx lies in conv(gU - {gx}) = conv(U - {gx}). Every test
of the filter has this form, so each verdict holds for the whole orbit.
The filter uses only the group of all permutations of the parts: if it
fixes K, the filter closes the proposal under it, tests one point per orbit
against whole orbits, and copies each verdict to the orbit.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Sequence

import numpy as np

from .linalg import fraction_free_elimination, integer_array

_FUNCTIONAL_SCALE = 1 << 24
_FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
_DIRECTION_SEED = 20240611
# Bound on the entries of one chunk of float tableaux or integer scores.
_CHUNK_ELEMENTS = 1 << 16
# Largest targets x generators of a membership batch that the integer
# simplex decides alone (see _HullContext.inside). On random inside batches
# (1 or 2 targets) of all-shapes part-sum sets of dimension 3 to 6, the
# integer simplex alone took 0.71 times the float route's time at 24
# targets x generators, 0.92 times at 32, 1.06 times at 36 and 1.31 times
# at 48: the crossover is between 32 and 36.
_SMALL_BATCH = 32


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


def _float_phase_one(acols: np.ndarray, rhs: np.ndarray, excluded: np.ndarray) -> tuple:
    """Batched float phase-one simplex: for each row b of rhs, is A x = b,
    x >= 0 feasible, with A = acols, without the column excluded names for
    that row (an index into acols' columns, or -1 for none)?

    Returns (supports, farkas): a dict from each row found feasible to the
    sorted column indices of a basic solution's positive entries, and one
    Farkas functional y per row, with y.A <= 0 < y.b approximately, which is
    zero unless the row was found infeasible (the iteration cap or numerics
    may give up). Every row runs its own simplex: its own sign flips (so its
    right-hand side is nonnegative), basis and pivots (entering by the most
    negative reduced cost, leaving by the first smallest ratio). Rows that
    finish drop out, and the rows run in chunks of at most _CHUNK_ELEMENTS
    tableau entries.

    An excluded column is zero in its row's tableau, so it never enters, and
    the row's result is the one without the column; supports keep the column
    numbering of acols.
    """
    m, ng = acols.shape
    width = ng + m + 1
    supports: dict[int, np.ndarray] = {}
    farkas = np.zeros((len(rhs), m))
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
                    supports[int(rows[i])] = np.sort(basis[i, positive])
                else:
                    farkas[rows[i]] = flip[i] * (1.0 - tableau[i, m, ng:ng + m])
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
    return supports, farkas


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
    float_rows: each entry of int_rows divided by the scale, as floats (the
        leading entry is exactly 1.0), from which the float simplex proposes
        supports and separating functionals and the direction scan proposes
        vertices.

    The lifted rows are held in one integer array, int64 when the entries of
    their Gram matrix fit; the Gram matrix and the kept columns come from it.
    float_rows and the integer matrix that separations are verified on are
    built on first use: a point set of affine dimension at most 2 is decided
    on int_rows alone (`_low_dimensional_vertices`) and never builds them.
    """

    def __init__(self, rows: Sequence[Sequence[int]], scale: int):
        flat = [x for row in rows for x in row]
        self._max_scaled = max(scale, max(flat, default=0), -min(flat, default=0))
        exact = integer_array([[scale, *row] for row in rows], self._max_scaled ** 2 * len(rows))
        self._pivots = fraction_free_elimination((exact.T @ exact).tolist())
        self.int_rows = list(map(tuple, exact[:, self._pivots].tolist()))
        self._scale = scale

    @cached_property
    def float_rows(self) -> np.ndarray:
        return np.array([[_safe_ratio(x, self._scale) for x in row] for row in self.int_rows])

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

    def inside(self, targets: Sequence[int],
               generator_indices: Sequence[int]) -> tuple[list[bool], np.ndarray]:
        """Exact verdict per target: is it in the hull of the indexed
        generators other than itself? Also, per target, the integer
        functional (as floats) that proved it outside, or a zero row where
        none did.

        When targets times generators exceed _SMALL_BATCH (32), one batched
        float simplex proposes per target a support, which the integer
        simplex decides on its columns alone, or a Farkas functional, which
        _verify_separation checks for all targets at once. The integer
        simplex on the generators decides the rest, and all of a smaller
        batch, whose targets get no proof: below the measured crossover,
        between 32 and 36 targets times generators, the float pass costs
        more than it saves. Where targets are generators too, their points
        must be distinct: a target found inside is then no vertex, so it
        leaves the generators of these last decisions without changing the
        hull or any verdict.
        """
        targets, generators = list(targets), list(generator_indices)
        verdicts = [False] * len(targets)
        proofs = np.zeros((len(targets), len(self._pivots)))
        if not targets or not generators:
            return verdicts, proofs
        if len(targets) * len(generators) <= _SMALL_BATCH:
            undecided, separated = range(len(targets)), [False] * len(targets)
            remaining = generators
        else:
            column = {g: j for j, g in enumerate(generators)}
            excluded = np.array([column.get(t, -1) for t in targets])
            # Overflow and NaN in the float proposal only spoil a proposal,
            # which then fails its exact check; numpy need not warn about them.
            with np.errstate(all="ignore"):
                supports, farkas = _float_phase_one(self.float_rows[generators].T,
                                                    self.float_rows[targets], excluded)
            for j, support in supports.items():
                verdicts[j] = self._decide(targets[j], [generators[i] for i in support])
            # Every lifted point has the same leading coordinate, so it adds
            # the same score to all of them: left out, it takes no precision
            # from the rounding of the other entries.
            farkas[:, 0] = 0.0
            undecided = [j for j, sure in enumerate(verdicts) if not sure]
            rounded = _round_functionals(farkas[undecided])
            verified = self._verify_separation([targets[j] for j in undecided], generators,
                                               rounded)
            proofs[np.array(undecided, dtype=np.intp)[verified]] = rounded[verified]
            separated = verified.tolist()
            found = {t for t, sure in zip(targets, verdicts) if sure}
            remaining = [g for g in generators if g not in found]
        for j, sure in zip(undecided, separated):
            if not sure:
                target = targets[j]
                verdicts[j] = self._decide(target, [g for g in remaining if g != target])
                if verdicts[j]:
                    remaining = [g for g in remaining if g != target]
        return verdicts, proofs


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


def _propose_vertices(coords: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Float guess at the hull vertices: the sorted indices of the points
    that maximize one of the fixed directions, and per index the first
    direction that it maximizes. Correctness never depends on it.

    The directions are scored in chunks of _CHUNK_ELEMENTS // len(coords),
    but at least 64, so a small set is scored in one matmul and the score
    array of a big one stays small."""
    directions = _directions(coords.shape[1])
    step = max(64, _CHUNK_ELEMENTS // max(1, len(coords)))
    best = np.concatenate([np.argmax(coords @ directions[start:start + step].T, axis=0)
                           for start in range(0, len(directions), step)])
    picks, first = np.unique(best, return_index=True)
    return picks.tolist(), directions[first]


def _cross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """Twice the signed area of the triangle o, a, b, in coordinates 1 and 2:
    positive for a left turn."""
    return (a[1] - o[1]) * (b[2] - o[2]) - (a[2] - o[2]) * (b[1] - o[1])


def _low_dimensional_vertices(rows: Sequence[tuple[int, ...]],
                              indices: Sequence[int]) -> list[int]:
    """Sorted vertex indices among the indexed points, which are distinct and
    given by a leading entry that all share, then at most 2 integer
    coordinates that are affinely independent on the set (its affine
    dimension is the coordinate count).

    The points are sorted by their coordinates. At dimension 0 and 1 the
    vertices are the first and the last of them. At dimension 2 they come
    from Andrew's monotone chain ("Another efficient algorithm for convex
    hulls in two dimensions", 1979), which keeps strict turns only, so a
    point inside an edge is not a vertex.
    """
    ordered = sorted(indices, key=rows.__getitem__)
    if len(rows[ordered[0]]) < 3:
        return sorted({ordered[0], ordered[-1]})
    vertices = []
    for sweep in (ordered, ordered[::-1]):  # the lower chain, then the upper one
        chain: list[int] = []
        for i in sweep:
            while len(chain) >= 2 and _cross(rows[chain[-2]], rows[chain[-1]], rows[i]) <= 0:
                chain.pop()
            chain.append(i)
        vertices += chain[:-1]  # each chain's last point starts the other
    return sorted(vertices)


def _part_orbits(first: dict[tuple[int, ...], int], parts: int) -> list[int]:
    """Per distinct row, in the order of `first` (which maps each distinct
    row to its index), the first index of its orbit under all permutations
    of the parts if they map the set of rows onto itself, else its own
    index; each row is a k x parts matrix in row-major order.

    The parts - 1 swaps of neighbouring parts generate every permutation.
    One pass over the rows per swap decides whether it maps every row into
    the set, which makes it a bijection of the set. A row's orbit is named
    by its columns in sorted order.
    """
    rows = list(first)
    width = len(rows[0])
    for r in range(parts - 1):
        order = list(range(width))
        order[r::parts], order[r + 1::parts] = order[r + 1::parts], order[r::parts]
        if not all(map(first.__contains__, map(itemgetter(*order), rows))):
            return list(first.values())
    orbits: dict[tuple, int] = {}
    return [orbits.setdefault(tuple(sorted(row[c::parts] for c in range(parts))), i)
            for row, i in first.items()]


def _filter_vertices(context: _HullContext, indices: Sequence[int],
                     labels: Sequence[int]) -> list[int]:
    """Sorted vertex indices among the indexed points, which are distinct,
    where labels[j] is the first index of the orbit of indices[j] under a
    group of affine symmetries of the set: the float proposal, closed under
    the group, then one representative per orbit through two batched
    membership tests with the certificates between them (see
    extreme_point_indices)."""
    with np.errstate(all="ignore"):
        picks, directions = _propose_vertices(context.float_rows[indices, 1:])
    members: dict[int, list[int]] = {}
    for i, label in zip(indices, labels):
        members.setdefault(label, []).append(i)
    # The first proposed point of an orbit represents it, so that its
    # direction can certify it.
    proposed: dict[int, int] = {}
    for at, j in enumerate(picks):
        proposed.setdefault(labels[j], at)
    representatives = {label: indices[picks[at]] for label, at in proposed.items()}
    closed = [i for label in representatives for i in members[label]]
    rest = [label for label in members if label not in representatives]
    covered, proofs = context.inside(rest, closed)
    representatives.update((label, label) for label, c in zip(rest, covered) if not c)
    survivors = [i for label in representatives for i in members[label]]
    # Directions act on the coordinates after the leading one.
    weights = np.zeros((len(proposed), directions.shape[1] + 1))
    weights[:, 1:] = directions[list(proposed.values())]
    functionals = np.vstack([_round_functionals(weights),
                             proofs[~np.array(covered, dtype=bool)]])
    targets = list(representatives.values())
    vertex = context._verify_separation(targets, survivors, functionals).tolist()
    doubtful = [j for j, sure in enumerate(vertex) if not sure]
    for j, c in zip(doubtful, context.inside([targets[j] for j in doubtful], survivors)[0]):
        vertex[j] = not c
    return sorted(i for label, sure in zip(representatives, vertex) if sure
                  for i in members[label])


def extreme_point_indices(rows: Sequence[Sequence[int]], scale: int, parts: int = 1) -> list[int]:
    """Indices of the points that are vertices of the convex hull of all points,
    where point i is rows[i] / scale (integer rows, a positive integer scale).
    Of a set of equal points only the first takes part, so only it can be a
    vertex.

    parts gives the layout of the rows: each is a k x parts matrix in
    row-major order, as the part-sum keys of partitions into that many parts
    are. If every permutation of the parts maps the set of rows onto itself,
    as for the keys of all shapes or of bounds that all parts share, the
    permutations are symmetries of the hull, which the filter uses from
    dimension 3 on; at parts = 1 there are none. The output does not depend
    on parts.

    At most two distinct points are all vertices. Otherwise the exact basis
    of the lifted coordinates gives the affine dimension of the set. Up to
    dimension 2 the kept integer coordinates decide alone, by
    integer comparisons and orientation tests (`_low_dimensional_vertices`):
    the projection onto them is injective on the affine hull, so the vertex
    set is the same.

    From dimension 3 on, the points that maximize a fixed direction are
    proposed as vertices, with every image of them under those permutations,
    and every other point is tested against the proposed set
    (`_HullContext.inside`). A point inside is no vertex; the others join
    the proposed points as survivors, which therefore hold every vertex and
    span the same hull. A survivor is a vertex iff it is outside the hull of
    the other survivors. A survivor that a functional scores strictly above
    every other survivor is one: its proposal direction, or the functional
    that proved it outside the proposed set. One more batched test decides
    the survivors that no functional certifies. Each test runs on one point
    per orbit and its verdict holds for the whole orbit. The output is exact
    and independent of the proposal.
    """
    first: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(map(tuple, rows)):
        first.setdefault(row, i)
    distinct = list(first.values())
    if len(distinct) <= 2:  # each of at most two distinct points is a vertex
        return distinct
    context = _HullContext(rows, scale)
    if len(context.int_rows[0]) <= 3:
        return _low_dimensional_vertices(context.int_rows, distinct)
    return _filter_vertices(context, distinct, _part_orbits(first, parts))
