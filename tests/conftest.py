from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from shapedparts.errors import DimensionError
from shapedparts.hull import _HullContext
from shapedparts.linalg import Matrix, as_rational, integer_rows
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    LinearObjective,
    MaxCutObjective,
)
from shapedparts.partitions import ShapeFamily, compositions


def pytest_collection_modifyitems(config, items):
    """Fail a test under tests/ that leaks a pipe or a file. An unclosed one
    warns when it is garbage-collected, and a warning raised there reaches
    pytest as an unraisable exception."""
    here = Path(__file__).resolve().parent
    for item in items:
        if here in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def _forward_eliminate(rows: list[list[Fraction]]) -> tuple[int, int]:
    """In-place row echelon reduction. Returns (rank, parity of row swaps)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    swaps = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        src = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if src is None:
            continue
        if src != pivot_row:
            rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
            swaps += 1
        pivot = rows[pivot_row][col]
        for r in range(pivot_row + 1, nrows):
            factor = rows[r][col]
            if factor:
                scale = factor / pivot
                row_r, row_p = rows[r], rows[pivot_row]
                for c in range(col, ncols):
                    row_r[c] -= scale * row_p[c]
        pivot_row += 1
    return pivot_row, swaps


def rank(m: Matrix) -> int:
    """Exact linear rank over the rationals."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    rows = [list(r) for r in m.rows()]
    r, _ = _forward_eliminate(rows)
    return r


def solve_consistent(m: Matrix, b: Sequence) -> list[Fraction] | None:
    """One exact solution of a general (possibly non-square) system, or None.

    Free variables, if any, are set to zero. Returns None exactly when the
    system is inconsistent.
    """
    rhs = [as_rational(x) for x in b]
    if len(rhs) != m.nrows:
        raise DimensionError(f"right-hand side has {len(rhs)} entries, expected {m.nrows}")
    nrows, ncols = m.nrows, m.ncols
    rows = [list(m.row(i)) + [rhs[i]] for i in range(nrows)]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        src = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if src is None:
            continue
        if src != pivot_row:
            rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        pivot = rows[pivot_row][col]
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                scale = rows[r][col] / pivot
                for c in range(col, ncols + 1):
                    rows[r][c] -= scale * rows[pivot_row][c]
        pivot_cols.append(col)
        pivot_row += 1
    for r in range(pivot_row, nrows):
        if rows[r][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_cols):
        solution[col] = rows[r][ncols] / rows[r][col]
    return solution


def lift_point(point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Prepend the coordinate 1, so affine combinations become linear ones."""
    return (Fraction(1),) + tuple(point)


def reference_membership(target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Phase-one simplex with Bland's rule over Fractions: is target in
    conv(generators)? The pivot sequence the integer kernel reproduces.

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


def objective_definition(objective, matrix: Matrix) -> Fraction:
    """A built-in objective's value at one matrix by its Fraction definition:
    the reference the integer keys of `evaluate_keys` are held against, as
    `partition_matrix` is for `PartSums`."""
    entries = matrix.flatten()
    if isinstance(objective, LinearObjective):
        if matrix.shape != objective.cost.shape:
            raise DimensionError(f"cost is {objective.cost.shape}, matrix is {matrix.shape}")
        return sum((c * x for c, x in zip(objective.cost.flatten(), entries)), Fraction(0))
    if isinstance(objective, DiagonalPowerObjective):
        if matrix.nrows != matrix.ncols:
            raise DimensionError("diagonal power sum needs a square matrix (k = p)")
        return sum((abs(matrix.entry(i, i)) ** objective.q for i in range(matrix.nrows)),
                   Fraction(0))
    if isinstance(objective, ColumnPowerObjective):
        return sum((x ** objective.q for x in entries), Fraction(0))
    if isinstance(objective, MaxCutObjective):
        indicator = matrix.column(0)
        if any(x != 0 and x != 1 for x in indicator):
            raise DimensionError("cut counting needs a 0/1 first column")
        return Fraction(sum(1 for u, v in objective.edges if indicator[u - 1] != indicator[v - 1]))
    raise TypeError(f"no definition for {type(objective).__name__}")


# small rationals plus ones whose denominators reach past 2^61
TRANSLATIONS = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
)


def _huge_problems():
    """(A, p, family) whose integer part sums overflow int64, with duplicate
    columns, plus the two sides of the int64 bound itself."""
    wide = 2 ** 61 + 1, 2 ** 62 + 3
    return [
        (Matrix([["1e400", "-1e400", 3, "1e400", 0], [1, 2, "-3e400", 2, "1e399"]]), 3,
         ShapeFamily.all_shapes(5, 3)),
        (Matrix([["1e400", 2, "1e400", -1]]), 2, ShapeFamily.explicit([(2, 2), (3, 1)], 4, 2)),
        (Matrix([[Fraction(1, wide[0]), Fraction(1, wide[0]), Fraction(-5, wide[1]),
                  Fraction(7, wide[0]), 0],
                 [0, 0, 1, 0, Fraction(3, wide[1])]]), 3,
         ShapeFamily.bounds([0, 1, 0], [3, 5, 2], 5)),
        (Matrix([[2 ** 62, 2 ** 62 - 1, 0]]), 2, ShapeFamily.all_shapes(3, 2)),  # fits int64
        (Matrix([[2 ** 62, 2 ** 62, 0]]), 2, ShapeFamily.all_shapes(3, 2)),  # does not
    ]


HUGE_PROBLEMS = _huge_problems()


@st.composite
def edge_problems(draw):
    """(A, p, family, linear cost) with k <= 2, n <= 6 and p <= 3, mixing in
    zero and duplicate columns, n <= k + 1 (n = 0 included), p > n, each
    declarative shape kind, and entries whose common denominator exceeds 2^60."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(0, 6))
    p = draw(st.integers(1, 3))
    entries = st.one_of(
        st.integers(-2, 2),
        st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
    )
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy"]))
        if kind == "zero":
            columns.append([0] * k)
        elif kind == "copy" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        else:
            columns.append(draw(st.lists(entries, min_size=k, max_size=k)))
    a = Matrix([[column[r] for column in columns] for r in range(k)], ncols=n)
    shape_kind = draw(st.sampled_from(["all", "list", "bounds"]))
    if shape_kind == "all":
        family = ShapeFamily.all_shapes(n, p)
    elif shape_kind == "list":
        shapes = draw(st.lists(st.sampled_from(list(compositions(n, p))), min_size=1, max_size=4))
        family = ShapeFamily.explicit(shapes, n, p)
    else:
        upper = draw(st.lists(st.integers(0, n), min_size=p, max_size=p))
        upper[-1] += max(0, n - sum(upper))
        lower = [draw(st.integers(0, u)) for u in upper]
        assume(sum(lower) <= n)
        family = ShapeFamily.bounds(lower, upper, n)
    cost = Matrix([draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p)) for _ in range(k)])
    return a, p, family, cost


def convex_combination_exists(target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test whether target lies in the convex hull of the generators,
    through the hull stage's batched membership test."""
    context = _HullContext(*integer_rows([target, *generators]))
    return context.inside([0], range(1, len(generators) + 1))[0][0]


def _nonvertex_by_affine_bases(target, others):
    """Exhaustive search for a nonnegative affine combination expressing target.

    Let d be the linear rank of the lifted others. The target is a convex
    combination of the others exactly when some d-subset with independent
    lifted vectors solves lifted(target) with all coefficients nonnegative.
    The cost grows as C(len(others), d), so this is a reference for small sets.
    """
    if not others:
        return False
    lifted = [lift_point(o) for o in others]
    d = rank(Matrix.from_columns(lifted))
    lifted_target = lift_point(target)
    for subset in combinations(range(len(others)), d):
        system = Matrix.from_columns([lifted[i] for i in subset])
        if rank(system) < d:
            continue
        mu = solve_consistent(system, lifted_target)
        if mu is not None and all(x >= 0 for x in mu):
            return True
    return False


@pytest.fixture
def nonvertex_by_affine_bases():
    """The affine-basis convexity reference, held against the fast routes."""
    return _nonvertex_by_affine_bases
