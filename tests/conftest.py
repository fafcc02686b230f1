from fractions import Fraction
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from shapedparts.hull import _HullContext, lift_point
from shapedparts.linalg import Matrix, solve_consistent
from shapedparts.partitions import ShapeFamily, compositions


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


# small rationals plus ones whose denominators reach past 2^61
TRANSLATIONS = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
)


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
    through the hull stage's certificate route."""
    if not generators:
        return False
    context = _HullContext([tuple(target)] + [tuple(g) for g in generators])
    return context.membership(0, list(range(1, len(generators) + 1)))


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
