from itertools import combinations

import pytest

from shapedparts.hull import lift_point
from shapedparts.linalg import Matrix, rank, solve_consistent


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
