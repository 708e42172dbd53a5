from __future__ import annotations

import numpy as np
import pytest

from coupled_fpi import (
    CallbackSpace,
    ChebyshevSpace,
    EuclideanSpace,
    FiniteSet,
    InvalidInputError,
    as_finite_set,
    dist_to_set,
    hausdorff,
    real_line,
)
from coupled_fpi.finite_sets import _pairs


def test_finite_set_dedup_preserves_first_occurrence():
    s = FiniteSet([1.0, 0.0, 1.0, 2.0])
    assert len(s) == 3
    assert [float(p[0]) for p in s] == [1.0, 0.0, 2.0]
    assert s.contains(2.0) and not s.contains(3.0)


def test_finite_set_rejects_empty_and_is_readonly():
    with pytest.raises(InvalidInputError):
        FiniteSet([])
    s = FiniteSet([1.0])
    with pytest.raises(ValueError):
        s.points[0, 0] = 2.0


def test_as_finite_set_coercions():
    assert len(as_finite_set(3.0)) == 1
    assert len(as_finite_set([1.0, 2.0, 3.0], dimension=1)) == 3
    # flat length-d vector is one point when d > 1
    one = as_finite_set([1.0, 2.0], dimension=2)
    assert len(one) == 1 and one.dimension == 2
    # generators materialize
    assert len(as_finite_set((float(i) for i in range(4)), dimension=1)) == 4
    existing = FiniteSet([0.0])
    assert as_finite_set(existing) is existing
    with pytest.raises(InvalidInputError):
        as_finite_set(existing, dimension=2)
    with pytest.raises(InvalidInputError):
        as_finite_set([[1.0], [2.0, 3.0]], dimension=1)


def test_dist_to_set_examples():
    line = real_line()
    assert dist_to_set(line, 0.0, [0.0, 5.0]) == 0.0
    assert dist_to_set(line, 1.0, [0.0, 2.0]) == 1.0
    assert dist_to_set(line, -0.2, [-0.2, 0.2]) == 0.0


def test_hausdorff_examples():
    line = real_line()
    assert hausdorff(line, [0.0, 2.0], [0.0, 2.0]) == 0.0
    assert hausdorff(line, [0.0], [1.0]) == 1.0
    assert hausdorff(line, [0.0, 2.0], [1.0]) == 1.0


def _brute_force_hausdorff(space, A, B):
    forward = max(min(space.distance(a, b) for b in B) for a in A)
    backward = max(min(space.distance(a, b) for a in A) for b in B)
    return max(forward, backward)


def test_hausdorff_against_brute_force_oracle():
    # bitwise, on each builtin metric's vectorized distance_batch (Euclidean
    # d = 9 sums pairwise) and on a callback metric's row loop
    spaces = [EuclideanSpace(1), EuclideanSpace(3), EuclideanSpace(9), ChebyshevSpace(2),
              CallbackSpace(2, lambda p, q: float(np.abs(p - q).sum()))]
    rng = np.random.default_rng(301)
    for space in spaces:
        d = space.dimension
        for _ in range(200):
            na, nb = rng.integers(1, 13, size=2)
            A = as_finite_set(rng.uniform(-5.0, 5.0, size=(na, d)), d)
            B = as_finite_set(rng.uniform(-5.0, 5.0, size=(nb, d)), d)
            got = hausdorff(space, A, B)
            assert np.float64(got).tobytes() == np.float64(
                _brute_force_hausdorff(space, A, B)).tobytes(), (type(space).__name__, d)


def test_hausdorff_metric_properties():
    space = EuclideanSpace(2)
    rng = np.random.default_rng(302)
    for _ in range(200):
        sizes = rng.integers(1, 8, size=3)
        A, B, C = (
            as_finite_set(rng.uniform(-3.0, 3.0, size=(n, 2)), 2) for n in sizes
        )
        hab = hausdorff(space, A, B)
        assert hab >= 0.0
        assert hab == hausdorff(space, B, A)
        assert hab <= hausdorff(space, A, C) + hausdorff(space, C, B) + 1e-12
        # zero exactly on equal sets, order of listing irrelevant
        perm = rng.permutation(len(A))
        assert hausdorff(space, A, as_finite_set(A.points[perm], 2)) == 0.0


@pytest.mark.parametrize("n, m, mb, d", [(0, 2, 3, 2), (3, 2, 5, 1), (4, 1, 1, 3), (2, 4, 4, 2)])
def test_pairs_match_the_broadcast_formula_bitwise(n, m, mb, d):
    rng = np.random.default_rng(n * 1000 + m * 100 + mb * 10 + d)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    A, B = rng.normal(size=(n, m, d)), rng.normal(size=(n, mb, d))
    for Z in (A, B):  # rows with NaN, +-inf and -0.0 in some coordinates
        flat = Z.reshape(-1)
        flat[::3] = specials[np.arange(flat[::3].size) % specials.size]
    P, Q = _pairs(A, B)
    shape = (n, m, mb, d)
    for got, want in ((P, np.broadcast_to(A[:, :, None, :], shape).reshape(-1, d)),
                      (Q, np.broadcast_to(B[:, None, :, :], shape).reshape(-1, d))):
        assert got.shape == (n * m * mb, d) and got.flags.c_contiguous
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
