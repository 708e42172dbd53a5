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
