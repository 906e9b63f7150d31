import itertools
import random

import pytest

from linecayley.geometry import all_projective_points, line_points, line_universe, proj_rep
from oracles import (
    affine_hyperplane_form,
    brute_line_census,
    common_hyperplane_normal,
    direction,
    direction_count_threshold,
    directions_determined,
    hyperplane_points,
)


def test_proj_rep():
    assert proj_rep((0, 2), 3) == (0, 1)
    assert proj_rep((2, 1), 3) == (2, 1)
    assert proj_rep((1, 2), 3) == (2, 1)
    # scaling to last nonzero coordinate 1, even when trailing zeros remain
    assert proj_rep((2, 2, 0), 3) == (1, 1, 0)
    with pytest.raises(ValueError):
        proj_rep((0, 0), 3)


def test_proj_rep_idempotent_on_multiples():
    rng = random.Random(5)
    for _ in range(50):
        q = rng.choice((3, 5, 7))
        n = rng.choice((2, 3, 4))
        v = tuple(rng.randrange(q) for _ in range(n))
        if not any(v):
            continue
        rep = proj_rep(v, q)
        for lam in range(1, q):
            assert proj_rep(tuple(a * lam % q for a in v), q) == rep


def test_line_points():
    assert line_points((0, 1), 3) == {(0, 1), (0, 2)}
    assert len(line_points((1, 2, 1), 5)) == 4


def test_line_universe_counts():
    for q in (3, 5, 7):
        for n in (2, 3, 4):
            u = line_universe(q, n)
            assert len(u) == q ** (n - 1)
            good, _ = brute_line_census(q, n)
            assert len(u) == good


def test_line_universe_order_and_membership():
    u = line_universe(3, 2)
    assert list(u) == [(0, 1), (1, 1), (2, 1)]
    assert (1, 1) in u
    assert (1, 0) not in u
    u53 = line_universe(5, 3)
    reps = list(u53)
    assert all(rep[-1] == 1 for rep in reps)
    assert reps == sorted(reps)


def test_all_projective_points():
    assert len(all_projective_points(3, 2)) == 4
    assert len(all_projective_points(3, 3)) == 13
    assert len(all_projective_points(5, 3)) == 31


def test_direction():
    assert direction((1, 1), (0, 1), 3) == (1, 0)
    with pytest.raises(ValueError):
        direction((1, 1), (1, 1), 3)


def test_directions_of_hyperplane_coset():
    # a coset of the last-coordinate hyperplane determines every direction
    # inside it: (q^(n-1) - 1)/(q - 1) projective points
    for q, n in ((3, 3), (5, 3)):
        pts = [v + (1,) for v in itertools.product(range(q), repeat=n - 1)]
        dirs = directions_determined(pts, q)
        assert len(dirs) == (q ** (n - 1) - 1) // (q - 1)
        assert all(d[-1] == 0 for d in dirs)


def test_direction_count_threshold():
    assert direction_count_threshold(5, 3) == 20
    assert direction_count_threshold(5, 4) == 105
    assert direction_count_threshold(7, 3) == 35
    with pytest.raises(ValueError):
        direction_count_threshold(5, 2)
    with pytest.raises(ValueError):
        direction_count_threshold(4, 3)


def test_affine_hyperplane_form():
    rng = random.Random(13)
    for _ in range(20):
        q = rng.choice((3, 5))
        n = rng.choice((2, 3))
        normal = tuple(rng.randrange(q) for _ in range(n))
        if not any(normal):
            continue
        normal = proj_rep(normal, q)
        offset = rng.randrange(q)
        pts = hyperplane_points(normal, offset, q, n)
        assert len(pts) == q ** (n - 1)
        form = affine_hyperplane_form(pts, q, n)
        assert form == (normal, offset)


def test_affine_hyperplane_form_rejects():
    # right size but affinely spanning: not a hyperplane
    pts = [(0, 0), (1, 0), (0, 1)]
    assert affine_hyperplane_form(pts, 3, 2) is None
    assert affine_hyperplane_form([(0, 0)], 3, 2) is None


def test_common_hyperplane_normal():
    q, n = 3, 3
    classes = []
    for offset in range(q):
        pts = hyperplane_points((0, 0, 1), offset, q, n)
        classes.append(sorted(p[0] + p[1] * q + p[2] * q * q for p in pts))
    assert common_hyperplane_normal(classes, q, n) == (0, 0, 1)
    with pytest.raises(ValueError):
        common_hyperplane_normal(classes[:2], q, n)


def test_common_hyperplane_normal_none_for_mixed():
    # a partition into equal thirds that are not affine lines
    classes = [[0, 1, 3], [2, 4, 6], [5, 7, 8]]
    assert common_hyperplane_normal(classes, 3, 2) is None
