import random

import pytest

import bracketkit as bk


@pytest.fixture(scope="session")
def collinear4():
    pts = bk.lower_bound_instance(1, 4, "grid")
    return pts, bk.enumerate_halfspace_ranges(pts)


@pytest.fixture(scope="session")
def triangle():
    pts = bk.PointSet.from_signed_rows(2, [["0", "0"], ["4", "1"], ["1", "5"]])
    return pts, bk.enumerate_halfspace_ranges(pts)


def general_position_points(d, n, seed):
    """Seeded random points, retried until the halfspace enumeration accepts."""
    for attempt in range(20):
        pts = bk.random_point_set(d, n, seed * 1000 + attempt)
        try:
            system = bk.enumerate_halfspace_ranges(pts)
        except bk.DegeneracyError:
            continue
        return pts, system
    raise AssertionError("could not draw a general-position instance")


def criterion1_instance(i):
    """Criterion 1's i-th instance: a halfspace, ball or box system on a few
    seeded random points in one or two dimensions."""
    rng = random.Random(1000 + i)
    geom = ("halfspace", "ball", "box")[i % 3]
    d = 1 + (i % 2)
    n = rng.randint(6, {"halfspace": 12, "ball": 9, "box": 10}[geom])
    for attempt in range(20):
        pts = bk.random_point_set(d, n, i * 100 + attempt)
        try:
            if geom == "halfspace":
                return geom, bk.enumerate_halfspace_ranges(pts)
            if geom == "ball":
                return geom, bk.enumerate_ball_ranges(pts)
            return geom, bk.enumerate_box_ranges(pts)
        except bk.DegeneracyError:
            continue
    raise AssertionError("instance generation failed")


def mask_from_indices(indices):
    """The bitmask with the bits at ``indices`` set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def system_from_sets(n, sets):
    """The SetSystem on {0,...,n-1} whose ranges are the given index lists."""
    return bk.SetSystem.from_masks(n, (mask_from_indices(s) for s in sets))


def mask_set(mask, n):
    return frozenset(i for i in range(n) if mask >> i & 1)


def masks_as_sets(masks, n):
    return [mask_set(m, n) for m in masks]
