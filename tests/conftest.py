import pytest

import bracketkit as bk
from bracketkit.bitsets import mask_from_indices


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


def system_from_sets(n, sets):
    """The SetSystem on {0,...,n-1} whose ranges are the given index lists."""
    return bk.SetSystem.from_masks(n, (mask_from_indices(s) for s in sets))


def mask_set(mask, n):
    return frozenset(i for i in range(n) if mask >> i & 1)


def masks_as_sets(masks, n):
    return [mask_set(m, n) for m in masks]
