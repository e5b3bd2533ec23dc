import math

import numpy as np
import pytest

from uavbc import (
    DegenerateLocations,
    RateProfile,
    common_tangent,
    fixed_boundary,
    fixed_region_sample,
    intersection_point,
    sc_rate_pair,
    triangle_contains,
)
from uavbc.fixed_region import boundary_r2_at, corner_rates


def test_fixed_boundary_corners(base):
    bp = fixed_boundary(base, 500.0, RateProfile.of(0.0))
    assert bp.rate_pair.r1 == 0.0
    assert bp.rate_pair.r2 == pytest.approx(6.6582114827518, abs=1e-10)
    assert (bp.p1, bp.p2) == (0.0, base.Pbar)

    bp = fixed_boundary(base, 500.0, RateProfile.of(1.0))
    assert bp.rate_pair.r2 == 0.0
    assert bp.rate_pair.r1 == pytest.approx(0.9928402084271338, abs=1e-10)

    # the (1, 0) corner formula holds at arbitrary locations
    for x in (-433.0, -20.0, 311.0):
        bp = fixed_boundary(base, x, RateProfile.of(1.0))
        expect = math.log2(1.0 + base.Pbar * base.beta0 / ((x + 500.0) ** 2 + 1e4))
        assert bp.rate_pair.r1 == pytest.approx(expect, abs=1e-12)


def test_fixed_boundary_midpoint_profile(base):
    bp = fixed_boundary(base, 0.0, RateProfile.of(0.5))
    assert bp.rate_pair.r1 == pytest.approx(1.1384201026794123, abs=1e-9)
    assert bp.rate_pair.r2 == pytest.approx(1.1384201026794123, abs=1e-9)


def test_fixed_boundary_consistency(base):
    """Reported powers reproduce the reported rates through sc_rate_pair."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-500.0, 500.0)
        prof = RateProfile.of(rng.uniform(0.05, 0.95))
        bp = fixed_boundary(base, x, prof)
        again = sc_rate_pair(base, x, bp.p1, bp.p2)
        assert again.r1 == pytest.approx(bp.rate_pair.r1, abs=1e-9)
        assert again.r2 == pytest.approx(bp.rate_pair.r2, abs=1e-9)
        assert bp.p1 + bp.p2 == pytest.approx(base.Pbar, rel=1e-12)
        # profile ratio is met
        assert prof.alpha2 * bp.rate_pair.r1 == pytest.approx(
            prof.alpha1 * bp.rate_pair.r2, abs=1e-7
        )


def test_fixed_region_sample_shape(base):
    two = fixed_region_sample(base, 250.0, 2)
    corners = corner_rates(base, 250.0)
    assert two[0].rate_pair.r1 == 0.0
    assert two[0].rate_pair.r2 == pytest.approx(corners.r2)
    assert two[1].rate_pair.r2 == 0.0
    assert two[1].rate_pair.r1 == pytest.approx(corners.r1)

    pts = fixed_region_sample(base, 370.0, 41)
    r1s = [p.rate_pair.r1 for p in pts]
    r2s = [p.rate_pair.r2 for p in pts]
    assert all(a <= b + 1e-12 for a, b in zip(r1s, r1s[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(r2s, r2s[1:]))


def test_fixed_region_equal_gains_is_line(base):
    total = 2.2768402053588246
    for p in fixed_region_sample(base, 0.0, 17):
        assert p.rate_pair.total == pytest.approx(total, abs=1e-9)


def test_fixed_region_boundary_concave(base):
    pts = fixed_region_sample(base, 500.0, 101)
    slopes = []
    for a, b in zip(pts, pts[1:]):
        dr1 = b.rate_pair.r1 - a.rate_pair.r1
        slopes.append((b.rate_pair.r2 - a.rate_pair.r2) / dr1)
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


def test_boundary_chords_inside(base):
    """Convexity: chords between boundary samples stay under the boundary."""
    for x in (-300.0, 150.0, 500.0):
        pts = fixed_region_sample(base, x, 33)
        for i in range(0, 31, 4):
            a, b = pts[i].rate_pair, pts[i + 2].rate_pair
            mid_r1 = 0.5 * (a.r1 + b.r1)
            chord_r2 = 0.5 * (a.r2 + b.r2)
            assert chord_r2 <= boundary_r2_at(base, x, mid_r1) + 1e-9


class TestIntersection:
    def test_known_value(self, base):
        ip = intersection_point(base, 500.0, 250.0)
        assert ip.r1 == pytest.approx(0.9455522159776235, abs=1e-9)

    def test_mirror_swap(self, base):
        ip = intersection_point(base, 500.0, 250.0)
        mirrored = intersection_point(base, -250.0, -500.0)
        assert mirrored.r1 == pytest.approx(ip.r2, abs=1e-12)
        assert mirrored.r2 == pytest.approx(ip.r1, abs=1e-12)

    def test_bounds(self, base):
        rng = np.random.default_rng(17)
        for _ in range(40):
            xC, xB = np.sort(rng.uniform(-500.0, 500.0, size=2))
            if xB - xC < 20.0:
                continue
            ip = intersection_point(base, xB, xC)
            cB = corner_rates(base, xB)
            cC = corner_rates(base, xC)
            assert 0.0 < ip.r1 < cB.r1
            assert 0.0 < ip.r2 < cC.r2

    def test_sign_pattern(self, base):
        """Left of the crossing the right-region boundary is higher, right of
        it lower."""
        xB, xC = 420.0, -130.0
        ip = intersection_point(base, xB, xC)
        r1_max_B = corner_rates(base, xB).r1
        probes = ((0.5 * ip.r1, 1.0), (0.5 * (ip.r1 + r1_max_B), -1.0))
        for r1, sign in probes:
            diff = boundary_r2_at(base, xB, r1) - boundary_r2_at(base, xC, r1)
            assert sign * diff > 0.0

    def test_degenerate(self, base):
        with pytest.raises(DegenerateLocations):
            intersection_point(base, 100.0, 100.0)
        with pytest.raises(ValueError):
            intersection_point(base, -100.0, 100.0)


class TestCommonTangent:
    def test_symmetric_configuration(self, base):
        tl = common_tangent(base, 300.0, -300.0)
        assert tl.slope == pytest.approx(-1.0, abs=1e-9)
        assert tl.touch_B.r1 == pytest.approx(tl.touch_C.r2, abs=1e-9)
        assert tl.touch_B.r2 == pytest.approx(tl.touch_C.r1, abs=1e-9)

    def test_touch_points_straddle_intersection(self, base):
        tl = common_tangent(base, 500.0, 250.0)
        ip = intersection_point(base, 500.0, 250.0)
        assert tl.touch_B.r1 < ip.r1 < tl.touch_C.r1
        assert tl.touch_C.r2 < ip.r2 < tl.touch_B.r2

    def test_supports_both_regions(self, base):
        for xB, xC in ((500.0, 250.0), (350.0, -80.0), (-50.0, -450.0)):
            tl = common_tangent(base, xB, xC)
            assert tl.slope < 0.0
            for x in (xB, xC):
                for bp in fixed_region_sample(base, x, 65):
                    line = tl.value_at(bp.rate_pair.r1)
                    assert bp.rate_pair.r2 <= line + 1e-7

    def test_degenerate(self, base):
        with pytest.raises(DegenerateLocations):
            common_tangent(base, 10.0, 10.0)

    def test_regions_reaching_one_r1(self, base):
        """1 um from user 1 both regions' r1 corners round to one value, so
        the weight ends at 1 and the tangent is vertical there."""
        tl = common_tangent(base, -500.0 + 1e-6, -500.0)
        assert tl.slope == -math.inf
        assert tl.touch_B.r1 == tl.touch_C.r1 == corner_rates(base, -500.0).r1
        assert triangle_contains(base, -500.0, -500.0 + 1e-6, -500.0 + 5e-7)


class TestTriangleContains:
    def test_own_region(self, base):
        assert triangle_contains(base, -250.0, 400.0, -250.0)
        assert triangle_contains(base, -250.0, 400.0, 400.0)

    def test_middle_location_inside(self, base):
        # the middle hover is covered by the hull of x = -D/4 and x = 2D/5
        assert triangle_contains(base, -250.0, 400.0, 0.0)

    def test_containment_can_fail(self, base):
        # close to a user the middle region bulges past the pair's tangent
        assert not triangle_contains(base, 450.0, 500.0, 480.0)


def test_triangle_matches_hull_oracle(base):
    from uavbc.oracle import hull_region_containment

    rng = np.random.default_rng(23)
    agree = 0
    for _ in range(8):
        xI, x, xF = np.sort(rng.uniform(-500.0, 500.0, size=3))
        t = triangle_contains(base, xI, xF, x, n_samples=128)
        h = hull_region_containment(base, xI, xF, x, n_samples=128)
        assert t == h
        agree += 1
    assert agree == 8
