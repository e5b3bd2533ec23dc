"""Fixed-hover AWGN broadcast-channel regions and their geometry.

With the UAV parked at x, the two-user region C_f(x) is convex with a
boundary traced by sweeping the strong user's power p_s over [0, Pbar]
(full power is always used on the boundary).  This module computes
profile-constrained boundary points, the unique crossing point of two such
boundaries, their upper-right common tangent, and the triangle-containment
test that decides whether an intermediate hover location is worth visiting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    LOG2,
    RatePair,
    RateProfile,
    SystemParams,
    gain_pair,
    log2_1p,
    sc_rate_pair,
    uniform_profiles,
)
from .errors import DegenerateLocations
from .numerics import bisect_increasing

# Gains closer than this (relatively) are treated as tied, i.e. the x = 0
# triangle region whose boundary is the straight line r1 + r2 = const.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class FixedBoundaryPoint:
    """Boundary point of C_f(x): position, full-power split and rates."""

    x: float
    p1: float
    p2: float
    rate_pair: RatePair


@dataclass(frozen=True)
class TangentLine:
    """Upper-right common tangent of two fixed-location regions.

    touch_B belongs to the region at the larger position (favoring user 2),
    touch_C to the region at the smaller one; slope is negative.
    """

    slope: float
    touch_B: RatePair
    touch_C: RatePair

    def value_at(self, r1: float) -> float:
        return self.touch_C.r2 + self.slope * (r1 - self.touch_C.r1)


def _strong_user(h1: float, h2: float) -> int:
    return 2 if h2 >= h1 else 1


def _point_from_strong_power(params, x, h1, h2, p_strong) -> FixedBoundaryPoint:
    if _strong_user(h1, h2) == 2:
        p1, p2 = params.Pbar - p_strong, p_strong
    else:
        p1, p2 = p_strong, params.Pbar - p_strong
    return FixedBoundaryPoint(x, p1, p2, sc_rate_pair(params, x, p1, p2))


def corner_rates(params: SystemParams, x: float) -> RatePair:
    """(r1_max, r2_max): the single-user rates with full power at x."""
    h1, h2 = gain_pair(params, x)
    return RatePair(log2_1p(params.Pbar * h1), log2_1p(params.Pbar * h2))


def fixed_boundary(params: SystemParams, x: float, profile: RateProfile) -> FixedBoundaryPoint:
    """The boundary point of C_f(x) with r1 : r2 = alpha1 : alpha2.

    Found by bisection on the strong user's power: alpha_w * r_s grows with
    p_s while alpha_s * r_w falls, so their difference has a single root.
    Zero-weight profiles return the single-user corners.
    """
    h1, h2 = gain_pair(params, x)
    Pbar = params.Pbar
    if profile.alpha1 == 0.0:
        return FixedBoundaryPoint(x, 0.0, Pbar, RatePair(0.0, log2_1p(Pbar * h2)))
    if profile.alpha2 == 0.0:
        return FixedBoundaryPoint(x, Pbar, 0.0, RatePair(log2_1p(Pbar * h1), 0.0))

    if _strong_user(h1, h2) == 2:
        hs, hw = h2, h1
        a_s, a_w = profile.alpha2, profile.alpha1
    else:
        hs, hw = h1, h2
        a_s, a_w = profile.alpha1, profile.alpha2

    def gap(ps):
        r_s = log2_1p(ps * hs)
        r_w = log2_1p((Pbar - ps) * hw / (ps * hw + 1.0))
        return a_w * r_s - a_s * r_w

    ps = bisect_increasing(gap, 0.0, Pbar, iters=80)
    return _point_from_strong_power(params, x, h1, h2, ps)


def fixed_region_sample(params: SystemParams, x: float, n: int) -> list:
    """n boundary points of C_f(x) for profiles alpha1 = 0, 1/(n-1), ..., 1."""
    return [fixed_boundary(params, x, prof) for prof in uniform_profiles(n)]


def boundary_r2_at(params: SystemParams, x: float, r1: float) -> float:
    """Boundary curve value r2(r1) of C_f(x), eliminating the power split.

    Valid for r1 in [0, r1_max(x)]; raises ValueError outside.
    """
    h1, h2 = gain_pair(params, x)
    Pbar = params.Pbar
    w = 2.0 ** r1
    if r1 < 0.0 or w > 1.0 + Pbar * h1 + 1e-9:
        raise ValueError(f"r1={r1} outside [0, r1_max] at x={x}")
    if _strong_user(h1, h2) == 2:
        # strong user 2: r1 = log2((1 + Pbar h1)/(1 + p2 h1))
        p2 = max((1.0 + Pbar * h1 - w) / (w * h1), 0.0)
        return log2_1p(p2 * h2)
    # strong user 1: r1 = log2(1 + p1 h1)
    p1 = min((w - 1.0) / h1, Pbar)
    return log2_1p((Pbar - p1) * h2 / (p1 * h2 + 1.0))


def intersection_point(params: SystemParams, xB: float, xC: float) -> RatePair:
    """Unique crossing of the boundaries of C_f(xB) and C_f(xC), xC < xB.

    Three sign cases:
      both right of center      -> closed form for 2^{r1},
      straddling the center     -> the positive >1 root of a quadratic in
                                   w = 2^{r1},
      both left of center       -> mirror of the first case.
    """
    if xB == xC:
        raise DegenerateLocations("intersection needs two distinct locations")
    if xC > xB:
        raise ValueError("expected xC < xB")
    half = 0.5 * params.D
    if xC < -half - 1e-9 or xB > half + 1e-9:
        raise ValueError("locations outside [-D/2, D/2]")

    if xB <= 0.0:
        # Mirror x -> -x swaps the users, so solve the reflected pair and
        # swap the coordinates of the result.
        return intersection_point(params, -xC, -xB).swapped()

    h1B, h2B = gain_pair(params, xB)
    h1C, h2C = gain_pair(params, xC)
    Pbar = params.Pbar

    if xC >= 0.0:
        # User 2 is the strong one at both locations.
        num = Pbar * h1B * h1C * (h2B - h2C)
        den = h2B * h1C - h1B * h2C
        r1 = log2_1p(num / den)
        return RatePair(r1, boundary_r2_at(params, xB, r1))

    # xC < 0 < xB: equate the two eliminated boundary curves; with
    # w = 2^{r1} this reduces to a quadratic with exactly one root > 1.
    a, b, c, d = h1B, h2B, h1C, h2C
    A2 = (a - b) * d
    A1 = (a - b) * (c - d) + (Pbar * a + 1.0) * b * d - (Pbar * d + 1.0) * a * c
    A0 = (Pbar * a + 1.0) * b * (c - d)
    disc = A1 * A1 - 4.0 * A2 * A0
    if disc < 0.0:
        raise ArithmeticError("no real intersection; geometry violated")
    sq = math.sqrt(disc)
    # Numerically stable pairing of the two roots.
    q = -0.5 * (A1 + math.copysign(sq, A1)) if A1 != 0.0 else 0.5 * sq
    roots = []
    if A2 != 0.0:
        roots.append(q / A2)
    if q != 0.0:
        roots.append(A0 / q)
    valid = [w for w in roots if w > 1.0]
    if not valid:
        raise ArithmeticError("quadratic produced no root with w > 1")
    if len(valid) > 1:
        # Guard branch: keep the root on which the two curves actually agree.
        def mismatch(w):
            r1 = math.log(w) / LOG2
            return abs(
                boundary_r2_at(params, xB, r1) - boundary_r2_at(params, xC, r1)
            )

        valid.sort(key=mismatch)
        if mismatch(valid[0]) > 1e-9:
            raise ArithmeticError("no quadratic root lies on both boundaries")
    r1 = math.log(valid[0]) / LOG2
    return RatePair(r1, boundary_r2_at(params, xB, r1))


def _support(params: SystemParams, x: float, k: float):
    """Support point of C_f(x) for the line family r2 - k r1 = const (k < 0).

    Maximizes r2 - k r1 over the boundary.  The stationary strong-power has
    a closed form from the analytic boundary slope
        slope(p) = -h2 (1 + p h1) / (h1 (1 + p h2)),
    with p the strong user's power; corners cover the clamped cases.
    Returns (RatePair, support value).
    """
    h1, h2 = gain_pair(params, x)
    Pbar = params.Pbar
    candidates = [0.0, Pbar]
    if abs(h1 - h2) > _TIE_REL * max(h1, h2) and k != -1.0:
        p_star = -(h2 + k * h1) / (h1 * h2 * (1.0 + k))
        if 0.0 < p_star < Pbar:
            candidates.append(p_star)
    best = None
    best_val = -math.inf
    for ps in candidates:
        point = _point_from_strong_power(params, x, h1, h2, ps)
        val = point.rate_pair.r2 - k * point.rate_pair.r1
        if val > best_val:
            best_val = val
            best = point.rate_pair
    return best, best_val


def common_tangent(params: SystemParams, xB: float, xC: float) -> TangentLine:
    """Upper-right common tangent of C_f(xB) and C_f(xC), xC < xB.

    Bisection on the slope k of the supporting-line intercept difference:
    steep lines are won by the region reaching furthest in r1 (the left
    location), flat lines by the one reaching furthest in r2 (the right
    location), and the crossing is the common tangent.
    """
    if xB == xC:
        raise DegenerateLocations("tangent needs two distinct locations")
    if xC > xB:
        raise ValueError("expected xC < xB")

    h1B, h2B = gain_pair(params, xB)
    h1C, h2C = gain_pair(params, xC)

    def gap(k):
        _, vB = _support(params, xB, k)
        _, vC = _support(params, xC, k)
        return vB - vC

    k_lo = 2.0 * min(-h2B / h1B, -h2C / h1C) - 1.0
    k_hi = -1e-12
    tries = 0
    while gap(k_lo) >= 0.0 and tries < 60:
        k_lo *= 2.0
        tries += 1
    k = bisect_increasing(gap, k_lo, k_hi, iters=120)

    touch_B, _ = _support(params, xB, k)
    touch_C, _ = _support(params, xC, k)
    dr1 = touch_C.r1 - touch_B.r1
    slope = (touch_C.r2 - touch_B.r2) / dr1 if abs(dr1) > 1e-15 else k
    return TangentLine(slope, touch_B, touch_C)


def triangle_contains(
    params: SystemParams,
    xI: float,
    xF: float,
    x: float,
    n_samples: int = 256,
    tol: float = 1e-9,
) -> bool:
    """Whether C_f(x) lies inside the tangent triangle of C_f(xI), C_f(xF).

    Equivalent to convex-hull containment of C_f(x) in
    Conv(C_f(xI) u C_f(xF)).  The boundary of C_f(x) is sampled at
    ``n_samples`` profiles (a soundness/perf trade-off) and every sample is
    checked against the common tangent line anchored at the xI touch point.
    """
    if not xI <= x <= xF:
        raise ValueError("need xI <= x <= xF")
    if xF - xI <= 1e-12 * params.D:
        return True
    tangent = common_tangent(params, xB=xF, xC=xI)
    slack = tol * max(1.0, params.peak_rate)
    for point in fixed_region_sample(params, x, n_samples):
        if point.rate_pair.r2 > tangent.value_at(point.rate_pair.r1) + slack:
            return False
    return True
