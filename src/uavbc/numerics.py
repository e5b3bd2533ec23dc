"""Small deterministic root and search routines used throughout.

Everything here is scalar and allocation-free so the solvers can call these
helpers tens of thousands of times without noticeable overhead.  One rule
of the paper lives here too: `balance_weight` values a profile on a convex
rate set by the root of its rate imbalance in the dual weight mu, with the
time share across the root's bracket (an HFH pair's, `_pair_value`, and a
DP path's, `_path_profile_value`).
"""

import math
from collections import namedtuple

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_Point = namedtuple("_Point", "r s foc")  # a `balance_weight` point: value, weight, residual

# A first-order root (`illinois_root`) of a family's free coordinate stops
# at this bracket width, relative to the coordinate's scale (D for a
# position, T for a time).
FOC_XTOL = 1e-9


def bisect_increasing(f, lo, hi, iters=80):
    """Root of a nondecreasing scalar function on [lo, hi] by bisection.

    Requires f(lo) <= 0 <= f(hi); returns the midpoint of the final bracket.
    If the bracket is degenerate at one end (f(lo) > 0 or f(hi) < 0 within
    roundoff) the nearest endpoint is returned.
    """
    flo = f(lo)
    if flo >= 0.0:
        return lo
    fhi = f(hi)
    if fhi <= 0.0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def illinois_root(point, start, outer, xtol):
    """The best point evaluated on a root search of a residual that has the
    sign of a value's slope in one coordinate.

    `point(s)` evaluates a point with fields `r` (the value), `s` and `foc`
    (the residual); `start` is one such point and `outer` the coordinate
    that bounds the search on the side `start.foc` points to.  Nothing is
    evaluated when the residual is 0 or outer equals start.s.  Otherwise
    outer is evaluated, and where the residual falls from + to - across
    the bracket, Illinois regula falsi narrows it to xtol, halving the
    residual of an end kept twice running, and stops early at a residual
    of exactly 0.  The first point of the best value is returned, start
    included: without a sign change the better end wins."""
    best, s, f = start, start.s, start.foc
    if f == 0.0 or outer == s:
        return best
    end = point(outer)
    if end.r > best.r:
        best = end
    if end.foc * f < 0.0:  # foc falls from + at sa to - at sb
        (sa, fa), (sb, fb) = sorted([(s, f), (outer, end.foc)])
        kept = 0  # +1 if sb, -1 if sa was kept by the last step
        while sb - sa > xtol:
            v = sb - fb * (sb - sa) / (fb - fa)
            if not sa < v < sb:
                v = 0.5 * (sa + sb)
            p = point(v)
            if p.r > best.r:
                best = p
            if p.foc > 0.0:
                sa, fa = v, p.foc
                if kept > 0:
                    fb *= 0.5  # Illinois: halve the end kept twice
                kept = 1
            elif p.foc < 0.0:
                sb, fb = v, p.foc
                if kept < 0:
                    fa *= 0.5
                kept = -1
            else:
                break
    return best


def balance_weight(rates, alpha1, alpha2):
    """(value, (mu_lo, mu_hi), lam) of the interior profile (alpha1, alpha2)
    on a convex rate set.

    `rates(mu)` is the set's support point (r1, r2) at weight mu, one that
    maximizes mu r1 + (1 - mu) r2, so the imbalance alpha2 r1 - alpha1 r2
    rises with mu, from <= 0 at mu = 0 (r1 = 0) to >= 0 at mu = 1 (r2 = 0).
    `illinois_root` narrows its root mu* from 1/2 to a few ulps, and the
    last points of each sign, at mu_lo and mu_hi (a root is both), are
    time-shared onto the profile ray, lam of the way at mu_lo: by weak
    duality the value max min(r1 / alpha1, r2 / alpha2), across a jump of
    the support point at mu* too.  A root at 1/2 evaluates only there, with
    lam = 1."""
    last = {}  # the last (mu, imbalance, r1, r2) of each sign: the bracket's ends

    def point(mu):
        r1, r2 = rates(mu)
        g = alpha2 * r1 - alpha1 * r2
        for side in {g > 0.0, g >= 0.0}:  # a root (g = 0) is both ends
            last[side] = (mu, g, r1, r2)
        return _Point(min(r1 / alpha1, r2 / alpha2), mu, -g)

    start = point(0.5)
    illinois_root(point, start, 1.0 if start.foc > 0.0 else 0.0, 8.0 * math.ulp(0.5))
    mu_lo, gL, r1L, r2L = last[False]  # mu = 0 gives r1 = 0, so some point has g <= 0
    mu_hi, gH, r1H, r2H = last[True]  # and mu = 1 gives r2 = 0, so some point has g >= 0
    lam = gH / (gH - gL) if gH > gL else 1.0
    value = min((lam * r1L + (1.0 - lam) * r1H) / alpha1, (lam * r2L + (1.0 - lam) * r2H) / alpha2)
    return value, (mu_lo, mu_hi), lam


def golden_max(f, a, b, iters=60, xtol=0.0):
    """Golden-section maximization of f on [a, b].

    Returns (x_best, f(x_best)). Assumes f is unimodal on the bracket; on
    brackets where it is not, it still converges to a local maximizer, which
    is acceptable for refinement around a grid winner.
    """
    if b <= a:
        return a, f(a)
    dist = b - a
    c = a + _INV_PHI_SQ * dist
    d = a + _INV_PHI * dist
    yc = f(c)
    yd = f(d)
    for _ in range(iters):
        if dist <= xtol:
            break
        dist *= _INV_PHI
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI_SQ * dist
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * dist
            yd = f(d)
    if yc > yd:
        return c, yc
    return d, yd
