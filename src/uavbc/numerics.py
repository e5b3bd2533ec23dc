"""Small deterministic search and quadrature routines used throughout.

Everything here is scalar and allocation-free so the solvers can call these
helpers tens of thousands of times without noticeable overhead.
"""

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

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


def adaptive_simpson(f, a, b, tol=None, max_depth=40):
    """Adaptive Simpson quadrature of f over [a, b].

    ``tol`` is the absolute tolerance; when None it defaults to 1e-9 of the
    coarse integral magnitude (floored to 1e-12 for near-zero integrands).
    Integrands here are smooth rational-log functions, so the classic
    Richardson acceptance test |S2 - S1| <= 15 tol is reliable.
    """
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if tol is None:
        tol = max(1e-9 * abs(whole), 1e-12)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )
