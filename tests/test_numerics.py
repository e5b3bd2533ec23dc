import math
from typing import NamedTuple

import pytest

from uavbc.numerics import balance_weight, illinois_root


class Point(NamedTuple):
    r: float
    s: float
    foc: float


def _recorder(value, residual):
    """point(s) for `illinois_root`, and the list of the s it evaluated."""
    seen = []

    def point(s):
        seen.append(s)
        return Point(value(s), s, residual(s))

    return point, seen


class TestIllinoisRoot:
    def test_halves_the_end_kept_twice(self):
        """On 1 - s^2 from 0 to 2 regula falsi keeps the end at 2 twice; the
        third step then uses half its residual, -1.5, and lands at
        2 - 1.5 * 1.2 / 1.86 instead of plain regula falsi's
        2 - 3 * 1.2 / 3.36."""
        point, seen = _recorder(lambda s: -abs(s - 1.0), lambda s: 1.0 - s * s)
        best = illinois_root(point, Point(-1.0, 0.0, 1.0), 2.0, 1e-12)
        assert seen[:3] == [2.0, 0.5, pytest.approx(0.8)]
        assert seen[3] == pytest.approx(2.0 - 1.5 * 1.2 / 1.86)
        assert best.s == pytest.approx(1.0, abs=1e-12)

    def test_keeps_the_start_when_no_point_is_better(self):
        """The residual changes sign, but every point evaluated is worth
        less than the start, which is returned as it is."""
        start = Point(5.0, 0.0, 1.0)
        point, seen = _recorder(lambda s: 1.0, lambda s: 0.5 - s)
        assert illinois_root(point, start, 2.0, 1e-9) is start
        assert len(seen) > 2

    def test_keeps_the_better_end_without_a_sign_change(self):
        """The residual keeps its sign out to the outer end: only that end
        is evaluated, and it is returned when it is better."""
        point, seen = _recorder(lambda s: s, lambda s: 1.0)
        best = illinois_root(point, Point(0.0, 0.0, 1.0), 3.0, 1e-9)
        assert seen == [3.0]
        assert (best.r, best.s) == (3.0, 3.0)
        point, seen = _recorder(lambda s: -s, lambda s: 1.0)
        assert illinois_root(point, Point(0.0, 0.0, 1.0), 3.0, 1e-9).s == 0.0

    @pytest.mark.parametrize("foc, outer", [(0.0, 1.0), (1.0, 0.0)])
    def test_evaluates_nothing_at_a_root_or_a_bound(self, foc, outer):
        start = Point(0.0, 0.0, foc)
        point, seen = _recorder(lambda s: s, lambda s: -1.0)
        assert illinois_root(point, start, outer, 1e-9) is start
        assert seen == []


def _ellipse(a, b, seen):
    """rates(mu) of the quarter ellipse (r1 / a)^2 + (r2 / b)^2 <= 1: its
    support point at weight mu, each one recorded in seen."""

    def rates(mu):
        n = math.hypot(a * mu, b * (1.0 - mu))
        seen.append((a * a * mu / n, b * b * (1.0 - mu) / n))
        return seen[-1]

    return rates


class TestBalanceWeight:
    def test_time_shares_across_a_jump(self):
        """Two support points, (0.2, 1) below mu = 1/2 and (1, 0.2) from
        it: the imbalance jumps at 1/2, the bracket closes on it, and
        their time share on the ray of (1/3, 2/3), 3/4 of the way at
        (0.2, 1), is (0.4, 0.8), worth 1.2."""

        def rates(mu):
            return (0.2, 1.0) if mu < 0.5 else (1.0, 0.2)

        value, (mu_lo, mu_hi), lam = balance_weight(rates, 1 / 3, 2 / 3)
        assert mu_lo < 0.5 == mu_hi
        assert mu_hi - mu_lo <= 8.0 * math.ulp(0.5)
        assert lam == pytest.approx(0.75, rel=1e-15)
        assert value == pytest.approx(1.2, rel=1e-15)

    def test_a_root_at_one_half_evaluates_once(self):
        """The quarter circle balances the profile (1/2, 1/2) at mu = 1/2:
        only that weight is evaluated, and its point is the value."""
        seen = []
        value, bracket, lam = balance_weight(_ellipse(1.0, 1.0, seen), 0.5, 0.5)
        assert len(seen) == 1
        assert (bracket, lam) == ((0.5, 0.5), 1.0)
        assert value == 2.0 * seen[0][0]

    @pytest.mark.parametrize("alpha1", [0.1, 0.3, 0.45, 0.7, 0.9])
    def test_value_not_below_any_evaluated_point(self, alpha1):
        """On a quarter ellipse the value is the ray's boundary point to
        rounding, and no weight evaluated on the way is worth more."""
        seen = []
        alpha2 = 1.0 - alpha1
        value, _, _ = balance_weight(_ellipse(2.0, 0.5, seen), alpha1, alpha2)
        assert len(seen) > 1
        assert value >= max(min(r1 / alpha1, r2 / alpha2) for r1, r2 in seen)
        assert value == pytest.approx(1.0 / math.hypot(alpha1 / 2.0, alpha2 / 0.5), rel=1e-12)
