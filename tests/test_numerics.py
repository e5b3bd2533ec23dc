from typing import NamedTuple

import pytest

from uavbc.numerics import illinois_root


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
