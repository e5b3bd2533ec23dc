from dataclasses import replace

import numpy as np
import pytest

from uavbc import (
    HfhTrajectory,
    RateProfile,
    TimeOutOfRange,
    make_hfh,
    solve_profile,
    solve_t1,
    tdma_rates,
    tdma_solve_profile,
    tdma_trace_region,
)
from uavbc.oracle import check_feasibility
from uavbc.tdma_solver import CumulativeRates, TdmaSearchConfig

PEAK = 6.6582114827517955
FAST_TDMA = TdmaSearchConfig(x_grid=33, ti_grid=9)


class TestTdmaRates:
    def test_no_time_for_user1(self, base):
        traj = make_hfh(base, -500.0, 500.0, 10.0)
        pair = tdma_rates(base, traj, 0.0)
        assert pair.r1 == 0.0
        assert pair.r2 > 0.0

    def test_hover_left_split_half(self, static):
        traj = make_hfh(static, -500.0, -500.0, static.T)
        pair = tdma_rates(static, traj, static.T / 2)
        assert pair.r1 == pytest.approx(PEAK / 2, abs=1e-9)
        assert pair.r2 == pytest.approx(0.4964201042135669, abs=1e-9)

    def test_hover_left_all_user1(self, static):
        traj = make_hfh(static, -500.0, -500.0, static.T)
        pair = tdma_rates(static, traj, static.T)
        assert pair.r1 == pytest.approx(PEAK, abs=1e-9)
        assert pair.r2 == 0.0

    def test_out_of_range(self, base):
        traj = make_hfh(base, 0.0, 0.0, base.T)
        with pytest.raises(TimeOutOfRange):
            tdma_rates(base, traj, base.T * 1.5)

    def test_cumulative_matches_adaptive(self, base):
        traj = make_hfh(base, -500.0, 420.0, 7.0)
        cum = CumulativeRates(base, traj)
        for t1 in (0.0, 11.0, 29.5, 47.0, base.T):
            fast = cum.pair_at(t1)
            exact = tdma_rates(base, traj, t1)
            assert fast.r1 == pytest.approx(exact.r1, abs=1e-6)
            assert fast.r2 == pytest.approx(exact.r2, abs=1e-6)


class TestSolveT1:
    def test_symmetric_trajectory(self, base):
        t_hover = 0.5 * (base.T - base.D / base.V)
        traj = make_hfh(base, -500.0, 500.0, t_hover)
        t1 = solve_t1(base, traj, RateProfile.of(0.5))
        assert t1 == pytest.approx(base.T / 2, rel=1e-6)

    def test_corner(self, base):
        traj = make_hfh(base, -500.0, 500.0, 10.0)
        assert solve_t1(base, traj, RateProfile.of(0.0)) == 0.0
        assert solve_t1(base, traj, RateProfile.of(1.0)) == base.T

    def test_matches_dense_scan(self, base):
        prof = RateProfile.of(0.35)
        traj = make_hfh(base, -500.0, 250.0, 20.0)
        cum = CumulativeRates(base, traj)
        t1 = solve_t1(base, traj, prof, cum=cum)
        grid = np.linspace(0.0, base.T, 100001)
        gaps = [
            abs(prof.alpha2 * cum.pair_at(t).r1 - prof.alpha1 * cum.pair_at(t).r2)
            for t in grid[:: 1000]
        ]  # coarse pre-scan to bracket, then the fine window
        k = int(np.argmin(gaps)) * 1000
        window = grid[max(k - 1000, 0) : min(k + 1000, len(grid))]
        fine = [
            abs(prof.alpha2 * cum.pair_at(t).r1 - prof.alpha1 * cum.pair_at(t).r2)
            for t in window
        ]
        best = window[int(np.argmin(fine))]
        assert abs(t1 - best) <= (grid[1] - grid[0]) + 1e-9


class TestTdmaSolveProfile:
    def test_corner(self, base):
        sol = tdma_solve_profile(base, RateProfile.of(0.0))
        assert sol.trajectory.x_I == sol.trajectory.x_F == 500.0
        assert sol.rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)
        assert sol.t1 == 0.0

    def test_dominated_by_sc_at_v0(self, static):
        prof = RateProfile.of(0.5)
        td = tdma_solve_profile(static, prof, FAST_TDMA)
        sc = solve_profile(static, prof)
        assert td.rate_pair.r1 == pytest.approx(td.rate_pair.r2, rel=1e-4)
        assert td.r <= sc.r + 1e-6

    def test_beats_hover_only_schedule(self, base):
        sol = tdma_solve_profile(base, RateProfile.of(0.5), FAST_TDMA)
        assert sol.rate_pair.r1 >= 1.4796025517226212 - 1e-9
        assert check_feasibility(base, sol).passed

    def test_hover_exclusion(self, base):
        """With V > 0, hovering happens only above a user."""
        for a1 in (0.1, 0.3, 0.5):
            sol = tdma_solve_profile(base, RateProfile.of(a1), FAST_TDMA)
            traj = sol.trajectory
            if traj.t_I > 1e-6:
                assert abs(traj.x_I) == pytest.approx(500.0, abs=1e-6)
            if traj.t_F > 1e-6:
                assert abs(traj.x_F) == pytest.approx(500.0, abs=1e-6)

    def test_mirror(self, base):
        a = tdma_solve_profile(base, RateProfile.of(0.25), FAST_TDMA)
        b = tdma_solve_profile(base, RateProfile.of(0.75), FAST_TDMA)
        assert a.rate_pair.r1 == pytest.approx(b.rate_pair.r2, abs=1e-9)
        assert a.t1 == pytest.approx(base.T - b.t1, abs=1e-6)
        assert check_feasibility(base, b).passed


def test_tdma_trace_corners_and_nesting(base):
    reg = tdma_trace_region(base, 5, FAST_TDMA)
    assert reg.points[0].rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)
    assert reg.points[-1].rate_pair.r1 == pytest.approx(PEAK, abs=1e-9)
    for p in reg.points:
        assert p.rate_pair.total <= PEAK + 1e-9  # inside the T->inf triangle


class TestTdmaExactness:
    """Default-config outputs pinned with ==, one point per winning family."""

    @pytest.mark.parametrize(
        "V, T, alpha1, r, t1, traj",
        [
            pytest.param(  # hover at both users
                30.0, 200.0, 0.1, 6.2421278551285075, 24.99875957146287,
                HfhTrajectory(-500.0, 500.0, 8.332981210190454, 158.33368545647622),
                id="hover-both",
            ),
            pytest.param(  # fly, then hover above user 2
                30.0, 63.712, 0.189061, 5.35235575466596, 15.993471187070018,
                HfhTrajectory(-476.88267620003654, 500.0, 0.0, 31.14924412666545),
                id="fly-then-hover",
            ),
            pytest.param(  # fly the whole time
                30.0, 20.0, 0.5, 3.1740369683432412, 9.999999227002263,
                HfhTrajectory(-300.00002496085693, 299.99997503914307, 0.0, 0.0),
                id="pure-flight",
            ),
            pytest.param(  # V = 0: one fixed hover
                0.0, 88.144, 0.256504, 2.824524478456336, 55.03676878661662,
                HfhTrajectory(394.2407741793294, 394.2407741793294, 88.144, 0.0),
                id="static",
            ),
        ],
    )
    def test_pinned(self, base, V, T, alpha1, r, t1, traj):
        sol = tdma_solve_profile(replace(base, V=V, T=T), RateProfile.of(alpha1))
        assert sol.r == r
        assert sol.t1 == t1
        assert sol.trajectory == traj

    def test_trace_mirrors_exactly(self, base):
        points = tdma_trace_region(base, 5).points
        for i in (0, 1):  # the middle point, alpha1 = 1/2, is its own mirror
            assert points[i].rate_pair == points[-1 - i].rate_pair.swapped()
