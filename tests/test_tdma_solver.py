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
from uavbc import tdma_solver
from uavbc.numerics import golden_max
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
            assert fast.r1 == pytest.approx(exact.r1, rel=1e-10)
            assert fast.r2 == pytest.approx(exact.r2, rel=1e-10)

    def test_cumulative_matches_adaptive_at_low_snr(self, base):
        """A pure flight at Pbar = 1e-5, D = 3000; alpha1 = 0.1 switches at
        t1 ~ 0.0327 s, a metre into the flight, where a linear interpolation
        of a cumulative table under-reports r1 by 5.7e-5."""
        params = replace(base, Pbar=1e-5, D=3000.0)
        traj = make_hfh(params, -1425.0, 375.0, 0.0)
        cum = CumulativeRates(params, traj)
        assert solve_t1(params, traj, RateProfile.of(0.1), cum=cum) == pytest.approx(0.0327, abs=1e-4)
        for t1 in (0.0327, 0.5, 17.0, 41.3, params.T):
            fast = cum.pair_at(t1)
            exact = tdma_rates(params, traj, t1)
            assert fast.r1 == pytest.approx(exact.r1, rel=1e-10)
            assert fast.r2 == pytest.approx(exact.r2, rel=1e-10)


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

    @pytest.mark.parametrize(
        "Pbar, D, Ts, alphas",
        [
            pytest.param(1e-2, 1000.0, (20.0, 60.0, 200.0, 400.0),
                         (0.05, 0.1, 0.2, 0.3, 0.4, 0.5), id="reference-scan"),
            pytest.param(1e-5, 3000.0, (60.0, 200.0), (0.02, 0.1, 0.3, 0.5), id="low-snr"),
        ],
    )
    def test_search_value_is_reported_value(self, base, Pbar, D, Ts, alphas):
        """The value the search maximizes is the reported one: both are
        `CumulativeRates.pair_at` at the winner."""
        for T in Ts:
            for alpha1 in alphas:
                sol = tdma_solve_profile(replace(base, Pbar=Pbar, D=D, T=T), RateProfile.of(alpha1))
                assert sol.diagnostics["search_r"] == sol.r

    @pytest.mark.parametrize("alpha1", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("T", [20.0, 60.0, 400.0])
    @pytest.mark.parametrize("V", [1e-7, 1e-9, 1e-12])
    def test_tiny_speed(self, base, V, T, alpha1):
        """Reaches V*T of 2e-11 to 4e-5 m, which the positions at the users
        do not resolve: no member's flight overruns T, and r is at least the
        fixed hovers' (V = 0)."""
        prof = RateProfile.of(alpha1)
        sol = tdma_solve_profile(replace(base, V=V, T=T), prof)
        assert sol.r >= tdma_solve_profile(replace(base, V=0.0, T=T), prof).r * (1.0 - 1e-12)

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
                30.0, 200.0, 0.1, 6.24212785729569, 24.99934316234686,
                HfhTrajectory(-500.0, 500.0, 8.33267786208662, 158.33398880458003),
                id="hover-both",
            ),
            pytest.param(  # fly, then hover above user 2
                30.0, 63.712, 0.189061, 5.352355756953716, 15.993024035965787,
                HfhTrajectory(-476.8897064940588, 500.0, 0.0, 31.149009783531376),
                id="fly-then-hover",
            ),
            pytest.param(  # fly the whole time
                30.0, 20.0, 0.5, 3.174036968361343, 9.999999997100995,
                HfhTrajectory(-300.00000009360417, 299.99999990639583, 0.0, 0.0),
                id="pure-flight",
            ),
            pytest.param(  # V = 0: one fixed hover
                0.0, 88.144, 0.256504, 2.824524478762563, 55.03643170262159,
                HfhTrajectory(394.2367385513062, 394.2367385513062, 88.144, 0.0),
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


# ---------------------------------------------------------------------------
# the grid screen: its error bound and the winner it lets through
# ---------------------------------------------------------------------------


def _exhaustive_tdma(params, profile, cfg=tdma_solver.DEFAULT_TDMA_CONFIG):
    """`tdma_solve_profile` (non-mirrored, non-corner) with every grid
    candidate scored by `_evaluate`: the search without the screen."""

    def evaluate(traj):
        return tdma_solver._evaluate(params, traj, profile)

    best = None
    for fam, s, traj in tdma_solver._candidate_trajectories(params, cfg):
        r, t1, _ = evaluate(traj)
        if best is None or r > best[0]:
            best = (r, fam, s, traj, t1)
    r_best, fam, s, traj, t1 = best
    s, _ = golden_max(
        lambda v: evaluate(fam.build(v))[0],
        max(fam.lo, s - fam.step),
        min(fam.hi, s + fam.step),
        iters=tdma_solver._GOLDEN_ITERS,
        xtol=fam.xtol,
    )
    cand = fam.build(s)
    r_cand, t1_cand, _ = evaluate(cand)
    if r_cand > r_best:
        r_best, traj, t1 = r_cand, cand, t1_cand
    return CumulativeRates(params, traj).pair_at(t1), traj, t1, {"case": fam.case, "search_r": r_best}


class TestScreen:
    @pytest.mark.parametrize("Pbar", [1e-5, 1e-2, 10.0])
    @pytest.mark.parametrize("H, D", [(100.0, 1000.0), (100.0, 3000.0),
                                      (200.0, 1000.0), (200.0, 3000.0)])
    def test_error_within_half_window(self, base, Pbar, H, D):
        """The exact winner survives the screen while no candidate's screen
        value is further than w / (2 + w) of the best exact value from its
        own exact value (w the window): the winner's screen value is then
        above the screen's best less w times it.

        The error is measured against the best value, not the candidate's
        own: the screen interpolates a trapezoid table linearly and bisects
        t1 to 1e-9 T, while `_evaluate` finds the exact root, so a candidate
        served to user 1 for ~1e-5 T (Pbar = 1e-5, D = 3000, V = 5,
        alpha1 = 0.01) reads 3e-5 of its own value off, at a value a
        hundredth of the best.
        """
        cfg = TdmaSearchConfig(x_grid=17, ti_grid=5)
        w = tdma_solver._SCREEN_WINDOW
        for V in (0.0, 5.0, 30.0):
            params = replace(base, Pbar=Pbar, H=H, D=D, V=V)
            trajs = [t for _, _, t in tdma_solver._candidate_trajectories(params, cfg)]
            for alpha1 in (0.01, 0.1, 0.3, 0.5):
                prof = RateProfile.of(alpha1)
                exact = np.array([tdma_solver._evaluate(params, t, prof)[0] for t in trajs])
                screen = tdma_solver._screen(params, trajs, prof)
                assert np.max(np.abs(screen - exact)) <= w / (2.0 + w) * exact.max()

    @pytest.mark.parametrize(
        "V, T, Pbar, alpha1",
        [
            pytest.param(30.0, 60.0, 1e-2, 0.5, id="mirror-families-tie"),
            pytest.param(0.0, 60.0, 1e-2, 0.3, id="static"),
            pytest.param(30.0, 1000.0 / 30.0, 1e-2, 0.3, id="reach-is-D"),
            # At high SNR the objective is flat enough that the screen's own
            # maximum is another candidate than the exact one.
            pytest.param(30.0, 20.0, 10.0, 0.5, id="screen-misranks"),
            pytest.param(5.0, 33.3, 10.0, 0.5, id="screen-misranks-tie"),
        ],
    )
    def test_matches_exhaustive_search(self, base, V, T, Pbar, alpha1):
        params = replace(base, V=V, T=T, Pbar=Pbar)
        sol = tdma_solve_profile(params, RateProfile.of(alpha1))
        pair, traj, t1, diagnostics = _exhaustive_tdma(params, RateProfile.of(alpha1))
        assert sol.rate_pair == pair
        assert sol.trajectory == traj
        assert sol.t1 == t1
        assert sol.diagnostics == diagnostics
